"""Child launcher for bench/run.py.

Linux charges a process the peak resident size of the process it was
spawned from (the address space it leaves at exec), so children spawned by
the benchmark itself, which holds and parses outputs of many megabytes, would
report the benchmark's peak as their own. This small stdlib-only process
spawns every timed child instead, so ``ru_maxrss`` is the child's.

Protocol, on stdin: one JSON request per line, ``{"args": [...], "timeout": s}``,
run as ``sys.executable *args``. On stdout, frames of one tag byte, a 4-byte
big-endian length and the payload: ``1`` child stdout, ``2`` child stderr,
and a final ``0`` whose payload is the JSON outcome (wall_s, cpu_s,
maxrss_kb, returncode, timed_out). Wall time runs from spawn until the child
has exited and both of its pipes are drained.
"""

import json
import os
import selectors
import subprocess
import sys
import time

OUT = sys.stdout.buffer


def frame(tag: bytes, payload: bytes) -> None:
    OUT.write(tag + len(payload).to_bytes(4, "big") + payload)


def run(args: list, timeout: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    tags = {proc.stdout: b"1", proc.stderr: b"2"}
    timed_out = False
    try:
        with selectors.DefaultSelector() as selector:
            for pipe in tags:
                selector.register(pipe, selectors.EVENT_READ)
            deadline = start + timeout
            while selector.get_map():
                ready = selector.select(timeout=max(0.0, deadline - time.perf_counter()))
                if not ready and not timed_out:
                    timed_out = True
                    proc.kill()
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        frame(tags[key.fileobj], data)
                    else:
                        selector.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        # wait4 reaps the child and returns its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return {"wall_s": time.perf_counter() - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "returncode": proc.returncode,
            "timed_out": timed_out}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        outcome = run(request["args"], request["timeout"])
        frame(b"0", json.dumps(outcome).encode())
        OUT.flush()


if __name__ == "__main__":
    main()
