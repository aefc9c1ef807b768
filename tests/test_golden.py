"""Golden CLI output: exact stdout bytes for a fixed argv matrix.

Each entry holds the exit code and the sha256 of the stdout bytes captured
from the row-at-a-time implementation that preceded the columnar scans.
Only the five verify entries have changed since, each three times and one
of them a fourth time, and they say why next to them.
A changed last digit anywhere in a table changes the hash. The matrix covers
every scan in CSV and JSON, every unit choice, grids that reach 1e-7 from
both poles, the overflow rows near theta = 1e-80 and 1e-160, non-default
coincidence states, the SI summaries and the verification gate, including
its failing negative control, and tables large enough to be formatted by
forked workers. Every entry must give the same bytes with its formatting
jobs run in this process and run in forked workers.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gravscatter import _json_floats, cli
from gravscatter.amplitudes import PATTERN_NAMES
from gravscatter.cli import main

NEAR_POLES = "--theta-min=1e-07 --theta-max=3.1415925535897933"

GOLDEN = [
    # (argv, exit code, sha256 of stdout)
    ("amp-table --samples 7", 0,
     "36ed4c7731b39e18ea1f36e6ddc18ffc3f5bfb2ae429cddceae1e8e50b37b667"),
    ("amp-table --samples 7 --format json", 0,
     "cf886cfee6809bfaf157e4c580f78d4ec3fd280813e97c13f1ce7b695a8a291b"),
    (f"amp-table {NEAR_POLES} --samples 9", 0,
     "36a0c076a8b14fcddf601634f59734353505b2b6759da56598bc7093143dacf8"),
    (f"amp-table {NEAR_POLES} --samples 9 --format json", 0,
     "658ff14c041d8acbc9d32b37f924811a7192eca8874dcd0736f9d1158fc68532"),
    ("amp-table --theta-min=1e-160 --samples 3", 0,
     "7facdd908503ee92a1b7b23491977809448204633ff2a7897211e9aef14ca862"),
    ("amp-table --theta-min=1e-160 --samples 3 --format json", 0,
     "9d41841c7d746885025113b9acf01f08626beefb6bd00b0877c9a8598c3055c5"),
    ("amp-table --theta-min=0.003 --theta-max=3.1 --samples 1000", 0,
     "25901c30e0dfea46faabd1e86b1dafdf16581224182de60903482cda76734d8b"),
    ("dcs-scan --samples 7", 0,
     "642574867e4107f29b67bfb9c40b3dc9a295dc22e830292de0526433e7337c80"),
    ("dcs-scan --samples 7 --format json", 0,
     "0f79b13f324c41c6c2365f5cc46b81c2f1b4759615371d6d01fbec400275c730"),
    ("dcs-scan --units si --lambda 1e-06 --samples 7", 0,
     "6cfd3725caeb2811a3789e3eeeea0dd17436f9dbcc8ff5144a5e2ac90fe8c5b7"),
    ("dcs-scan --units si --lambda 1e-06 --samples 7 --format json", 0,
     "fa16310440314fc7f4953588d1c6696f2997cab243942372954b4c9d84a210c9"),
    ("dcs-scan --units figure3 --samples 7", 0,
     "190c393eec0da198bbe82a5bbe282d46dd0bbf949237005e1c327519e33c1863"),
    ("dcs-scan --units figure3 --samples 7 --format json", 0,
     "09ca3c1b67743524d9c008bfb80e417718d6044c89cda5dbcf64bba244cf9cb8"),
    (f"dcs-scan {NEAR_POLES} --samples 9", 0,
     "de7408afe821abc88099ad532d5af741d29cc9d59a9f01c5e115a6e0b02aa66b"),
    (f"dcs-scan {NEAR_POLES} --samples 9 --units si --lambda 3e-07 --format json", 0,
     "411c4c3397745cce9ec946a16aa4c69ca9e61ebfc96e9edf63444f7359651fbf"),
    ("dcs-scan --theta-min=1e-80 --samples 3", 0,
     "1d306b6bc213cba6607de9b1a555ce95154b29b9fa30766ff29bb13561305259"),
    ("dcs-scan --theta-min=1e-80 --samples 3 --format json", 0,
     "75c8572fbb3721476a4e63795e9a6b2bb2ad93a5ba7217999b811044adc29903"),
    ("dcs-scan --units si --lambda 7.3e-05 --samples 1000 --format json", 0,
     "3dde32f22f159236ccebd72579f70b3cfd4af1590eb678623f3efa5e83caf354"),
    ("qed-scan --units reduced --samples 7", 0,
     "afec4e58bee8bf19a78e79a180cd7d2f93901e71009be29978990d9e30a2e787"),
    ("qed-scan --units reduced --samples 7 --format json", 0,
     "fad23bd91762280386a7c1470256bb418d356b5375d65d9e98453b88e3d7e278"),
    ("qed-scan --lambda 5e-07 --samples 7", 0,
     "d3950f1b01f24c266ce752b41a8307ca1f39dca724e3f3b504373ed51136b11c"),
    ("qed-scan --lambda 5e-07 --samples 7 --format json", 0,
     "559983717252ccbfd602ab4c795bcf04902a87e7890a7d5b6f546064e68dddc3"),
    (f"qed-scan {NEAR_POLES} --samples 9 --lambda 2e-06", 0,
     "6f1b30729f82eb547ff0981e545e7cdf227d8949c08d6fe529211df214e867a4"),
    ("qed-scan --lambda 1.7e-08 --samples 1000 --format json", 0,
     "a4643a1a4e5b8672531e94e19e09672b33f6205d207e668f5cbf7e48a2b82a3b"),
    ("coincidence-scan --samples 7", 0,
     "e073970111a4034e76c895d7a7c7b475c51b8868c6fc9846277745103a266f8b"),
    ("coincidence-scan --samples 7 --format json", 0,
     "db9548421802243ba7cb57a995b8f99b297c800ef4916b27c8f861f09ae724ef"),
    ("coincidence-scan --phi 0.3 --rho 2.0 --samples 7", 0,
     "ea93265fe31b0cab8939cb264f5fa5acf8066b62d9d92dbcab9d2614371e4333"),
    ("coincidence-scan --phi 0.3 --rho 2.0 --samples 7 --format json", 0,
     "bd27c13a43c40e98353cb7baaa6c0672e2666655579e5814aec68e3a6cf35ebb"),
    ("coincidence-scan --phi 0 --rho=-1.0 --delta-min=-3 --delta-max 10 --samples 7", 0,
     "cfb42c0341dee085d1e3d4027c36690d7595968e13c230bb1915952d48387e7b"),
    ("coincidence-scan --phi 1.2 --rho 4.5 --samples 1000 --format json", 0,
     "7ac0c30def214cd5596df262448a9b254f23bc540a780402fc9f93fab141fe92"),
    ("si --lambda 1e-06", 0,
     "13a48798b288e2d0958b4b3ef9d760079cfacc32471f349c9007a9326cacb98c"),
    ("si --lambda 1e-06 --format json", 0,
     "8198721e5b3d33f678a8bf0c8c9274c3b023ab7f1353950b9fdaf64cf2e3f0bb"),
    ("si --lambda 5e-07 --theory qed", 0,
     "8bd1b02e5d092b6d2d9bf9fe1bb59e8bb7d823d20b0ac8b314fc16f52ffe8fd2"),
    ("si --lambda 5e-07 --theory qed --format json", 0,
     "717ba28658075da50aaed77b39cabbf97cfe307ba5dbc6ea02b8f053524108d5"),
    # The five verify entries below changed three times. The first two times
    # each output differed from the one before in the last digits of some
    # deviations alone; the third time only the gauge deviation moved.
    # - When the gauge shifts came to be drawn from random.Random(seed)
    #   instead of numpy's default_rng(seed), the gauge deviation moved. The
    #   hash before that change is the "first was" above each entry.
    # - When contracted_vertex came to be built as minus the photons' stress
    #   tensor, from the field strengths F = k ^ e, the diagram sums moved in
    #   their last bits: 1420 of the 16000 elements of verify --samples 1000,
    #   by at most 4.6e-16 of that angle's largest element. The default
    #   gauge deviation fell from 1.29e-14 to 4.22e-15. The hash before that
    #   change is the "then was" above each entry.
    # - When the gauge row came to score the Ward amplitude, each photon's
    #   polarization replaced by its momentum, instead of drawn shifts, the
    #   gauge deviation became 10 |M(P; e_j -> p_j)| / |M(P)|: exactly 0.0
    #   unperturbed (was 4.22e-15 on the default grid and 3.55e-15 on the
    #   9-angle one), 2.62e-3 at --perturb-vertex 1e-3 (was 2.12e-3). No
    #   other byte moved. The hash before that change is the "last was"
    #   above each entry. --seed is now accepted and ignored; the 9-angle
    #   entry keeps it, and a test below checks it changes no byte.
    # The tests after GOLDEN check that no verdict, key or grid field moved.
    # first was c803ed8c8bdd4fdad43dd1ecdc27543c4de7fe84d7bfaad845c446fe3753e073
    # then was 65fb7be30f090309dfc7ab4d444e868d15f60d0eff15e6533f2ab0433e584db1
    # last was 0b45186fb8403070a52505b7e6ba47e31d8448ed6e81f71d9e03485ad87aab96
    ("verify", 0,
     "e3c157fe948ed28f30078dbbd8067f59d886ccf80fee378665d4187b406ac4a1"),
    # first was 3298c4ae9048fbed5dd37ad836dd907bcc841db5812acc5c3526405419d779a7
    # then was 4b43737c36d597c3d3a47efab62d0f3683f1d23c59bf94e943ca1b196409b8c7
    # last was 87383bd25392d39b8d3553463f9dae6901d0d719990db2b4b13e889fd622b22f
    ("verify --format json", 0,
     "e76b6243e052d719961a4bfbdf0df05bad1252ea1a4f9ae2ef5dbb30aff1b14f"),
    # An earlier deliberate change: closed_form_grid now takes its powers with
    # np.float_power, so each row equals the one-angle value bit for bit, and the
    # round-off deviation this grid reports for 1221 and 2112 moves from
    # 3.5992170565184363e-16 to 3.0829255977364377e-16 (the hash before was
    # 7e726853b90caaf2265f8897b7be3c3e4e663fca233b2d011997aca59be689d2).
    # first was d3c8ac1e877d2877c0843e142c4bba5cb8527f6db34a558872dfa0e163228063
    # then was 5c4baa6a9a6cdf0ffc0ad924b975cc41d2016cde2c58cd3c9f8c8fe78c9f7b92
    # last was b84143325c3a334c64faf788236f0278987f9fbd8134fdb0db389aa863b48963
    ("verify --samples 9 --seed 3 --theta-min 0.2 --format json", 0,
     "feb2960f72df4f0db93c09a588025233f70528e7066bd253b659c49121895607"),
    # first was 2dbcda5e5b9244de304eb5531a31bdbad390e97bbaaf1e6ce388da0f293b2d22
    # then was 19464f81b20359918dc4d49524adb05479f6ca9382354370f7422667cb3f3fac
    # last was 48a646aacb001d726f80dc33f6ea5a1b5a15bb8873a19ede623cf2e273bb15f6
    ("verify --perturb-vertex 1e-3", 1,
     "d545dee2ef69a86c1f7c04aa54e39f1a967d4e261ff8d046f1de3e337d9d9c56"),
    # first was cff09ec6a27a994f83c5012692565eb46f8ec54af0f835347600b0eb913ff9ea
    # then was 52253c4c8f9995616d5585d245887892b7e8004523a66b4207629a136b6d5370
    # last was e604363c841b32ac34ab144b227b5a61a79edeb9ebc96c0a4528dd75d4548c26
    ("verify --perturb-vertex 1e-3 --format json", 1,
     "375e2c1eb2897b4efdc04a47d2c6049e2ebd4043dae98afaa2222103d86408b2"),
    # Tables above the fork threshold, captured from the single-process
    # writer; the 1e-80 grid puts inf in the first chunk of each cross-section
    # column.
    ("dcs-scan --units si --lambda 7.3e-05 --samples 20000 --format json", 0,
     "b9b4f3dfb1b25ac58e7c1a9803d613e40f1c30430b7a17af7c90ea5fec42fa0b"),
    ("amp-table --samples 20000", 0,
     "aeb64af118aff1c7fa5a82e055c770fa558861f1ae2089ac6d3c136bacf070fd"),
    ("coincidence-scan --samples 100000 --format json", 0,
     "e90f429ed284ead7607075a05b33b9b3898b99e3c7433dc950f41c82a6e814c8"),
    ("dcs-scan --theta-min=1e-80 --samples 70000 --format json", 0,
     "0dc055d91d8e6d832c411ade15fda05242d4317af2992151cf384ec664744e42"),
]

GOLDEN_BY_ARGV = {row[0]: row for row in GOLDEN}


def _stdout_of(argv: str) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(shlex.split(argv))
    return code, buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_stdout_bytes(argv, code, digest):
    got_code, out = _stdout_of(argv)
    assert got_code == code
    assert hashlib.sha256(out).hexdigest() == digest, out.decode()[:2000]


# What a verify entry keeps when its deviations move in their last digits.
# For each JSON entry: passed, samples, theta_min and theta_max; every key,
# both tolerances and the vanishing patterns are the same for all three.
VERIFY_JSON_FIELDS = {
    "verify --format json": (True, 100, 0.05, 3.0915926535897933),
    "verify --samples 9 --seed 3 --theta-min 0.2 --format json":
        (True, 9, 0.2, 3.0915926535897933),
    "verify --perturb-vertex 1e-3 --format json": (False, 100, 0.05, 3.0915926535897933),
}
VERIFY_JSON_KEYS = ["command", "passed", "samples", "theta_min", "theta_max", "tolerance",
                    "gauge_tolerance", "pattern_deviations", "identically_zero",
                    "gauge_deviation"]
IDENTICALLY_ZERO = ["1112", "1121", "1211", "1222", "2111", "2122", "2212", "2221"]
# For each text entry: the rows that FAIL; every other row PASSes.
VERIFY_TEXT_FAILURES = {
    "verify": [],
    "verify --perturb-vertex 1e-3": ["m_1122", "m_1212", "m_1221", "m_2112", "m_2121",
                                     "m_2211", "m_2222", "gauge shifts:"],
}


@pytest.mark.parametrize("argv", VERIFY_JSON_FIELDS)
def test_verify_json_keeps_verdict_and_fields(argv):
    report = json.loads(_stdout_of(argv)[1])
    assert list(report) == VERIFY_JSON_KEYS
    assert (report["passed"], report["samples"], report["theta_min"],
            report["theta_max"]) == VERIFY_JSON_FIELDS[argv]
    assert report["tolerance"] == report["gauge_tolerance"] == 1e-9
    assert list(report["pattern_deviations"]) == list(PATTERN_NAMES)
    assert report["identically_zero"] == IDENTICALLY_ZERO


def test_verify_golden_seed_changes_no_byte():
    # verify accepts --seed and ignores it: the gauge row draws nothing.
    argv = "verify --samples 9 --seed 3 --theta-min 0.2 --format json"
    assert _stdout_of(argv) == _stdout_of(argv.replace(" --seed 3", ""))


@pytest.mark.parametrize("argv", VERIFY_TEXT_FAILURES)
def test_verify_text_keeps_every_verdict(argv):
    *rows, result = _stdout_of(argv)[1].decode().splitlines()[2:]
    labels = [row.split(" max deviation")[0].strip() for row in rows]
    assert labels == [f"m_{name}" for name in PATTERN_NAMES] + ["gauge shifts:"]
    assert all(("  PASS" in row) != ("  FAIL" in row) for row in rows)
    failed = [label for label, row in zip(labels, rows) if "  FAIL" in row]
    assert failed == VERIFY_TEXT_FAILURES[argv]
    assert result == f"result: {'FAIL' if failed else 'PASS'}"


def _cli_run(argv: str, **env) -> subprocess.CompletedProcess:
    """The CLI run as __main__ in a child process, from this checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "gravscatter.cli", *shlex.split(argv)],
                          capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src), **env))


def test_subprocess_stdout_matches():
    # The in-process capture above stands for the real byte stream.
    argv = "dcs-scan --units si --lambda 1e-06 --samples 7 --format json"
    run = _cli_run(argv)
    assert run.returncode == 0
    assert run.stdout == _stdout_of(argv)[1]


def test_subprocess_verify_matches():
    # The one command that contracts a large batch, in a child that loads
    # OpenBLAS with one thread, as importing gravscatter before numpy does,
    # and in one with two. Every contraction is an einsum, so the thread
    # count must not move a bit.
    argv = "verify --samples 1000 --format json"
    expected = _stdout_of(argv)[1]
    for env in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        run = _cli_run(argv, **env)
        assert (run.returncode, run.stdout) == (0, expected), env


@pytest.mark.parametrize("workers", [0, 3], ids=["in-process", "forked"])
@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_stdout_bytes_either_path(monkeypatch, workers, argv, code, digest):
    # Forced: no workers at any size, or three at any size (more than this
    # machine may have CPUs, and a table with no jobs still forks them).
    monkeypatch.setattr(cli, "_workers", lambda jobs: workers)
    got_code, out = _stdout_of(argv)
    assert got_code == code
    assert hashlib.sha256(out).hexdigest() == digest, out.decode()[:2000]


def test_output_file_matches_stdout(monkeypatch, tmp_path):
    argv, _, digest = GOLDEN_BY_ARGV["coincidence-scan --samples 100000 --format json"]
    monkeypatch.setattr(cli, "_workers", lambda jobs: 3)
    path = tmp_path / "fringes.json"
    assert main([*shlex.split(argv), "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_workers_inherit_the_json_kernel_tables(monkeypatch):
    # The kernel builds its tables when the writer imports it, in this
    # process, before the fork; a worker that built them again would fail.
    def rebuilt():
        raise AssertionError("the JSON kernel's tables were built after import")

    argv, code, digest = GOLDEN_BY_ARGV[
        "dcs-scan --units si --lambda 7.3e-05 --samples 20000 --format json"]
    monkeypatch.setattr(_json_floats, "_tables", rebuilt)
    monkeypatch.setattr(cli, "_workers", lambda jobs: 2)
    got_code, out = _stdout_of(argv)
    assert got_code == code
    assert hashlib.sha256(out).hexdigest() == digest


needs_two_cpus = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="formats in one process with fewer than two usable CPUs")


@needs_two_cpus
def test_forked_subprocess_is_silent(**env):
    # Run as __main__, where Python shows DeprecationWarnings, such as the
    # one os.fork gives from Python 3.12 in a process with threads.
    argv, _, digest = GOLDEN_BY_ARGV[
        "dcs-scan --units si --lambda 7.3e-05 --samples 20000 --format json"]
    run = _cli_run(argv, **env)
    assert (run.returncode, run.stderr) == (0, b"")
    assert hashlib.sha256(run.stdout).hexdigest() == digest


@needs_two_cpus
def test_forked_threaded_subprocess_is_silent():
    # A user-set thread count gives the child an OpenBLAS worker thread, so
    # from Python 3.12 only this run meets os.fork's warning.
    test_forked_subprocess_is_silent(OPENBLAS_NUM_THREADS="2")
