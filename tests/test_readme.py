"""The README's Quick start runs and prints the values its comments state."""

import contextlib
import io
import re
from decimal import Decimal
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, "expected one python block in README.md"
    return blocks[0]


def _agrees(printed: str, stated: str) -> bool:
    """The same text, or for "~x" the value x once rounded to the digits x shows."""
    if not stated.startswith("~"):
        return printed == stated
    want = Decimal(stated[1:])
    quantum = Decimal((0, (1,), want.as_tuple().exponent))
    return Decimal(printed).quantize(quantum) == want


def test_agreement_rule():
    assert _agrees("-8.0", "-8.0") and not _agrees("-8.000000000000002", "-8.0")
    assert _agrees("63.999999999999986", "~64.0") and not _agrees("63.9", "~64.0")
    assert _agrees("5.99903913064743e-32", "~0.0")
    assert _agrees("1.746946146952973e-125", "~1.7e-125")
    assert not _agrees("1.76e-125", "~1.7e-125")


def test_quick_start_prints_what_it_states():
    # Each print line ends in "# value [value ...][, remark]".
    code = _quick_start()
    stated = [line.split("#", 1)[1].split(",")[0].split()
              for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = [line.split() for line in out.getvalue().splitlines()]
    assert stated and len(printed) == len(stated)
    for got, want in zip(printed, stated):
        assert len(got) == len(want) and all(map(_agrees, got, want)), (got, want)
