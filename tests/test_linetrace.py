"""tools/linetrace.py on a generated one-test file."""

import importlib.util
import json
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("linetrace", ROOT / "tools" / "linetrace.py")
linetrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linetrace)

ONE_TEST = """\
from fractions import Fraction

from shiftlab.rationals import abs_pow


def test_a_rational():
    assert abs_pow(Fraction(-2, 3), Fraction(2)) == Fraction(4, 9)
"""


def _line(text: str) -> int:
    """The one line of rationals.py whose stripped text is text."""
    lines = [n for n, line in enumerate((ROOT / "src/shiftlab/rationals.py").read_text().splitlines(), 1)
             if line.strip() == text]
    assert len(lines) == 1
    return lines[0]


def test_a_one_test_run_lists_the_branch_it_skips_and_not_the_one_it_takes(tmp_path, capsys):
    # abs_pow of a Fraction returns from its rational branch, so the float
    # branch's first statement never runs
    (tmp_path / "test_one.py").write_text(ONE_TEST)
    out = tmp_path / "trace.json"
    start = time.perf_counter()
    assert linetrace.main(["--out", str(out), str(tmp_path / "test_one.py")]) == 0
    assert time.perf_counter() - start < 60
    doc = json.loads(out.read_text())
    assert doc["pytest_exit_code"] == 0
    listed = {(item["file"], item["line"]) for item in doc["unrun"]}
    skipped, taken = _line("v = abs(value)"), _line("return pow_maybe_exact(abs(value), expo)")
    assert ("src/shiftlab/rationals.py", skipped) in listed
    assert ("src/shiftlab/rationals.py", taken) not in listed
    assert f"src/shiftlab/rationals.py:{skipped}: v = abs(value)" in capsys.readouterr().out.splitlines()
