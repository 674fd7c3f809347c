"""Byte lock on the ``report`` documents.

The files under ``tests/golden/`` are the JSON and CSV output of
``shiftlab report --seed 5`` for the three sample configs and one flat
half-span-20 window (``wide020.json``, tails 1/2 and 1), on which
``menet_unilateral`` enumerates.  Refactors must reproduce them exactly.
"""

import contextlib
import io
from pathlib import Path

import pytest

from shiftlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = {
    "dyadic": ROOT / "configs" / "dyadic.json",
    "flat": ROOT / "configs" / "flat.json",
    "window_only": ROOT / "configs" / "window_only.json",
    "wide020": GOLDEN / "wide020.json",
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden_bytes(name, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["report", "--config", str(CONFIGS[name]), "--seed", "5", "--output", fmt])
    assert code == 0
    assert buf.getvalue() == (GOLDEN / f"{name}.report.{fmt}").read_text()
