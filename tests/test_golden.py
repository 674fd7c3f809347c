"""Byte lock on the ``report`` documents.

The files under ``tests/golden/`` are the JSON and CSV output of
``shiftlab report --seed 5`` for the three sample configs, three flat
4-cell windows, on which ``menet_unilateral`` enumerates at length:

- ``wide020.json``: half-span 20, p = 1, tails 1/2 and 1;
- ``wide100.json``: half-span 100, p = 3/2, tails 1/2 and 3/2;
- ``wide200.json``: half-span 200, p = 1, tails 1/2 and 1;

and two decaying windows, on which the weak-mixing decay search runs
through float coefficient powers and inexact roots:

- ``decay32.json``: half-span 6, p = 3/2, 3 cells, tails 1/2 and 1/3;
- ``decay2.json``: half-span 8, p = 2, 4 cells, tails 1/3 and 1/2;

and ``near400.json``, the window [0, 2] with one cell, masses 1, 1/100, 1,
p = 1 and both tails 1 - 10**-400, on which the weak-mixing tail steps and
the conditionmix supremum are crossings of ``rationals.LogGap`` near
10**400 steps.

The flat windows' masses are drawn by perfbench's flat-window generator and
the decaying ones by its decaying-window generator, each from
``random.Random(half_span)``.  Refactors must reproduce them exactly.

``*.orbit2000.json`` lock the ``orbit --horizon 2000 --seed 5`` documents of
``dyadic`` and ``wide020``, so the orbit experiment is pinned over a long
run as well as at the default horizon inside ``report``.

Every other subcommand is locked to the same files: its JSON sections are
those of the ``report`` document, and its CSV rows appear in the ``report``
CSV in the same order.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from shiftlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = {
    "decay2": GOLDEN / "decay2.json",
    "decay32": GOLDEN / "decay32.json",
    "dyadic": ROOT / "configs" / "dyadic.json",
    "flat": ROOT / "configs" / "flat.json",
    "near400": GOLDEN / "near400.json",
    "window_only": ROOT / "configs" / "window_only.json",
    "wide020": GOLDEN / "wide020.json",
    "wide100": GOLDEN / "wide100.json",
    "wide200": GOLDEN / "wide200.json",
}


def _run(command, name, fmt, *flags):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, "--config", str(CONFIGS[name]), "--seed", "5", "--output", fmt, *flags])
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden_bytes(name, fmt):
    assert _run("report", name, fmt) == (GOLDEN / f"{name}.report.{fmt}").read_text()


def _canonical(section):
    # compare encodings, not parsed values, so that -0.0 and 0.0, or 1 and
    # 1.0, do not pass for each other
    return json.dumps(section, sort_keys=True)


@pytest.mark.parametrize("command", ["validate", "weights", "criteria", "semicheck", "orbit"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_subcommand_json_sections_match_the_report_golden(name, command):
    doc = json.loads(_run(command, name, "json"))
    report = json.loads((GOLDEN / f"{name}.report.json").read_text())
    assert doc.pop("command") == command
    assert set(doc) <= set(report)
    for key, section in doc.items():
        assert _canonical(section) == _canonical(report[key]), key


@pytest.mark.parametrize("command", ["validate", "weights", "criteria", "semicheck", "orbit"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_subcommand_csv_rows_appear_in_the_report_golden_in_order(name, command):
    rows = iter((GOLDEN / f"{name}.report.csv").read_text().splitlines())
    for row in _run(command, name, "csv").splitlines():
        assert row in rows, row  # consumes the golden rows up to the match


@pytest.mark.parametrize("name", ["dyadic", "wide020"])
def test_orbit_matches_golden_bytes_at_horizon_2000(name):
    assert _run("orbit", name, "json", "--horizon", "2000") == (GOLDEN / f"{name}.orbit2000.json").read_text()
