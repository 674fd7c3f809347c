"""Property tests of the exit-code contract: whatever the command, flags and
valid config, ``main`` returns 0, 2, 3 or 64, never raises, and writes strict
JSON.  Exit 1 means a certified identity failed, which no input may cause."""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.cli import COMMANDS, main
from shiftlab.measure_system import MeasureSystem
from shiftlab.sampling import P_POOL

from generators import near_1_tails_draw, random_system

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


_eps = st.one_of(
    st.floats(min_value=1e-6, max_value=1.0).map(repr),
    st.sampled_from(["1e-2", "0.5", "0", "-0.5", "nan", "inf", "-inf", "abc"]),
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    config=st.sampled_from(["dyadic", "flat", "window_only"]),
    seed=st.one_of(st.integers(min_value=0, max_value=2**32), st.sampled_from([-1, 2**64 - 1, 2**64])),
    samples=st.integers(min_value=-1, max_value=5),
    horizon=st.integers(min_value=-1, max_value=40),
    eps=_eps,
    strict=st.booleans(),
)
def test_exit_codes_and_strict_json(command, config, seed, samples, horizon, eps, strict):
    argv = [
        command, "--config", str(CONFIGS / f"{config}.json"),
        "--seed", str(seed), "--samples", str(samples),
        "--horizon", str(horizon), "--eps", eps,
    ]
    if strict:
        argv.append("--strict")
    code, out, _ = _run(argv)
    assert code in (0, 2, 3, 64)
    if code in (0, 3):
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["command"] == command
    else:
        assert out == ""


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_report_exits_0_on_generated_configs(seed):
    system = random_system(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "system.json"
        config.write_text(system.to_json())
        code, out, _ = _run(["report", "--config", str(config), "--samples", "3"])
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["command"] == "report"


# masses from 10**-321 to 10**321, tails within 10**-1 to 10**-6 of 1 on
# either side, p up to 1000001/2: meetings of the tail terms far past the
# window, and values and coefficient powers far outside the float range;
# p = 1000001/2 has exact powers of millions of digits, kept as logs
_large_p = (Fraction(301, 3), Fraction(801, 2), Fraction(1001, 2), Fraction(1000001, 2))
_masses = st.builds(lambda m, e: Fraction(m) * Fraction(10) ** e,
                    st.integers(1, 9), st.integers(-321, 321))
_tails = st.builds(lambda sign, m, d: 1 + sign * Fraction(m, 10**d),
                   st.sampled_from([-1, 1]), st.integers(1, 9), st.integers(1, 6))


@st.composite
def _extreme_systems(draw):
    levels = range(-draw(st.integers(0, 3)), draw(st.integers(0, 3)) + 1)
    cells = draw(st.integers(1, 2))
    return MeasureSystem(
        p=draw(st.sampled_from(P_POOL + _large_p)),
        k_min=levels.start, k_max=levels.stop - 1,
        cells=tuple(f"B{i + 1}" for i in range(cells)),
        mu={k: tuple(draw(_masses) for _ in range(cells)) for k in levels},
        left_tail=draw(_tails), right_tail=draw(_tails),
    )


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(system=_extreme_systems(), command=st.sampled_from(["criteria", "report"]))
def test_extreme_configs_exit_0_within_the_deadline(system, command):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "system.json"
        config.write_text(system.to_json())
        code, out, _ = _run([command, "--config", str(config), "--samples", "3"])
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["command"] == command


# mutations of configs/dyadic.json that no config may pass: a required field
# dropped; a field given a JSON type it may not take (ints are rationals, and
# a null "tails" means no tails, so neither is a wrong type there); a level
# key spelled off the canonical str(int) form, renamed or beside the right
# one; a JSON integer past the 4300-digit int-string limit where no integer
# is valid; nesting up to 100,000 deep; a declared window of up to 10**6
# levels with the 11 rows of the original; a name written twice in one
# object, at the top level or among the mu levels, with its own value or
# another's
_DYADIC = json.loads((CONFIGS / "dyadic.json").read_text())
_REQUIRED = [("window",), ("cells",), ("mu",), ("window", "min"), ("window", "max"), ("cells", 0),
             ("mu", "2"), ("mu", "-5", 0), ("tails", "left"), ("tails", "right")]
_RATIONAL, _LIST = "float bool null list dict", "float bool null int str dict"
_WRONG_TYPES = {
    ("p",): _RATIONAL, ("mu", "2", 0): _RATIONAL, ("tails", "left"): _RATIONAL, ("tails", "right"): _RATIONAL,
    ("window",): "float bool null int str list", ("mu",): "float bool null int str list",
    ("tails",): "float bool int str list",
    ("window", "min"): "float bool null str list dict", ("window", "max"): "float bool null str list dict",
    ("cells",): _LIST, ("mu", "2"): _LIST, ("cells", 0): "float bool null int list dict",
}
_NO_INTEGER = [path for path, types in _WRONG_TYPES.items() if "int" in types]
_VALUES = {
    "float": st.floats(), "bool": st.booleans(), "null": st.none(), "int": st.integers(),
    "str": st.text(max_size=4), "list": st.lists(st.integers(), max_size=2),
    "dict": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}
_SPELLINGS = [
    lambda s: "-0" + s[1:] if s[0] == "-" else "0" + s,
    lambda s: "+" + s,
    lambda s: " " + s,
    lambda s: s + "\n",
    lambda s: s + "_0",
    lambda s: s.translate(str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))),  # fullwidth
]
_SLOT = "__slot__"


def _at(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


@st.composite
def _broken_configs(draw):
    doc = copy.deepcopy(_DYADIC)
    kind = draw(st.sampled_from(["drop", "retype", "key", "big_integer", "nesting", "window", "repeat"]))
    if kind == "drop":
        parent, key = _at(doc, draw(st.sampled_from(_REQUIRED)))
        del parent[key]
    elif kind == "retype":
        path = draw(st.sampled_from(list(_WRONG_TYPES)))
        parent, key = _at(doc, path)
        parent[key] = draw(st.one_of(*(_VALUES[t] for t in _WRONG_TYPES[path].split())))
    elif kind == "key":
        level = draw(st.sampled_from(sorted(doc["mu"])))
        row = doc["mu"][level] if draw(st.booleans()) else doc["mu"].pop(level)
        doc["mu"][draw(st.sampled_from(_SPELLINGS))(level)] = row
    elif kind == "window":
        side, sign = draw(st.sampled_from([("max", 1), ("min", -1)]))
        doc["window"][side] = sign * draw(st.integers(6, 10**6 - 6))
    elif kind == "repeat":
        inner = draw(st.booleans())
        obj = doc["mu"] if inner else doc
        name, value = draw(st.sampled_from(sorted(obj))), draw(st.sampled_from(list(obj.values())))
        repeated = json.dumps(obj)[:-1] + f", {json.dumps(name)}: {json.dumps(value)}}}"
        if inner:
            doc["mu"] = _SLOT
        else:
            doc = _SLOT
    else:
        paths = _NO_INTEGER if kind == "big_integer" else list(_WRONG_TYPES) + [None]
        path = draw(st.sampled_from(paths))
        if path is None:
            doc = _SLOT
        else:
            parent, key = _at(doc, path)
            parent[key] = _SLOT
    text = json.dumps(doc)
    if kind == "big_integer":
        digits = draw(st.sampled_from("123456789")) * draw(st.integers(4301, 6000))
        text = text.replace(f'"{_SLOT}"', "-" * draw(st.booleans()) + digits)
    elif kind == "nesting":
        depth = draw(st.integers(1, 100_000))
        text = text.replace(f'"{_SLOT}"', "[" * depth + "]" * depth)
    elif kind == "repeat":
        text = text.replace(f'"{_SLOT}"', repeated)
    return kind, text


@settings(max_examples=300, deadline=None)
@given(case=_broken_configs(), command=st.sampled_from(COMMANDS))
def test_broken_configs_exit_2_with_one_line(case, command):
    kind, text = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "system.json"
        config.write_text(text)
        code, out, err = _run([command, "--config", str(config)])
    assert (code, out) == (2, ""), (kind, err)
    assert err.startswith("shiftlab: invalid config: ") and err.count("\n") == 1 and err.endswith("\n")


def _shiftlab_subprocess(tmp_path, doc, argv, timeout):
    """``python -m shiftlab argv --config doc`` from this checkout's src/, killed after ``timeout`` seconds."""
    config = tmp_path / "system.json"
    config.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "shiftlab", *argv, "--config", str(config)],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _decaying_window(half_span: int, cells: int) -> dict:
    """Level masses 3**-|k| to the left of level 0 and 2**-|k| to its right,
    split at random into cells (random.Random(half_span)), tails 1/3 and 1/2,
    p = 2: for hundreds of steps one side has decayed and the other has not,
    so every step checks every cell on the side that has."""
    rng = random.Random(half_span)

    def row(k: int) -> list[str]:
        shares = [rng.randint(1, 5) for _ in range(cells)]
        return [str(Fraction(s, sum(shares) * (3 if k < 0 else 2) ** abs(k))) for s in shares]

    return {"p": "2", "window": {"min": -half_span, "max": half_span}, "cells": [f"B{i + 1}" for i in range(cells)],
            "mu": {str(k): row(k) for k in range(-half_span, half_span + 1)}, "tails": {"left": "1/3", "right": "1/2"}}


# configs/dyadic.json with one value that once stalled report for seconds or
# more: p just above 1, whose weight roots were taken after a millionth
# power; decimal exponents, whose 10**|e| Fraction(str) built in full; a
# left tail of 1e-4000, whose cell masses leave the float range, where the
# sampled decay search summed exact Fraction totals of millions of bits;
# and both tails 1 - 10**-3000, whose crossings took LogGap logs at about
# 20,000 bits once per sample.  And one whole config: a decaying window of
# half-span 400 with 4 cells, where the uniform decay step's window phase
# takes tens of seconds without its float filter; and both tails 1 - 10**-400
# on a window of half-span 400, where conditionmix's _sup_inf once built
# cap ** ((n + 1) // period) afresh for each of its 800 values of n, cap
# within 10**-400 of 1; and at p = 1, a left tail 1 - 10**-1500 on that
# window, where past n0 the uniform decay step built every cell ratio's tail
# power and took a max over ratios of millions of bits; and tails 1 - 10**-960
# and 1 - 10**-1870 past a 4-cell window of half-span 400 at p = 3/2, where
# conditionmix built each side's infimum just past the span, a tail's power
# up to the 801st, only to compare the two
_NINES = "0." + "9" * 3000
_HOSTILE = [
    pytest.param(("p",), "1000001/1000000", (0, 2), id="p_near_1"),
    pytest.param(("p",), "1e9999999", (2,), id="p_exponent"),
    pytest.param(("mu", "2", 0), "1e200000", (2,), id="mass_exponent"),
    pytest.param(("tails", "left"), "1e-9999999", (2,), id="negative_exponent"),
    pytest.param(("tails", "left"), "1e-4000", (0,), id="tail_below_float_range"),
    pytest.param(("tails",), {"left": _NINES, "right": _NINES}, (0,), id="tails_1_minus_1e-3000"),
    pytest.param((), _decaying_window(400, 4), (0,), id="decaying_half_span_400"),
    pytest.param((), {**_decaying_window(400, 1), "tails": {"left": "0." + "9" * 400, "right": "0." + "9" * 400}},
                 (0,), id="tails_1_minus_1e-400_half_span_400"),
    pytest.param((), {**_decaying_window(400, 1), "p": "1", "tails": {"left": "0." + "9" * 1500, "right": "1/3"}},
                 (0,), id="left_tail_1_minus_1e-1500_half_span_400"),
    pytest.param((), near_1_tails_draw(400), (0,), id="conditionmix_near_1_tails_half_span_400"),
]


@pytest.mark.parametrize("path, value, codes", _HOSTILE)
def test_hostile_values_end_in_a_subprocess_within_2_s(tmp_path, path, value, codes):
    doc = copy.deepcopy(_DYADIC) if path else value
    if path:
        parent, key = _at(doc, path)
        parent[key] = value
    proc = _shiftlab_subprocess(tmp_path, doc, ["report"], timeout=2)
    assert proc.returncode in codes, proc.stderr
    if proc.returncode == 2:
        assert proc.stdout == "" and proc.stderr.startswith("shiftlab: invalid config: ")
        assert proc.stderr.count("\n") == 1


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
# tails near 1 are drawn at every half-span: menet's cap crossing reads its
# best as the argmin block's terms, so its tie test factors the tail's period
# product, where it once factored a supremum of millions of bits, for minutes
# on a window of half-span 882 at p = 2 with a right tail 1 + 10**-2800


def _decimal_exponent(draw, signs=(-1, 1)) -> str:
    return f"{draw(st.integers(1, 9))}e{draw(st.sampled_from(signs)) * draw(st.integers(1, _DIGIT_LIMIT))}"


@st.composite
def _hostile_configs(draw):
    """A config on the hostile axes: a wide window (half-span up to 2000, up
    to 4 cells) or many cells (up to 64, half-span up to 3), level masses
    r / 2**|k| or r / 3**|k| with up to three replaced by decimal exponents
    up to the digit limit; each tail tame, a decimal exponent, or within
    10**-k of 0 or of 1 (k <= 3000); p tame, a decimal exponent, or
    (d + 1)/d with d up to 10**40."""
    wide = draw(st.booleans())
    half_span = draw(st.integers(0, 2000)) if wide else draw(st.integers(0, 3))
    cells = draw(st.integers(1, 4)) if wide else draw(st.integers(1, 64))
    rng, base = random.Random(draw(st.integers(0, 2**32))), draw(st.sampled_from([2, 3]))
    mu = {str(k): [str(Fraction(rng.randint(1, 5), base ** abs(k))) for _ in range(cells)]
          for k in range(-half_span, half_span + 1)}
    for _ in range(draw(st.integers(0, 3))):
        mu[str(draw(st.integers(-half_span, half_span)))][draw(st.integers(0, cells - 1))] = _decimal_exponent(draw)

    def tail() -> str:
        kind = draw(st.sampled_from(["tame", "exponent", "near_0", "near_1"]))
        if kind == "tame":
            return draw(st.sampled_from(["1/3", "1/2", "2"]))
        if kind == "exponent":
            return _decimal_exponent(draw)
        k = draw(st.integers(1, 3000))
        return f"1e-{k}" if kind == "near_0" else str(1 + draw(st.sampled_from([-1, 1])) * Fraction(1, 10**k))

    kind = draw(st.sampled_from(["tame", "exponent", "near_1"]))
    if kind == "tame":
        p = draw(st.sampled_from(["1", "2", "3/2"]))
    elif kind == "exponent":
        p = _decimal_exponent(draw, signs=(1,))
    else:
        d = draw(st.integers(1, 10**40))
        p = f"{d + 1}/{d}"
    return {"p": p, "window": {"min": -half_span, "max": half_span}, "cells": [f"B{i + 1}" for i in range(cells)],
            "mu": mu, "tails": {"left": tail(), "right": tail()}}


@settings(max_examples=25, derandomize=True, deadline=None)
@given(doc=_hostile_configs())
def test_hostile_configs_end_in_a_subprocess_within_5_s(tmp_path_factory, doc):
    proc = _shiftlab_subprocess(tmp_path_factory.mktemp("hostile"), doc, ["report"], timeout=5)
    assert proc.returncode in (0, 2), proc.stderr


def test_a_long_orbit_on_near400_ends_in_a_subprocess_within_2_s(tmp_path):
    # near400's weight blocks are exact pairs of hundreds of digits: the
    # orbit folds them part by part, each gcd of two reduced entries; with
    # a gcd of the two unreduced products instead it took 9 s on a 2-core VM
    doc = json.loads((Path(__file__).resolve().parent / "golden" / "near400.json").read_text())
    proc = _shiftlab_subprocess(tmp_path, doc, ["orbit", "--horizon", "2000"], timeout=2)
    assert proc.returncode == 0, proc.stderr


def test_tails_within_10_to_the_minus_1800_of_1_end_within_5_s(tmp_path):
    # the tail crossings lie near 10**1800 steps, so LogGap takes logs at
    # about 12,000 bits, where decimal logs once took 28 s on a 2-core VM
    tail = "0." + "9" * 1800
    doc = {"cells": ["B1"], "mu": {"0": ["1"], "1": ["1/100"], "2": ["1"]}, "p": "1",
           "tails": {"left": tail, "right": tail}, "window": {"min": 0, "max": 2}}
    proc = _shiftlab_subprocess(tmp_path, doc, ["criteria", "--samples", "0"], timeout=5)
    assert proc.returncode == 0, proc.stderr
