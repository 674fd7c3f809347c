"""The float filter in front of the exact weak-mixing decay certificate.

``criteria._uniform_decay_step`` decides each cell ratio mu(k + s, i) /
mu(k, i) against DECAY_TOL ** p in float logs where it can and leaves the
cells inside the filter's error band to rationals.LogGap.  These tests put
the largest ratio on the tolerance exactly or a few float ulps off it, in
the window phase and past n0, on either side, for masses inside and outside
the float range and for p past the float range, and check the step against
a closed form or the cell-by-cell reference.
"""

import decimal
import json
import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import MeasureSystem, Verdict, cli, criteria, measure_system, rationals, weak_mixing_consistency
from shiftlab.criteria import DECAY_TOL, _uniform_decay_step

from generators import random_fraction, random_system, uniform_decay_step_reference
from test_cli_contract import _decaying_window

ROOT = Path(__file__).resolve().parent.parent
TOL = Fraction(DECAY_TOL)
LEVEL_0 = range(0, 1)


def _tied(p, ratio: Fraction, steps: int, target: Fraction, side: str, window: int, scale=1) -> MeasureSystem:
    """One cell on the window [-window, window] with mu(0) = scale.  On the
    tied side(s) mu(-+j) = scale * target * ratio ** (j - steps), so the ratio
    of level 0 shifted by -+n is target * ratio ** (n - steps), and ratio is
    the tail there; the other side has mu(+-j) = scale * target * ratio **
    (2j - steps) and tail ratio ** 2, so it is below target from n = steps on."""
    def masses(square: bool) -> list[Fraction]:
        return [scale * target * ratio ** ((2 if square else 1) * j - steps) for j in range(1, window + 1)]

    left, right = masses(side == "right"), masses(side == "left")
    mu = {0: (Fraction(scale),)}
    mu.update({-j: (m,) for j, m in enumerate(left, 1)})
    mu.update({j: (m,) for j, m in enumerate(right, 1)})
    return MeasureSystem(
        p=Fraction(p), k_min=-window, k_max=window, cells=("B1",), mu=mu,
        left_tail=ratio**2 if side == "right" else ratio, right_tail=ratio**2 if side == "left" else ratio,
    )


def _expected_cell(side: str, n: int) -> tuple[int, int, int, int]:
    # level 0 is the only cell; the forward side fails at n - 1 wherever it is tied
    return n, 0, 0, (1 - n if side != "right" else n - 1)


SIDES = ["left", "right", "both"]
PHASES = ["window", "tail"]  # the tie at n = steps inside the window, or past n0 = 2


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("p, ratio, steps", [
    ("1", "1/2", 1), ("1", "1/3", 7), ("2", "2/3", 5), ("2", "3/4", 61), ("51", "1/2", 3), ("52", "3/4", 2),
])
def test_a_ratio_on_the_tolerance_is_decided_exactly(p, ratio, steps, side, phase):
    # the largest ratio at n = steps is DECAY_TOL ** p exactly, so the step
    # is steps; 2**-70 above it the step is steps + 1, 2**-70 below it steps.
    # DECAY_TOL ** 52 = 1e-312 is below the normal floats; its log is not
    ratio, window = Fraction(ratio), (steps + 3 if phase == "window" else 1)
    for bump, n in ((-1, steps), (0, steps), (1, steps + 1)):
        target = TOL ** Fraction(p).numerator * (1 + Fraction(bump, 2**70))
        system = _tied(p, ratio, steps, target, side, window)
        assert _uniform_decay_step(system, LEVEL_0) == _expected_cell(side, n)


def _power_of_tol(p: Fraction) -> Fraction:
    """DECAY_TOL ** p to 50 significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return Fraction((Decimal(TOL.numerator) / TOL.denominator) ** (Decimal(p.numerator) / p.denominator))


@pytest.mark.parametrize("scale", [1, 10**400], ids=["unit", "huge"])
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("ratio, steps, offset, phase", [
    ("1/2", 3, 1, "window"), ("2/3", 9, -1, "window"), ("3/4", 40, 12, "window"), ("1/3", 2, -12, "window"),
    ("1/2", 10, 4, "tail"), ("3/4", 4, -4, "tail"), ("3/4", 6, 1024, "tail"), ("1/3", 11, -1024, "tail"),
])
def test_a_ratio_inside_the_filter_band_goes_to_the_exact_path(ratio, steps, offset, phase, side, scale):
    # p = 3/2, where DECAY_TOL ** p is irrational: the largest ratio at n =
    # steps is DECAY_TOL ** p times 1 + offset * 2**-48.  Offsets of 1 to 12
    # sit inside the filter's band, about 2**-42 with unit masses and 2**-37
    # where the masses near 10**400 put the logs past 900; 1024 is outside
    # it with unit masses.  Past n0 the crossing is LogGap's at any offset.
    # The step is steps + 1 above the tolerance and steps below it
    p, ratio = Fraction(3, 2), Fraction(ratio)
    target = _power_of_tol(p) * (1 + Fraction(offset, 2**48))
    system = _tied(p, ratio, steps, target, side, steps + 3 if phase == "window" else 1, scale)
    assert _uniform_decay_step(system, LEVEL_0) == _expected_cell(side, steps + (offset > 0))


def _one_cell(p, tail: Fraction) -> MeasureSystem:
    return MeasureSystem(p=Fraction(p), k_min=0, k_max=0, cells=("B1",), mu={0: (Fraction(1),)},
                         left_tail=tail, right_tail=tail)


@pytest.mark.parametrize("p, tail", [
    ("1", Fraction(1, 2)), ("3/2", Fraction(1, 2)), ("1", Fraction(999, 1000)), ("3/2", Fraction(999, 1000)),
    ("1", 1 - Fraction(1, 10**12)), ("3/2", 1 - Fraction(1, 10**12)),
    ("1", 1 - Fraction(1, 10**400)), ("3/2", 1 - Fraction(1, 10**400)),
    ("52", Fraction(1, 2)), ("100", Fraction(1, 2)), ("1001/2", Fraction(1, 2)), ("1000001/2", Fraction(2, 3)),
    (str(10**400), Fraction(1, 2)),
])
def test_uniform_step_of_one_geometric_cell(p, tail):
    # masses tail ** |k| on every level, levels [-2, 2]: the largest ratio at
    # n >= 4 is mu(2 - n) / mu(2) = tail ** (n - 4), and it is >= 1 below, so
    # the step is 4 + ceil(p ln DECAY_TOL / ln tail), here in decimals with
    # room for the cancellation in ln tail and the digits of p.  No case is a
    # tie: no power of these tails is a rational power of DECAY_TOL
    system, p = _one_cell(p, tail), Fraction(p)
    report = weak_mixing_consistency(system)
    assert report.witness["levels"] == [-2, 2]
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * len(str(tail.denominator)) + len(str(p.numerator)) + 60
        ln_tail = Decimal(tail.numerator).ln() - Decimal(tail.denominator).ln()
        steps = Decimal(p.numerator) / p.denominator * Decimal(TOL.numerator).ln()
        steps = (steps - Decimal(TOL.denominator).ln() * Decimal(p.numerator) / p.denominator) / ln_tail
        expected = 4 + int(steps.to_integral_value(decimal.ROUND_CEILING))
    assert report.witness["uniform_step"] == expected
    assert report.witness["slowest_cell"] == {"level": 2, "cell": "B1", "direction": "forward"}


SUBNORMAL = (2**44 + Fraction(49, 100)) * Fraction(1, 2**1074)


@pytest.mark.parametrize("scale", [Fraction(1, 10**400), SUBNORMAL, Fraction(10**309), Fraction(10**400)],
                         ids=["tiny", "subnormal", "past_float_max", "huge"])
@pytest.mark.parametrize("bump", [-1, 0, 1])
def test_masses_outside_the_float_range_keep_exact_ties(scale, bump):
    # the window-phase tie of test_a_ratio_on_the_tolerance_is_decided_exactly
    # (p = 1, ratio 1/2, steps 5) with every mass times scale: below the
    # smallest float, subnormal (rounding to 2**-1030 loses 2.8e-14 of it),
    # past the largest; the ratios do not move, nor does the step
    target = TOL * (1 + Fraction(bump, 2**70))
    system = _tied("1", Fraction(1, 2), 5, target, "both", 8, scale)
    assert _uniform_decay_step(system, LEVEL_0) == _expected_cell("both", 5 + (bump > 0))


@pytest.mark.parametrize("bump", [-1, 1])
@pytest.mark.parametrize("k", [2, 3, 6, 20])
def test_a_side_that_clears_the_band_skips_no_step_it_fails(k, bump):
    # every one-step log difference of the column is ln 10**30 (L, less the
    # filter's bound), and the forward ratio mu(-n) / mu(0) rises by exactly
    # that a step from DECAY_TOL * 10**(-30(k - 1)) at n = 1: it clears the
    # band by (k - 1) L less a hair, enough to skip to n = k - 1 and no
    # further.  At n = k it is DECAY_TOL * (1 + bump * 2**-70); the inverse
    # ratio passes from n = k on.  So the step is k where bump < 0; where
    # bump > 0 the forward ratio fails from k until the tail 10**-30 brings
    # it down two steps past the window, at k + 3
    big = Fraction(10**30)
    c = TOL * (1 + Fraction(bump, 2**70)) / big**k
    mu = {0: (Fraction(1),)}
    mu.update({-j: (c * big**j,) for j in range(1, k + 2)})
    mu.update({j: (Fraction(1) if j < k else 1 / big,) for j in range(1, k + 1)})
    system = MeasureSystem(p=Fraction(1), k_min=-k - 1, k_max=k, cells=("B1",), mu=mu,
                           left_tail=1 / big, right_tail=Fraction(1, 2))
    n = k if bump < 0 else k + 3
    assert _uniform_decay_step(system, LEVEL_0) == (n, 0, 0, 1 - n if bump > 0 else n - 1)


def test_the_slowest_of_cells_within_the_filters_error_is_the_exact_argmax():
    # four cells whose ratios at n = 1 differ by a few 2**-60 of themselves,
    # below the float logs' resolution, on scales that round each log its own
    # way; past n0 = 2 only the largest is still above the tolerance at n = 5
    # (by 2**-62), so a crossing taken from any other cell comes one step early
    steps, ratio = 4, Fraction(1, 2)
    for seed in range(40):
        rng = random.Random(seed)
        offsets = rng.sample(range(-8, 9), 4)
        top = TOL * (1 + Fraction(1, 2**62)) / (1 + Fraction(max(offsets), 2**60)) / ratio**steps
        scales = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in offsets]
        mu = {0: tuple(scales), 1: tuple(s * TOL / 10**9 for s in scales),
              -1: tuple(s * top * (1 + Fraction(d, 2**60)) for s, d in zip(scales, offsets))}
        system = MeasureSystem(p=Fraction(1), k_min=-1, k_max=1, cells=("B1", "B2", "B3", "B4"), mu=mu,
                               left_tail=ratio, right_tail=Fraction(1, 2))
        assert _uniform_decay_step(system, LEVEL_0) == (steps + 2, 0, offsets.index(max(offsets)), -steps - 1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_wide_windows_match_the_cell_by_cell_reference(seed):
    # half spans up to 30, where a side that clears the band by a margin
    # skips the steps its Lipschitz bound covers
    system = random_system(random.Random(seed), max_half_span=30, max_cells=2,
                           tail_pool=(Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)))
    levels = range(system.k_min - 2, system.k_max + 3)
    assert _uniform_decay_step(system, levels)[0] == uniform_decay_step_reference(system, levels)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), digits=st.tuples(st.integers(1, 40), st.integers(1, 40)))
def test_near_1_tails_and_proportional_cells_match_the_cell_by_cell_reference(seed, digits):
    # tails 1 - 10**-k for k up to 40, and a cell B2 that is a fixed multiple of B1
    # on every level, so that the two ratios tie exactly at every shift: past
    # n0 top() compares exact ties.  The named cell is the first argmax in
    # (level, cell) order of the exact ratios at its shift, or, past n0, at
    # +-n0, as every ratio on a side falls by the same tail a step
    rng = random.Random(seed)
    base, scale = random_system(rng, max_half_span=6, max_cells=2), random_fraction(rng)
    system = MeasureSystem(
        p=base.p, k_min=base.k_min, k_max=base.k_max, cells=("B1", "B2", "B3")[:len(base.cells) + 1],
        mu={k: (row[0], scale * row[0], *row[1:]) for k, row in base.mu.items()},
        left_tail=1 - Fraction(1, 10 ** digits[0]), right_tail=1 - Fraction(1, 10 ** digits[1]),
    )
    levels = range(system.k_min - 2, system.k_max + 3)
    n, k, i, s = _uniform_decay_step(system, levels)
    assert n == uniform_decay_step_reference(system, levels)
    n0 = max(levels[-1] - system.k_min, system.k_max - levels[0]) + 1
    shift = s if abs(s) < n0 else n0 * (1 if s > 0 else -1)
    ratios = [(system.mu_cell(j + shift, c) / system.mu_cell(j, c), j, c)
              for j in levels for c in range(len(system.cells))]
    assert (k, i) == max(ratios, key=lambda ratio: ratio[0])[1:]


def test_near_1_tails_build_no_power(monkeypatch):
    # a decaying window of half-span 400 at p = 1 with a left tail t = 1 -
    # 10**-1500, and dyadic with both tails 1 - 10**-3000.  Past n0 = 803
    # the slowest ratio is t**803 at level -402; on dyadic, past n0 = 13, it
    # is 1/t at level 7.  The crossings are closed forms in ln DECAY_TOL (of
    # its binary value): 1 / -ln(1 - x) = 1/x - 1/2 - x/12 - ... for x =
    # 10**-digits, where the terms past 1/2 move no ceiling here.  Ratios
    # are compared as LogGap terms, so no Fraction power is built
    window = {**_decaying_window(400, 1), "p": "1", "tails": {"left": "0." + "9" * 1500, "right": "1/3"}}
    dyadic = {**json.loads((ROOT / "configs/dyadic.json").read_text()),
              "tails": {"left": "0." + "9" * 3000, "right": "0." + "9" * 3000}}
    with decimal.localcontext() as ctx:
        ctx.prec = 3060
        ln_tol = Decimal(TOL.numerator).ln() - Decimal(TOL.denominator).ln()

        def steps(digits: int) -> int:
            return int((-ln_tol * (Decimal(10) ** digits - Decimal("0.5"))).to_integral_value(decimal.ROUND_CEILING))

        cases = [(window, steps(1500), -402), (dyadic, 13 + 1 + steps(3000), 7)]
    powers, real = [], Fraction.__pow__
    for doc, n, level in cases:
        system = MeasureSystem.from_json(json.dumps(doc))
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__pow__", lambda *args: powers.append(args) or real(*args))
            witness = weak_mixing_consistency(system).witness
        assert powers == []
        assert witness["uniform_step"] == n
        assert witness["slowest_cell"] == {"level": level, "cell": "B1", "direction": "forward"}


def test_dyadic_builds_almost_no_exact_logs(monkeypatch):
    # every window step is decided in floats; the exact path builds the two
    # tail crossings at n0 and the check of the slowest cell's side, and
    # LogGap's float tier decides all three here, on decay32 too, with no
    # fixed-point log.  The float logs are one per window cell (the model's
    # table) and a constant per side: two for its tail run and five for its
    # crossing's LogGap, one per term (the built quotient of two window
    # pairs, a tail ratio per end past the window, the tolerance) and one
    # for the tail, not one per cell and tail entry
    built, counts = [], Counter()

    def counted(*args):
        built.append(args)
        return real(*args)

    def tally(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    real, float_log = criteria.LogGap, rationals._float_log
    monkeypatch.setattr(criteria, "LogGap", counted)
    monkeypatch.setattr(rationals, "_ln_fixed", tally("ln_fixed", rationals._ln_fixed))
    for module in (rationals, criteria, measure_system):
        monkeypatch.setattr(module, "_float_log", tally("float_log", float_log))
    for path in ("configs/dyadic.json", "tests/golden/decay32.json"):
        system = MeasureSystem.from_json((ROOT / path).read_text())
        built.clear(), counts.clear()
        assert weak_mixing_consistency(system).verdict is Verdict.SATISFIED
        assert len(built) <= 3
        assert counts["ln_fixed"] == 0
        cells = len(system.cells) * (system.k_max - system.k_min + 1)
        assert cells <= counts["float_log"] <= cells + 2 * 7


@pytest.mark.parametrize("path", ["configs/dyadic.json", "tests/golden/decay32.json"])
def test_report_leaves_mu_unbuilt(path):
    # the certificate reads its logs and exact ratios from the model's pairs
    system = MeasureSystem.from_json((ROOT / path).read_text())
    cli.render_json(cli.run_command("report", system, horizon=64, samples=100, eps=1e-2))
    assert "mu" not in vars(system)
    assert system.mu[0] == tuple(Fraction(*pair) for pair in system._rows[0])


def test_the_widening_of_theta_is_what_keeps_a_tight_filter_sound(monkeypatch):
    # theta = float(p) * math.log(DECAY_TOL) for p = 73/2 rounds 0.83 of an ulp
    # above p ln DECAY_TOL.  The forward ratio at n = 1 is a rational r with ln r
    # 0.7 of an ulp below theta, so above the tolerance, and N = 2.  With B
    # narrowed to f's own error on this model (f = l(r) - l(1), measured
    # against decimals: the least B that is sound here), only theta's 1 -+
    # 2**-49 widening sends r to the exact path; without it f + B < theta
    # would pass r, and N would be 1
    p = Fraction(73, 2)
    theta = float(p) * math.log(DECAY_TOL)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(p.numerator) / p.denominator * (Decimal(TOL.numerator).ln() - Decimal(TOL.denominator).ln())
        r = Fraction((Decimal(theta) - Decimal(0.7) * Decimal(math.ulp(theta))).exp())
        ln_r = Decimal(r.numerator).ln() - Decimal(r.denominator).ln()
        f = rationals._float_log(r)
        error = abs(Decimal(f) - ln_r)
        assert exact < ln_r < Decimal(theta) and Decimal(f) + error < Decimal(theta)
    system = MeasureSystem(p=p, k_min=-1, k_max=1, cells=("B1",), mu={-1: (r,), 0: (Fraction(1),), 1: (TOL**80,)},
                           left_tail=Fraction(1, 10**8), right_tail=Fraction(1, 2))
    init = criteria._LogTable.__init__

    def narrowed(self, *args):
        init(self, *args)
        self.bound = float(error)

    monkeypatch.setattr(criteria._LogTable, "__init__", narrowed)
    assert uniform_decay_step_reference(system, LEVEL_0) == 2
    assert _uniform_decay_step(system, LEVEL_0) == (2, 0, 0, -1)
