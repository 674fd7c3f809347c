"""The float filter in front of the exact weak-mixing decay predicate.

Wherever the filter decides a step it must say what the exact predicate
says, so ``_first_decay_step`` is played against a copy of the exact loop,
on random systems and on systems whose totals sit on DECAY_TOL ** p or a
few ulps off it.
"""

import math
import random
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import MeasureSystem, StepFunction
from shiftlab import criteria
from shiftlab.criteria import DECAY_TOL, Verdict, _DecaySearch, _first_decay_step, weak_mixing_consistency
from shiftlab.lp_space import is_exact, lp_powers, shifted_power_sum
from shiftlab.sampling import random_step_function

from generators import random_system

DECAYING_TAILS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def _exact_first_decay_step(system: MeasureSystem, phi: StepFunction) -> int:
    """The exact predicate at every step, forward then inverse, with no
    filter and no closed form."""
    powers = lp_powers(system, phi)
    p = system.p
    tol_x = Fraction(DECAY_TOL) ** p.numerator
    log_bound = p * Fraction(math.log(DECAY_TOL))

    def above(shift):
        total = shifted_power_sum(system, powers, shift)
        return total**p.denominator > tol_x if is_exact(powers) else total > log_bound

    return next(n for n in count(1) if not above(-n) and not above(n))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_filtered_search_matches_the_exact_loop_on_random_systems(seed):
    rng = random.Random(seed)
    system = random_system(rng, tail_pool=DECAYING_TAILS)
    phi = random_step_function(rng, system)
    if phi.is_zero():
        return
    assert _first_decay_step(system, phi) == _exact_first_decay_step(system, phi)


def _at_threshold(p: Fraction, coeffs: list[Fraction], shares: list[int], target: Fraction):
    """One level-0 coefficient per cell on the window [-1, 1] with tails 1/2,
    and level-1 masses that bring the inverse total at n = 1 to target:
    exactly where every power is exact, else to within a few ulps.  The
    level -1 masses are 10**-9 of those, so the forward norm decays at
    n = 1 and the answer is 1 or 2."""
    powers = [a for _, _, a in lp_powers(_one_level(p, len(coeffs)), StepFunction(
        {(0, i): v for i, v in enumerate(coeffs)}))]
    weights = [s * target / sum(shares) for s in shares]
    if all(isinstance(a, Fraction) for a in powers):
        top = [w / a for w, a in zip(weights[:-1], powers)]
        top.append((target - sum(a * m for a, m in zip(powers, top))) / powers[-1])
    else:
        top = [w / (a if isinstance(a, Fraction) else Fraction(math.exp(float(p) * a)))
               for w, a in zip(weights, powers)]
    system = MeasureSystem(
        p=p, k_min=-1, k_max=1, cells=tuple(f"B{i + 1}" for i in range(len(coeffs))),
        mu={-1: tuple(m / 10**9 for m in top), 0: (Fraction(1),) * len(coeffs), 1: tuple(top)},
        left_tail=Fraction(1, 2), right_tail=Fraction(1, 2),
    )
    return system, StepFunction({(0, i): v for i, v in enumerate(coeffs)})


def _one_level(p: Fraction, cells: int) -> MeasureSystem:
    return MeasureSystem(p=p, k_min=0, k_max=0, cells=tuple(f"B{i + 1}" for i in range(cells)),
                         mu={0: (Fraction(1),) * cells}, left_tail=Fraction(1, 2), right_tail=Fraction(1, 2))


def _near(p: Fraction, where: str, step: int) -> Fraction:
    """DECAY_TOL ** p moved by step * 2**-70 of itself (p an integer), a
    bracket end moved by step float ulps, or t_lo moved by step * 2**-50 of
    itself, past the filter's error for exact totals but inside the
    log-sum-exp's for large logs."""
    t_lo, t_hi = _DecaySearch(_one_level(p, 1)).bracket
    if where == "exact":
        return Fraction(DECAY_TOL) ** p.numerator * (1 + Fraction(step, 2**70))
    if where == "relative":
        return Fraction(t_lo) * (1 + Fraction(step * 16, 2**50))
    t = t_lo if where == "lo" else t_hi
    for _ in range(abs(step)):
        t = math.nextafter(t, math.inf if step > 0 else 0)
    return Fraction(t)


@st.composite
def _threshold_cases(draw):
    p = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]))
    cells = draw(st.integers(1, 4))
    logs = p == Fraction(3, 2) and draw(st.booleans())
    # up to 10**180, where p * log|v| passes 600 and the masses near 1e-270
    scale = Fraction(10) ** (2 * draw(st.sampled_from([0, 0, 25, 60, 90])))
    sign = draw(st.sampled_from([1, -1]))
    coeffs = []
    for _ in range(cells):
        n, d = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        # a square keeps the power of 3/2 exact; 2 * a square never is
        v = Fraction(n * n, d * d) if p == Fraction(3, 2) else Fraction(n, d)
        coeffs.append(sign * scale * v * (2 if logs and draw(st.booleans()) else 1))
    if logs:
        coeffs[0] *= 2
    shares = [draw(st.integers(1, 9)) for _ in range(cells)]
    where = draw(st.sampled_from(["lo", "hi", "relative"] + (["exact"] if p.denominator == 1 else [])))
    target = _near(p, where, draw(st.integers(-4, 4)))
    return _at_threshold(p, coeffs, shares, target)


@settings(max_examples=300, deadline=None)
@given(case=_threshold_cases())
def test_filtered_search_matches_the_exact_loop_at_the_threshold(case):
    system, phi = case
    assert _first_decay_step(system, phi) == _exact_first_decay_step(system, phi)


@pytest.mark.parametrize("coeffs, shares, step, answer", [
    ([128], [4], 2, 1),
    ([Fraction(32, 9)], [8], 2, 1),
    ([Fraction(32, 49)], [8], 1, 1),
    ([Fraction(81, 2), Fraction(25, 4), Fraction(2, 9)], [9, 2, 9], -1, 2),
], ids=["one_term_above", "one_term_above_2", "one_term_above_3", "three_terms_below"])
def test_log_totals_within_the_log_sum_exps_error_go_to_the_exact_path(coeffs, shares, step, answer):
    # p = 3/2, coefficients near 10**180 (so p * log|v| is about 630) and
    # masses near 1e-9 / e**630: the log-sum-exp rounds the log of such a
    # mass, about -650, to 2**-44, so the log total the exact path compares
    # with log_bound can sit on the other side of it than the real total,
    # here step * 2**-46 away from t_lo; the answer is the exact path's
    p = Fraction(3, 2)
    coeffs = [c * Fraction(10) ** 180 for c in coeffs]
    system, phi = _at_threshold(p, coeffs, shares, _near(p, "relative", step))
    assert _exact_first_decay_step(system, phi) == answer
    assert _first_decay_step(system, phi) == answer


@pytest.mark.parametrize("p", ["1", "2", "3/2", "7/3", "51"])
def test_the_bracket_holds_the_threshold_exactly(p):
    p = Fraction(p)
    t_lo, t_hi = _DecaySearch(_one_level(p, 1)).bracket
    tol_x = Fraction(DECAY_TOL) ** p.numerator
    assert Fraction(t_lo) ** p.denominator <= tol_x <= Fraction(t_hi) ** p.denominator
    # adjacent floats, one float where DECAY_TOL ** p is one
    assert t_hi == t_lo if p == 1 else t_hi == math.nextafter(t_lo, math.inf)


@pytest.mark.parametrize("p", ["52", "100", "1001/2", "1000001/2", str(10**400)])
def test_no_bracket_where_the_threshold_leaves_the_normal_range(p):
    # DECAY_TOL ** 52 = 1e-312 is subnormal; the filter is off
    search = _DecaySearch(_one_level(Fraction(p), 1))
    assert search.bracket is None
    phi = StepFunction({(0, 0): Fraction(1)})
    assert search.float_test(lp_powers(search.system, phi), True)(1) is None


def test_subnormal_masses_are_left_to_the_exact_path():
    # the level-1 mass (2**44 + 49/100) * 2**-1074 is subnormal and rounds
    # to 2**-1030, 2.8e-14 too low; the coefficient brings the inverse total
    # at n = 1 to DECAY_TOL * (1 + 1e-14), above the tolerance, so the
    # answer is 2
    tiny = (2**44 + Fraction(49, 100)) * Fraction(1, 2**1074)
    coeff = Fraction(DECAY_TOL) * (1 + Fraction(1, 10**14)) / tiny
    system = MeasureSystem(p=Fraction(1), k_min=-1, k_max=1, cells=("B1",),
                           mu={-1: (Fraction(1, 10**400),), 0: (Fraction(1),), 1: (tiny,)},
                           left_tail=Fraction(1, 2), right_tail=Fraction(1, 2))
    phi = StepFunction({(0, 0): coeff})
    assert _exact_first_decay_step(system, phi) == 2
    assert _first_decay_step(system, phi) == 2


@settings(max_examples=300, deadline=None)
@example(  # four products of 2**-1074 / 3 each round to 0.0; their sum is above t_lo
    powers=[(k, 1, -474) for k in range(-2, 2)], masses=[(1, -600)] * 5, bracket=(1, -1074, 0))
@given(
    powers=st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 2**60), st.integers(-1100, 60)),
                    min_size=1, max_size=6),
    masses=st.lists(st.tuples(st.integers(1, 2**60), st.integers(-1100, 60)), min_size=5, max_size=5),
    bracket=st.tuples(st.integers(1, 2**60), st.integers(-1120, -20), st.integers(0, 3)),
)
def test_the_float_test_never_misplaces_an_exact_total(powers, masses, bracket):
    # against any bracket, down to subnormal ones: True only where the
    # exact total is below t_lo, False only where it is above t_hi.  The
    # terms and masses reach below the float range, so products underflow
    m, e, gap = bracket
    t_lo = math.ldexp(float(m), e)
    if t_lo == 0.0:
        return
    t_hi = t_lo
    for _ in range(gap):
        t_hi = math.nextafter(t_hi, math.inf)
    mu = {k: (Fraction(n) * Fraction(2) ** e_,) for k, (n, e_) in zip(range(-2, 3), masses)}
    system = MeasureSystem(p=Fraction(1), k_min=-2, k_max=2, cells=("B1",), mu=mu,
                           left_tail=Fraction(1, 2), right_tail=Fraction(1, 2))
    coeffs = {}
    for k, n, e_ in powers:
        coeffs[(k, 0)] = coeffs.get((k, 0), 0) + Fraction(n, 3) * Fraction(2) ** e_
    phi = StepFunction(coeffs)
    if phi.is_zero():
        return
    search = _DecaySearch(system)
    search.bracket = (t_lo, t_hi)
    pw = lp_powers(system, phi)
    test = search.float_test(pw, True)
    for shift in (-1, 0, 1):
        total = shifted_power_sum(system, pw, shift)
        verdict = test(shift)
        if verdict is True:
            assert total < Fraction(t_lo)
        elif verdict is False:
            assert total > Fraction(t_hi)


@pytest.mark.parametrize("p, ratio, steps", [
    ("1", "1/2", 1), ("1", "1/2", 9), ("1", "1/3", 7), ("2", "2/3", 5), ("2", "3/4", 3), ("2", "3/4", 61),
])
def test_the_tail_step_is_exact_where_a_total_lands_on_the_threshold(p, ratio, steps):
    # one cell at level 0 with mass 1 and both tails ratio: the total at
    # n0 = 1 is DECAY_TOL ** p / ratio ** steps, so it equals DECAY_TOL ** p,
    # and has decayed, exactly `steps` tail steps later.  From float logs
    # the closed form put all but the 1/3 case one step late
    p, ratio = Fraction(p), Fraction(ratio)
    power = Fraction(DECAY_TOL) ** p.numerator / ratio ** (steps + 1)
    coeff = power if p == 1 else Fraction(math.isqrt(power.numerator), math.isqrt(power.denominator))
    assert coeff**p == power
    system = MeasureSystem(p=p, k_min=0, k_max=0, cells=("B1",), mu={0: (Fraction(1),)},
                           left_tail=ratio, right_tail=ratio)
    phi = StepFunction({(0, 0): coeff})
    assert _exact_first_decay_step(system, phi) == 1 + steps
    assert _first_decay_step(system, phi) == 1 + steps


# -- the float tail crossing at n0 ---------------------------------------------


def _closed_form_first_decay_step(system: MeasureSystem, phi: StepFunction) -> int:
    """The search with no float filter: the exact predicate at each step
    while the support meets the window, then _DecaySearch.tail_steps from
    the exact or log total at n0."""
    search = _DecaySearch(system)
    powers = lp_powers(system, phi)
    exact = is_exact(powers)

    def above(shift):
        total = shifted_power_sum(system, powers, shift)
        return total if (total**system.p.denominator > search.tol_x if exact else total > search.log_bound) else None

    levels = [k for k, _, _ in powers]
    n0 = max(max(levels) - system.k_min, system.k_max - min(levels)) + 1
    for n in range(1, n0):
        if above(-n) is None and above(n) is None:
            return n
    totals = [(above(shift), ratio) for shift, ratio in ((-n0, system.left_tail), (n0, system.right_tail))]
    return n0 + max([search.tail_steps(t, exact, r) for t, r in totals if t is not None], default=0)


def _tail_tie(p, coeffs, ratio, steps, target, side):
    """One level-0 coefficient per cell on the window [0, 0] (so n0 = 1),
    with masses that bring the total at n0 on the given side to target /
    ratio ** steps: exactly where every power is exact, else to within a
    few ulps.  That side's tail is ratio; the other side's is ratio ** 2,
    or ratio too where side is "both"."""
    phi = StepFunction({(0, i): v for i, v in enumerate(coeffs)})
    powers = [a for _, _, a in lp_powers(_one_level(p, len(coeffs)), phi)]
    goal = target / ratio ** (steps + 1)
    shares = [goal * (i + 1) / sum(range(1, len(coeffs) + 1)) for i in range(len(coeffs))]
    mu0 = [s / (a if isinstance(a, Fraction) else Fraction(math.exp(float(p) * a))) for s, a in zip(shares, powers)]
    other = ratio if side == "both" else ratio**2
    left, right = (ratio, other) if side == "left" else (other, ratio)
    system = MeasureSystem(p=p, k_min=0, k_max=0, cells=tuple(f"B{i + 1}" for i in range(len(coeffs))),
                           mu={0: tuple(mu0)}, left_tail=left, right_tail=right)
    return system, phi


@pytest.mark.parametrize("side", ["left", "right", "both"])
@pytest.mark.parametrize("p, ratio, steps", [
    ("1", "1/2", 1), ("1", "1/3", 7), ("2", "2/3", 5), ("2", "3/4", 61), ("51", "1/2", 3), ("52", "3/4", 2),
])
def test_the_tail_step_is_exact_on_either_side(p, ratio, steps, side):
    # the total at n0 is DECAY_TOL ** p / ratio ** steps on one side or
    # both: it is at the threshold exactly `steps` tail steps later, a tie
    # the float crossing must leave to the exact path, and one 2**-70 above
    # it one step later
    p, ratio = Fraction(p), Fraction(ratio)
    for bump, answer in ((0, 1 + steps), (1, 2 + steps)):
        target = Fraction(DECAY_TOL) ** p.numerator * (1 + Fraction(bump, 2**70))
        system, phi = _tail_tie(p, [Fraction(1)], ratio, steps, target, side)
        assert _closed_form_first_decay_step(system, phi) == answer
        assert _first_decay_step(system, phi) == answer


@pytest.mark.parametrize("side", ["left", "right", "both"])
@pytest.mark.parametrize("coeffs, ratio, steps, offset", [
    ([2], "1/2", 3, 0), ([2], "2/3", 9, 4), ([2, 8], "3/4", 40, -4), ([Fraction(81, 2), 2], "1/3", 2, 12),
    ([2], "1/2", 10, 13), ([2], "3/4", 4, 11), ([2], "3/4", 6, -12), ([2], "1/3", 11, -14),
])
@pytest.mark.parametrize("scale", [1, 10**180], ids=["unit", "huge"])
def test_the_tail_step_of_a_log_total_is_the_exact_paths(coeffs, ratio, steps, offset, side, scale):
    # p = 3/2 and coefficients whose powers are irrational, so every total
    # is a log; the total at n0 sits on t_lo / ratio ** steps, offset *
    # 2**-48 of itself away.  Scaled by 10**180 the log powers pass 600 and
    # the masses fall near e**-630, where the log-sum-exp the exact path
    # reads is off from the real total by up to 2**-44: the last four cases
    # are ones where a crossing taken without the filter's error E comes out
    # one step off the exact path's
    p, ratio = Fraction(3, 2), Fraction(ratio)
    target = _near(p, "lo", 0) * (1 + Fraction(offset, 2**48))
    system, phi = _tail_tie(p, [scale * Fraction(c) for c in coeffs], ratio, steps, target, side)
    assert not is_exact(lp_powers(system, phi))
    assert _first_decay_step(system, phi) == _closed_form_first_decay_step(system, phi)


_NEAR_ONE = [1 - Fraction(1, 10**k) for k in range(3, 13)]


@st.composite
def _tail_cases(draw):
    p = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(51), Fraction(52)]))
    ratio = draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), *_NEAR_ONE]))
    steps = draw(st.integers(0, 12 if ratio < Fraction(9, 10) else 3))
    if p == Fraction(3, 2):
        # exact powers of squares against t_lo, or log powers of 2 * squares
        logs = draw(st.booleans())
        coeffs = [Fraction(draw(st.integers(1, 9)) ** 2 * (2 if logs else 1), draw(st.integers(1, 9)) ** 2)
                  for _ in range(draw(st.integers(1, 3)))]
        target = _near(p, draw(st.sampled_from(["lo", "hi", "relative"])), draw(st.integers(-4, 4)))
    else:
        coeffs = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(draw(st.integers(1, 3)))]
        ulps = draw(st.integers(-4, 4))
        target = Fraction(DECAY_TOL) ** p.numerator * (1 + Fraction(ulps, 2**52))
    side = draw(st.sampled_from(["left", "right", "both"]))
    return _tail_tie(p, coeffs, ratio, steps, target, side)


@settings(max_examples=300, deadline=None)
@given(case=_tail_cases())
def test_the_float_tail_crossing_matches_the_exact_path(case):
    # totals at n0 on DECAY_TOL ** p / ratio ** steps and a few ulps off it,
    # tails within 10**-3 ... 10**-12 of 1, and p = 51 (the last bracketed
    # p) and 52 (no bracket)
    system, phi = case
    assert _first_decay_step(system, phi) == _closed_form_first_decay_step(system, phi)


def test_dyadic_samples_build_almost_no_exact_totals(monkeypatch):
    # the window steps and both crossings at n0 are decided in floats
    system = MeasureSystem.from_json((Path(__file__).resolve().parent.parent / "configs" / "dyadic.json").read_text())
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else 0)
        return shifted_power_sum(*args, **kwargs)

    monkeypatch.setattr(criteria, "shifted_power_sum", counted)
    for seed in range(5):
        assert weak_mixing_consistency(system, seed=seed, samples=100).verdict is Verdict.SATISFIED
    assert len(calls) <= 5
