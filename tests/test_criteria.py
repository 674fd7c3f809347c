import decimal
import json
import math
import random
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import (
    BILATERAL,
    UNILATERAL,
    MeasureSystem,
    StepFunction,
    Verdict,
    WeightSequence,
    apply_Tf,
    apply_Tf_inverse,
    cofinite_quotient_witness,
    cli,
    conditionmix_lhs,
    criteria,
    derive_weights,
    hypercyclicity_report,
    menet_unilateral,
    shift_hypercyclicity_report,
    telescoping_bound_check,
    weak_mixing_consistency,
    wp_product,
)
from shiftlab import rationals, shift_space
from shiftlab.criteria import DECAY_TOL, UnbuiltPower
from shiftlab.errors import HypothesisViolated, NoAdmissibleLevels, ShiftlabError, TailRuleMissing
from shiftlab.rationals import fraction_pow
from shiftlab.sampling import support_levels

from generators import (
    near_1_menet_draw,
    near_1_menet_tie,
    near_1_tails_draw,
    random_functional,
    random_system,
    uniform_decay_step_reference,
)


def single_cell(masses: dict[int, Fraction], left, right, p="1") -> MeasureSystem:
    k_min, k_max = min(masses), max(masses)
    return MeasureSystem(
        p=Fraction(p), k_min=k_min, k_max=k_max, cells=("B1",),
        mu={k: (v,) for k, v in masses.items()},
        left_tail=None if left is None else Fraction(left),
        right_tail=None if right is None else Fraction(right),
    )


def geometric(base: Fraction, lo: int, hi: int) -> dict[int, Fraction]:
    return {k: base**k for k in range(lo, hi + 1)}


# -- hypercyclicity ---------------------------------------------------------


def test_hypercyclicity_satisfied_for_decaying_tails(dyadic):
    report = hypercyclicity_report(dyadic)
    assert report.verdict is Verdict.SATISFIED
    assert report.witness["decay_left"] and report.witness["decay_right"]


def test_hypercyclicity_violated_when_one_side_stalls():
    system = single_cell({0: Fraction(1)}, left=Fraction(1, 2), right=Fraction(2))
    report = hypercyclicity_report(system)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness["stuck_sides"] == ["right"]


def test_hypercyclicity_inconclusive_without_tails():
    system = single_cell({0: Fraction(1)}, left=None, right=None)
    assert hypercyclicity_report(system).verdict is Verdict.INCONCLUSIVE


def test_shift_route_agrees_on_dyadic(dyadic):
    w = derive_weights(dyadic)
    report = shift_hypercyclicity_report(w)
    assert report.verdict is Verdict.SATISFIED
    assert report.witness["left_period_product_wp"] == Fraction(1, 2)
    assert report.witness["right_period_product_wp"] == 2


def test_shift_route_unilateral_cases():
    def uni(tail):
        return WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=0, wp={},
                              right_tail=tail)
    assert shift_hypercyclicity_report(uni((Fraction(2),))).verdict is Verdict.SATISFIED
    assert shift_hypercyclicity_report(uni((Fraction(1),))).verdict is Verdict.VIOLATED
    no_tail = WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=1,
                             wp={1: Fraction(2)})
    assert shift_hypercyclicity_report(no_tail).verdict is Verdict.INCONCLUSIVE


# -- weak mixing ------------------------------------------------------------


def test_weak_mixing_inherits_negative_verdict():
    system = single_cell({0: Fraction(1)}, left=Fraction(2), right=Fraction(1, 2))
    report = weak_mixing_consistency(system)
    assert report.verdict is Verdict.VIOLATED


def test_weak_mixing_consistency_on_dyadic(dyadic):
    # masses 2**-|k| on every level, support [-7, 7]: the largest ratio at
    # n >= 7 steps is mu(7 - n) / mu(7) = 2**(14 - n), at most 1e-6 from n = 34
    report = weak_mixing_consistency(dyadic)
    assert report.verdict is Verdict.SATISFIED
    assert report.witness["uniform_step"] == 34
    assert report.witness["levels"] == [-7, 7]
    assert report.witness["slowest_cell"] == {"level": 7, "cell": "B1", "direction": "forward"}
    assert report.witness["tolerance"] == DECAY_TOL


DECAYING_TAILS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def _exceeds(system, k, i, s) -> bool:
    r = system.mu_cell(k + s, i) / system.mu_cell(k, i)
    return r**system.p.denominator > Fraction(DECAY_TOL) ** system.p.numerator


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_uniform_step_matches_the_cell_by_cell_reference(seed):
    # N is the reference's least step, and the unit cell the witness names
    # still exceeds the tolerance at N - 1 in the named direction
    system = random_system(random.Random(seed), tail_pool=DECAYING_TAILS)
    witness = weak_mixing_consistency(system).witness
    levels = range(witness["levels"][0], witness["levels"][1] + 1)
    n = witness["uniform_step"]
    assert n == uniform_decay_step_reference(system, levels)
    cell = witness["slowest_cell"]
    s = (n - 1) * (1 if cell["direction"] == "inverse" else -1)
    assert _exceeds(system, cell["level"], system.cells.index(cell["cell"]), s)


@st.composite
def _exact_step_functions(draw):
    """A decaying system and a nonzero step function on its support levels
    whose coefficients are y-th powers, so that every |v| ** p is exact."""
    system = random_system(random.Random(draw(st.integers(0, 2**32))), tail_pool=DECAYING_TAILS)
    levels, y = support_levels(system), system.p.denominator
    keys = st.tuples(st.sampled_from(levels), st.integers(0, len(system.cells) - 1))
    values = st.builds(lambda a, b, sign: sign * Fraction(a, b) ** y,
                       st.integers(1, 9), st.integers(1, 9), st.sampled_from([-1, 1]))
    return system, StepFunction(draw(st.dictionaries(keys, values, min_size=1, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(_exact_step_functions())
def test_step_functions_on_the_levels_are_within_tolerance_at_the_uniform_step(case):
    # the exact p-th-power totals of T^N phi and T^-N phi against phi's own:
    # (total(moved) / total(phi)) ** y <= DECAY_TOL ** x for p = x/y
    system, phi = case
    n = weak_mixing_consistency(system).witness["uniform_step"]

    def total(f: StepFunction) -> Fraction:
        return sum((fraction_pow(abs(v), system.p) * system.mu_cell(k, i) for (k, i), v in f.coeffs.items()),
                   Fraction(0))

    x, y = system.p.numerator, system.p.denominator
    for moved in (apply_Tf(phi, n), apply_Tf_inverse(phi, n)):
        assert (total(moved) / total(phi)) ** y <= Fraction(DECAY_TOL) ** x


@pytest.mark.parametrize("p, n", [("1", 5), ("2", 6)])
def test_a_ratio_equal_to_the_tolerance_has_decayed(p, n):
    # both tails DECAY_TOL exactly on a one-cell window at level 0: the
    # largest ratio at n >= 2 steps is DECAY_TOL ** (n - 4), equal to
    # DECAY_TOL ** p at n = 4 + p, which is then the uniform step
    system = single_cell({0: Fraction(1)}, left=Fraction(DECAY_TOL), right=Fraction(DECAY_TOL), p=p)
    assert weak_mixing_consistency(system).witness["uniform_step"] == n


# -- menet ------------------------------------------------------------------


def uni_tail(*values) -> WeightSequence:
    return WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=0, wp={},
                          right_tail=tuple(Fraction(v) for v in values))


def test_menet_growing_weights_violate():
    report = menet_unilateral(uni_tail(2))
    assert report.verdict is Verdict.VIOLATED
    assert report.witness["period_product_wp"] == 2


def test_menet_constant_one_bound_one():
    report = menet_unilateral(uni_tail(1))
    assert report.verdict is Verdict.SATISFIED
    assert Fraction(report.witness["sup_inf_wp"]) == 1
    assert Fraction(report.witness["bound_wp"]) == 1


def test_menet_alternating_bound_two():
    report = menet_unilateral(uni_tail(2, Fraction(1, 2)))
    assert report.verdict is Verdict.SATISFIED
    assert Fraction(report.witness["sup_inf_wp"]) == 1
    assert Fraction(report.witness["bound_wp"]) == 2


def test_menet_uses_explicit_block_before_tail():
    # one huge early weight cannot push the sup past the later infima
    w = WeightSequence(
        p=Fraction(1), side=UNILATERAL, lo=1, hi=1, wp={1: Fraction(64)},
        right_tail=(Fraction(1, 2),),
    )
    report = menet_unilateral(w)
    assert report.verdict is Verdict.SATISFIED
    assert Fraction(report.witness["sup_inf_wp"]) == Fraction(1, 2)


def test_menet_restricts_bilateral_input(dyadic):
    report = menet_unilateral(derive_weights(dyadic))
    assert report.verdict is Verdict.VIOLATED


def test_menet_reads_bilateral_input_from_index_one():
    # blocks start at index 2: lo = 2 needs no left tail, lo = 3 does
    two = WeightSequence(p=Fraction(1), side=BILATERAL, lo=2, hi=3, wp={2: Fraction(1, 2), 3: Fraction(2)},
                         right_tail=(Fraction(1, 2),))
    check_menet_against_brute_force(two)
    assert menet_unilateral(replace(two, right_tail=None)).witness == {"explicit_range": [1, 3]}
    with pytest.raises(TailRuleMissing, match="index 2 lies below lo"):
        menet_unilateral(replace(two, lo=3, wp={3: Fraction(2)}))
    # a window left of index 1: every block lies in the right tail, in each phase
    check_menet_against_brute_force(WeightSequence(
        p=Fraction(1), side=BILATERAL, lo=-3, hi=-2, wp={-3: Fraction(1, 2), -2: Fraction(2)},
        left_tail=(Fraction(3),), right_tail=(Fraction(1, 3), Fraction(2))))


def halves(hi: int) -> WeightSequence:
    return WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=hi,
                          wp={k: Fraction(1, 2) for k in range(1, hi + 1)}, right_tail=(Fraction(1, 2),))


def test_menet_budget_and_missing_tail():
    # no enumeration budget: a window past the old 4096 gets the exact answer
    report = menet_unilateral(halves(4097))
    assert report.verdict is Verdict.SATISFIED
    assert report.witness["sup_inf_wp"] == Fraction(1, 2)
    assert report.witness["attained_at_n"] == 1
    bare = WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=1,
                          wp={1: Fraction(2)})
    assert menet_unilateral(bare).verdict is Verdict.INCONCLUSIVE


def brute_menet(w: WeightSequence) -> tuple[Fraction, int]:
    """Max over n <= span of min over k in [1, span] of the weight-power
    product over k + 1 .. k + n, one term at a time, and the least n
    attaining it, for w read from index 1 with a right period of length L
    and span = max(hi, 0) + L."""
    span = max(w.hi, 0) + len(w.right_tail)
    best, arg = Fraction(0), 0
    for n in range(1, span + 1):
        q = min(math.prod((w.wp_at(i) for i in range(k + 1, k + n + 1)), start=Fraction(1))
                for k in range(1, span + 1))
        if q > best:
            best, arg = q, n
    return best, arg


def check_menet_against_brute_force(w: WeightSequence) -> None:
    report = menet_unilateral(w)
    if math.prod(w.right_tail, start=Fraction(1)) > 1:
        assert report.verdict is Verdict.VIOLATED
        return
    assert report.verdict is Verdict.SATISFIED
    best, arg = brute_menet(w)
    assert (report.witness["sup_inf_wp"], report.witness["attained_at_n"]) == (best, arg)


GENERIC_POOL = tuple(Fraction(n, d) for n in (1, 2, 3, 5, 7) for d in (1, 2, 3, 4, 5, 7))
POW2_POOL = tuple(Fraction(2) ** e for e in range(-3, 4))  # products tie exactly


@st.composite
def unilateral_windows(draw) -> WeightSequence:
    """hi <= 6 and a right period of length L <= 4, its product as drawn,
    set to 1 or set below 1 by rescaling the last entry."""
    pool = draw(st.sampled_from((GENERIC_POOL, POW2_POOL)))
    hi = draw(st.integers(0, 6))
    wp = {k: draw(st.sampled_from(pool)) for k in range(1, hi + 1)}
    tail = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    target = draw(st.sampled_from((None, Fraction(1)) + tuple(v for v in pool if v < 1)))
    if target is not None:
        tail[-1] *= target / math.prod(tail)
    return WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=hi, wp=wp, right_tail=tuple(tail))


@settings(max_examples=400, deadline=None)
@given(unilateral_windows())
@example(uni_tail(Fraction(1, 3), Fraction(3, 2)))  # 1/2 at n = 2: a stop on Pi**(n + 1) gives 1/3
@example(uni_tail(2, Fraction(1, 2)))
@example(WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=3,  # cap**2 < sup <= cap**3
                        wp={1: Fraction(1), 2: Fraction(1, 8), 3: Fraction(2)}, right_tail=(Fraction(1, 2),)))
@example(WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=3,  # a three-way tie at n = 1, 2, 3
                        wp={1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(1)}, right_tail=(Fraction(1),)))
def test_menet_matches_brute_force_on_periodic_tails(w):
    check_menet_against_brute_force(w)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_menet_matches_brute_force_on_derived_weights(seed):
    check_menet_against_brute_force(derive_weights(random_system(random.Random(seed))))


def test_menet_stops_once_the_tail_caps_the_best(monkeypatch):
    calls = count()

    def counted(w, i, j):
        next(calls)
        return wp_product(w, i, j)

    monkeypatch.setattr(criteria, "wp_product", counted)
    hi = 4097
    assert menet_unilateral(halves(hi)).witness["attained_at_n"] == 1
    assert next(calls) <= hi + 2  # the k of n = 1 only
    # a flat window with tails 1/2 and 3/2: right weight 2/3, extent n <= 40
    w = derive_weights(single_cell({k: Fraction(1) for k in range(-40, 41)}, left=Fraction(1, 2),
                                   right=Fraction(3, 2)))
    calls = count()
    report = menet_unilateral(w)
    assert (report.witness["sup_inf_wp"], report.witness["attained_at_n"]) == (Fraction(2, 3), 1)
    assert next(calls) <= w.hi + 1  # one n of k in [1, hi + 1], not 40 of them


def test_menet_crosses_the_cap_on_the_argmin_blocks_terms(monkeypatch):
    # the best here is a 24,915-bit product that ties a power of the cap:
    # its crossing reads the argmin block's terms, a power of the tail's
    # period product, so the tie test factors small bases, not the best
    sizes = []
    base = rationals._coprime_base
    monkeypatch.setattr(rationals, "_coprime_base", lambda ns: sizes.append(max(map(int.bit_length, ns))) or base(ns))
    system = MeasureSystem.from_json(json.dumps(near_1_menet_tie(60)))
    report = menet_unilateral(derive_weights(system))
    assert report.witness["attained_at_n"] == 25
    assert report.witness["sup_inf_wp"].numerator.bit_length() == 24915
    assert sizes and max(sizes) <= system.right_tail.numerator.bit_length() == 997


def counted_ln_fixed(monkeypatch) -> list:
    """The arguments of every rationals._ln_fixed call from here on."""
    calls, ln_fixed = [], rationals._ln_fixed
    monkeypatch.setattr(rationals, "_ln_fixed", lambda *args: calls.append(args) or ln_fixed(*args))
    return calls


def test_menet_takes_a_cap_crossing_only_where_it_stops_the_loop(monkeypatch):
    # the cap here is within 10**-300 of 1, so its crossings need long
    # fixed-point logs: one past the loop's last q could not stop it and is
    # not taken (taking every new best's crossing made 73 calls)
    calls = counted_ln_fixed(monkeypatch)
    report = menet_unilateral(derive_weights(MeasureSystem.from_json(json.dumps(near_1_menet_tie(60)))))
    assert report.witness["attained_at_n"] == 25
    assert len(calls) <= 2


def test_the_near_1_menet_draw_takes_few_long_logs_and_no_long_root(monkeypatch):
    # a cap within 10**-2800 of 1, whose crossings at every new best took
    # 1,114 fixed-point logs; and a 3.4M-bit square numerator over a
    # non-square denominator, whose two roots took math.isqrt seconds each
    calls, sizes, isqrt = counted_ln_fixed(monkeypatch), [], math.isqrt
    monkeypatch.setattr(math, "isqrt", lambda n: sizes.append(n.bit_length()) or isqrt(n))
    report = menet_unilateral(derive_weights(MeasureSystem.from_json(json.dumps(near_1_menet_draw()))))
    assert (report.witness["attained_at_n"], report.witness["sup_inf"]) == (363, 1.0)
    assert report.witness["sup_inf_wp"].numerator.bit_length() > 3 * 10**6
    assert len(calls) <= 17
    assert [b for b in sizes if b > 10**6] == []  # the fixed-point logs' own roots stay near 2 * 9,300 bits


def flat_window(half_span: int, left, right, seed: int = 1) -> MeasureSystem:
    """Four cells of masses m / 2**e (m <= 8, e <= 4) on every level: no
    decay inside the window, so the tails alone decide the verdicts."""
    rng = random.Random(seed)
    mu = {k: tuple(Fraction(rng.randint(1, 8), 2 ** rng.randint(0, 4)) for _ in range(4))
          for k in range(-half_span, half_span + 1)}
    return MeasureSystem(p=Fraction(2), k_min=-half_span, k_max=half_span, cells=("B1", "B2", "B3", "B4"),
                         mu=mu, left_tail=Fraction(left), right_tail=Fraction(right))


def test_sup_inf_takes_few_products_exactly(monkeypatch):
    # period product 1 (right weight 1): no cap stop, every n is searched,
    # about hi**2 exact products without the float filter
    calls = count()

    def counted(w, i, j):
        next(calls)
        return wp_product(w, i, j)

    monkeypatch.setattr(criteria, "wp_product", counted)
    w = derive_weights(flat_window(400, Fraction(1, 2), 1))
    report = menet_unilateral(w)
    assert (report.witness["sup_inf_wp"], report.witness["attained_at_n"]) == (Fraction(17, 48), 390)
    assert next(calls) <= 4 * w.hi
    # steps a = b = 1: conditionmix has no cap stop either and meets the window span
    system = flat_window(200, 1, 1)
    calls = count()
    report = conditionmix_lhs(system, derive_weights(system))
    assert (report.witness["value"], report.witness["attained_at_n"]) == (Fraction(9, 85), 3)
    assert next(calls) <= 4 * (system.k_max - system.k_min)


# -- conditionmix -----------------------------------------------------------


def test_conditionmix_dyadic_value(dyadic):
    report = conditionmix_lhs(dyadic, derive_weights(dyadic))
    assert report.verdict is Verdict.SATISFIED
    assert Fraction(report.witness["value"]) == Fraction(1, 2)
    assert report.witness["attained"]


def test_conditionmix_flat_system_reaches_one():
    system = single_cell({k: Fraction(1) for k in range(-2, 3)}, left=1, right=1)
    report = conditionmix_lhs(system, derive_weights(system))
    assert report.verdict is Verdict.SATISFIED
    assert Fraction(report.witness["value"]) == 1


def test_conditionmix_unbounded_when_masses_grow_both_ways():
    system = single_cell(geometric(Fraction(1, 2), -2, 2), left=2, right=Fraction(1, 2))
    report = conditionmix_lhs(system, derive_weights(system))
    assert report.verdict is Verdict.VIOLATED
    assert report.witness["unbounded"] is True


def test_conditionmix_one_sided_flat_limit():
    system = single_cell(
        {-1: Fraction(1), 0: Fraction(4), 1: Fraction(1)}, left=1, right=Fraction(1, 2)
    )
    report = conditionmix_lhs(system, derive_weights(system))
    assert report.verdict is Verdict.SATISFIED
    assert Fraction(report.witness["value"]) == Fraction(1, 4)
    assert report.witness["attained"]


def test_conditionmix_one_sided_limit_attained_at_first_step():
    # a = 1 and b = 2: the infimum is 1 from n = 1 on, a finite n attains it
    system = single_cell({0: Fraction(1)}, left=1, right=Fraction(1, 2))
    report = conditionmix_lhs(system, derive_weights(system))
    assert report.verdict is Verdict.SATISFIED
    assert Fraction(report.witness["value"]) == 1
    assert report.witness["attained"] is True
    assert report.witness["attained_at_n"] == 1


def test_conditionmix_finite_value_never_exceeds_one():
    # a deep-tail candidate ratio min(a, b)**n caps every infimum, so a
    # finite supremum is automatically <= 1; only divergence violates
    rng = random.Random(31)
    for _ in range(40):
        system = random_system(rng)
        report = conditionmix_lhs(system, derive_weights(system))
        if report.verdict is Verdict.VIOLATED:
            assert report.witness.get("unbounded") is True
        else:
            assert Fraction(report.witness["value"]) <= 1


def test_conditionmix_inconclusive_without_tails():
    system = single_cell({0: Fraction(1)}, left=None, right=None)
    assert conditionmix_lhs(system, derive_weights(system)).verdict is Verdict.INCONCLUSIVE


def decimal_conditionmix(system: MeasureSystem, digits: int) -> tuple[int, Decimal]:
    """The least n attaining the sup over n of the inf over k of
    mass(k) / mass(k + n), and the log of that supremum, in decimals at
    ``digits`` digits.  For one n, log mass(k) - log mass(k + n) is linear
    in k while neither k nor k + n meets the window, so its infimum is taken
    at k within one level of those places.  Past the window span S the log
    infimum is concave in n (a minimum of linear terms), so its maximum
    there is found by doubling and bisecting on log inf(n + 1) <= log inf(n)."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits

        def ln(q: Fraction) -> Decimal:
            return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()

        lo, hi = system.k_min, system.k_max
        ln_window = {k: ln(system.mu_W(k)) for k in range(lo, hi + 1)}
        ln_left, ln_right = ln(system.left_tail), ln(system.right_tail)

        def ln_mass(k: int) -> Decimal:
            if k < lo:
                return ln_window[lo] + (lo - k) * ln_left
            return ln_window[hi] + (k - hi) * ln_right if k > hi else ln_window[k]

        def f(n: int) -> Decimal:
            ks = {*range(lo - 1, hi + 2), *range(lo - 1 - n, hi + 2 - n), lo - 2 - n, hi + 2}
            return min(ln_mass(k) - ln_mass(k + n) for k in ks)

        span = hi - lo
        below, above = span + 1, span + 1
        while f(above + 1) > f(above):
            below, above = above, 2 * above
        while above - below > 1:  # f(below + 1) > f(below) unless below = S + 1; f(above + 1) <= f(above)
            mid = (below + above) // 2
            below, above = (below, mid) if f(mid + 1) <= f(mid) else (mid, above)
        tail_n = below if f(below + 1) <= f(below) else above
        best = max(range(1, span + 1), key=lambda n: (f(n), -n), default=tail_n)
        n = best if span and f(best) >= f(tail_n) else tail_n
        return n, f(n)


@pytest.mark.parametrize("eps", [Fraction(1, 10**12), Fraction(1, 10**15), Fraction(1, 10**400)])
def test_conditionmix_meeting_point_past_float_reach(eps):
    # the tail terms meet near n = 10**12, 10**15 or 10**400, where float
    # logs cannot place the meeting point: the witness still gives the
    # least n attaining the supremum, and its exact value as c*r**e,
    # as a decimal search at three times those digits finds them
    system = single_cell({0: Fraction(1), 1: Fraction(1, 100), 2: Fraction(1)}, left=1 - eps, right=1 - eps)
    report = conditionmix_lhs(system, derive_weights(system))
    assert report.verdict is Verdict.SATISFIED
    assert report.witness["attained"] is True
    digits = 3 * len(str(eps.denominator)) + 60
    n, ln_value = decimal_conditionmix(system, digits)
    assert report.witness["attained_at_n"] == n
    value = report.witness["value"]
    assert isinstance(value, UnbuiltPower)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ln_c, ln_r = (Decimal(q.numerator).ln() - Decimal(q.denominator).ln() for q in (value.coef, value.step))
        assert abs(ln_c + value.m * ln_r - ln_value) < Decimal(10) ** (10 - digits)


def conditionmix_value(value: Fraction | UnbuiltPower) -> Fraction:
    """A conditionmix value, built."""
    if isinstance(value, Fraction):
        return value
    return value.coef * value.step**value.m


def brute_conditionmix(system: MeasureSystem, bound: int) -> tuple[Fraction, int]:
    """Max over n <= bound of the min over k in [k_min - n - 1, k_max + 1]
    of mass(k) / mass(k + n), and the least n attaining it."""
    mass = {k: system.mu_W(k) for k in range(system.k_min - bound - 1, system.k_max + bound + 2)}
    best, arg = Fraction(0), 0
    for n in range(1, bound + 1):
        v = min(mass[k] / mass[k + n] for k in range(system.k_min - n - 1, system.k_max + 2))
        if v > best:
            best, arg = v, n
    return best, arg


CROSSING_STEPS = tuple(Fraction(v) for v in ("1/2", "4/5", "9/10", "1", "10/9", "5/4", "2"))


@st.composite
def stepped_systems(draw, masses, steps, half_span=2):
    """One-cell systems of half-span <= ``half_span`` whose steps a (left
    tail) and b (reciprocal of the right tail) are drawn from ``steps``."""
    levels = range(-draw(st.integers(0, half_span)), draw(st.integers(0, half_span)) + 1)
    return single_cell(
        {k: draw(masses) for k in levels},
        left=draw(st.sampled_from(steps)), right=1 / draw(st.sampled_from(steps)),
    )


def check_against_brute_force(system: MeasureSystem) -> None:
    report = conditionmix_lhs(system, derive_weights(system))
    a, b = system.left_tail, 1 / system.right_tail
    assert (report.verdict is Verdict.VIOLATED) == (a > 1 and b > 1)
    if report.verdict is Verdict.VIOLATED:
        return
    # masses within 2**12 of each other and steps at least 10/9 away from 1
    # put any meeting of the tail terms below n = 120
    bound = system.k_max - system.k_min + 120
    assert report.witness["attained"] is True
    assert report.witness["attained_at_n"] < bound
    value, arg = brute_conditionmix(system, bound)
    assert conditionmix_value(report.witness["value"]) == value
    assert report.witness["attained_at_n"] == arg


@settings(max_examples=100, deadline=None)
@given(stepped_systems(
    st.builds(Fraction, st.integers(1, 64), st.sampled_from([1, 2, 4, 8, 16, 32, 64])), CROSSING_STEPS,
))
def test_conditionmix_closed_form_matches_brute_force(system):
    # steps on both sides of 1 put the meeting of the tail terms past S + 1
    check_against_brute_force(system)


# levels -1..2 with left step 2 and right step 1: at n0 = 4 each side's band
# holds two k of equal products, 1/8 at k = -4, -3 and 1 at k = -1, 2, and
# the growing side meets the flat one exactly at n = 7, where the supremum 1 is
TIED_BANDS = single_cell({-1: Fraction(1, 8), 0: Fraction(8), 1: Fraction(4), 2: Fraction(1, 8)}, left=2, right=1)


@settings(max_examples=100, deadline=None)
@given(stepped_systems(
    st.integers(-6, 6).map(lambda i: Fraction(2) ** i), (Fraction(1, 2), Fraction(1), Fraction(2)),
))
@example(single_cell({-1: Fraction(1, 2), 0: Fraction(4), 1: Fraction(1, 2)}, left=2, right=1))
@example(single_cell({-1: Fraction(4, 5) ** 3, 0: Fraction(5, 4) ** 6, 1: Fraction(4, 5) ** 6},
                     left=Fraction(5, 4), right=1))
@example(TIED_BANDS)
def test_conditionmix_exact_ties_match_brute_force(system):
    # powers of 2 make ties exact, where only the exact comparison may
    # decide; in the examples the growing term meets the flat one exactly,
    # at n = 4, at n = 10 through float logs of 5/4 that do not cancel, and
    # at n = 7 from tied bands
    check_against_brute_force(system)


def test_conditionmix_tail_bands_of_equal_products_meet_the_tie_test(monkeypatch):
    # each side's infimum at n0 is its first argmin by LogGap signs, so each
    # band's two equal products meet LogGap's tie test, a sign of 0 at m = 0
    bands, band, signs, sign = [], criteria._LogTable.band, [], rationals.LogGap.sign

    def counted(self, n, ks, floor=-math.inf):
        bands.append((n, got := band(self, n, ks, floor)))
        return got

    monkeypatch.setattr(criteria._LogTable, "band", counted)
    monkeypatch.setattr(rationals.LogGap, "sign", lambda self, m: signs.append((m, got := sign(self, m))) or got)
    w = derive_weights(TIED_BANDS)
    report = conditionmix_lhs(TIED_BANDS, w)
    assert (report.witness["value"], report.witness["attained_at_n"]) == (1, 7)
    tail = [ks for n, ks in bands if n == 4]
    assert tail == [[-4, -3], [-1, 2]]
    assert [{wp_product(w, k + 1, k + 4) for k in ks} for ks in tail] == [{Fraction(1, 8)}, {Fraction(1)}]
    assert signs.count((0, 0)) == 2


@pytest.mark.parametrize("half_span, value", [(400, Fraction(1, 6)), (923, Fraction(2, 19))])
def test_conditionmix_builds_no_tail_power_past_the_span(monkeypatch, half_span, value):
    # tails 1 - 10**-960 and 1 - 10**-1870: the two infima just past the
    # span stay LogGap terms, where building them took two Fraction powers
    # with exponents up to 2 * half_span + 1 and, at half-span 400, about 3 s
    system = MeasureSystem.from_dict(near_1_tails_draw(half_span))
    w = derive_weights(system)
    powers, real = [], Fraction.__pow__
    monkeypatch.setattr(Fraction, "__pow__", lambda *args: powers.append(args) or real(*args))
    report = conditionmix_lhs(system, w)
    assert powers == []
    assert (report.witness["value"], report.witness["attained_at_n"]) == (value, 1)


TERM_BASES = (Fraction(1, 2), Fraction(2), Fraction(4), Fraction(2, 3), Fraction(9, 4), Fraction(5, 7),
              1 + Fraction(1, 10**30), 1 - Fraction(1, 10**30))


@st.composite
def term_lists(draw) -> list[list[tuple[Fraction, int]]]:
    """1 to 6 LogGap term lists over a few small rationals, bases repeated; about
    half rewrite an earlier list's product, an exact tie: reordered, a base split
    off or squared, or a base and its inverse added."""
    lists: list[list[tuple[Fraction, int]]] = []
    for _ in range(draw(st.integers(1, 6))):
        terms = draw(st.lists(st.tuples(st.sampled_from(TERM_BASES), st.integers(-3, 3)), max_size=4))
        if lists and draw(st.booleans()):
            terms = list(draw(st.sampled_from(lists)))
            how, j = draw(st.sampled_from(("shuffle", "split", "square", "pad"))), draw(st.integers(0, 3))
            if how == "shuffle":
                terms = draw(st.permutations(terms))
            elif how == "pad" or not terms:
                terms += [(TERM_BASES[j], 1), (TERM_BASES[j], -1)]
            else:
                q, e = terms.pop(j % len(terms))
                terms += [(q, e - 1), (q, 1)] if how == "split" else [(q * q, 1), (q, e - 2)]
        lists.append(terms)
    return lists


@settings(max_examples=200, deadline=None)
@given(term_lists())
def test_the_exact_order_of_term_lists_is_the_order_of_their_built_products(lists):
    # _sign is the sign of prod x - prod y, and min and max by _order pick the
    # index they pick over the built products: the first on exact ties
    built = [math.prod((q**e for q, e in terms), start=Fraction(1)) for terms in lists]
    for x, bx in zip(lists, built):
        for y, by in zip(lists, built):
            assert criteria._sign(x, y) == (bx > by) - (bx < by)
    for pick in (min, max):
        indices = range(len(lists))
        assert pick(indices, key=lambda j: criteria._order(lists[j])) == pick(indices, key=built.__getitem__)


# products equal, or within 10**-12 .. 10**-60 of each other in relative
# terms: float logs cannot order them, so every k within the filter's bound
# of the float minimum must be taken exactly
NEAR_ONE = tuple(1 + Fraction(sign, 10**e) for e in (12, 20, 30) for sign in (-1, 1))
NEAR_POOL = (Fraction(1),) * 4 + NEAR_ONE + (Fraction(1, 2), Fraction(2), Fraction(3, 2))
BIG = 10**30
NEAR_MASSES = tuple(Fraction(m * BIG + d) for m in (1, 2, 3) for d in (-1, 0, 1))


@st.composite
def near_tie_windows(draw) -> WeightSequence:
    """hi <= 10, powers from NEAR_POOL (long runs of 1 among them) and a
    right period of length <= 3 whose product is as drawn, 1, just below 1
    or 1/2."""
    hi = draw(st.integers(0, 10))
    wp = {k: draw(st.sampled_from(NEAR_POOL)) for k in range(1, hi + 1)}
    tail = draw(st.lists(st.sampled_from(NEAR_POOL), min_size=1, max_size=3))
    target = draw(st.sampled_from((None, Fraction(1), 1 - Fraction(1, BIG), Fraction(1, 2))))
    if target is not None:
        tail[-1] *= target / math.prod(tail)
    return WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=hi, wp=wp, right_tail=tuple(tail))


@settings(max_examples=300, deadline=None)
@given(w=near_tie_windows(),
       system=stepped_systems(st.sampled_from(NEAR_MASSES), (Fraction(1, 2), Fraction(1), Fraction(2)), 4))
@example(  # a filter with no error bound takes a wrong minimum in both
    w=WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=1, wp={1: Fraction(3, 2)},
                     right_tail=(1 - Fraction(1, 10**12), 1 + Fraction(1, 10**20))),
    system=single_cell({0: Fraction(3 * BIG - 1), 1: Fraction(BIG - 1), 2: Fraction(2 * BIG - 1)}, "1/2", 2))
@example(  # taking only the float argmin exactly misses the exact one in both
    w=WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=2,
                     wp={1: Fraction(1, 2), 2: 1 + Fraction(1, 10**20)}, right_tail=(Fraction(1),)),
    system=single_cell({0: Fraction(BIG - 1), 1: Fraction(2 * BIG - 1)}, "1/2", 2))
def test_sup_inf_near_ties_match_brute_force(w, system):
    # both callers of the engine: menet on near-one powers, conditionmix on
    # masses m * 10**30 + d for m in {1, 2, 3} and d in {-1, 0, 1}
    check_menet_against_brute_force(w)
    check_against_brute_force(system)


@pytest.fixture
def default_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def test_witnesses_stay_exact_under_the_default_digit_limit(default_digit_limit):
    # masses of over 3000 digits and tails of over 5000: the witnesses keep
    # exact values, which only the CLI's renderers write as text, so a
    # library call never meets int-to-str's 4300-digit limit
    big = 10**3000
    one = single_cell({-1: Fraction(big + 1, big), 0: Fraction(big + 7, big + 3), 1: Fraction(big + 11, big + 9)},
                      left=1, right=1)
    reports = cli.run_command("criteria", one, horizon=64, samples=1, eps=1e-2)["reports"]
    assert [r.criterion for r in reports] == ["hypercyclicity", "shift_hypercyclicity", "weak_mixing",
                                              "menet_unilateral", "conditionmix", "cofinite_quotient",
                                              "telescoping_bound"]
    value, arg = brute_conditionmix(one, 8)
    assert (reports[4].witness["value"], reports[4].witness["attained_at_n"]) == (value, arg)
    tail = Fraction(10**5000 - 1, 10**5000)
    two = single_cell({0: Fraction(1)}, left=tail, right=tail)
    w = derive_weights(two)
    verdicts = [hypercyclicity_report(two), shift_hypercyclicity_report(w), weak_mixing_consistency(two),
                menet_unilateral(w)]
    assert [r.verdict for r in verdicts] == [Verdict.SATISFIED] * 3 + [Verdict.VIOLATED]
    assert verdicts[0].witness["left_ratio"] == tail
    assert verdicts[3].witness["period_product_wp"] == 1 / tail


def test_conditionmix_keeps_a_value_past_the_digit_limit_unbuilt(default_digit_limit):
    # one level of mass 1 and tails within 10**-5000 of 1: the supremum has
    # over 4300 digits, so the witness keeps its exact parts, which only the
    # CLI's renderers write, after lifting the limit
    tail = Fraction(10**5000 - 1, 10**5000)
    system = single_cell({0: Fraction(1)}, left=tail, right=tail)
    report = conditionmix_lhs(system, derive_weights(system))
    assert report.verdict is Verdict.SATISFIED
    value = report.witness["value"]
    assert isinstance(value, UnbuiltPower)
    assert (conditionmix_value(value), report.witness["attained_at_n"]) == brute_conditionmix(system, 8)
    sys.set_int_max_str_digits(0)
    assert cli._encode(value) == f"{value.coef}*({value.step})**{value.m}"


def stop_by_power(w, table, ks, n_max, cap, period) -> tuple[tuple[Fraction, int, bool], int]:
    """The engine's search with no float floor and its stop tested by
    building cap ** ((n + 1) // period) at each n: (best, least n attaining
    it, stopped) and the number of n evaluated."""
    best, arg = Fraction(0), 0
    for n in range(1, n_max + 1):
        if (v := min(wp_product(w, k + 1, k + n) for k in table.band(n, ks(n)))) > best:
            best, arg = v, n
        if cap ** ((n + 1) // period) <= best:
            return (best, arg, True), n
    return (best, arg, False), n_max


def engine_runs_checked_against_powers(call) -> int:
    """Run call() with every _sup_inf run checked against stop_by_power: the
    same (best, arg, stopped) after as many n evaluated, counted as calls of
    band.  Returns the number of runs checked."""
    engine, band, evaluated, runs = criteria._sup_inf, criteria._LogTable.band, count(), count()

    def counted(self, *args):
        next(evaluated)
        return band(self, *args)

    def checked(w, table, ks, n_max, cap, period):
        before = next(evaluated)
        got = engine(w, table, ks, n_max, cap, period)
        assert (got, next(evaluated) - before - 1) == stop_by_power(w, table, ks, n_max, cap, period)
        next(runs)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(criteria._LogTable, "band", counted)
        patch.setattr(criteria, "_sup_inf", checked)
        call()
    return next(runs)


@st.composite
def capped_engine_runs(draw) -> tuple[str, WeightSequence | MeasureSystem]:
    """An engine run with cap 1 - 10**-k (k <= 400), 1/2 or 1/4 over powers
    of itself (exact ties cap**q = best) or 1: menet on hi <= 10 and a right
    period of length <= 3 with product cap; conditionmix on half-span <= 3
    with min(a, b) = cap; or "prefix", the engine on k = 0 alone of such a
    menet input, whose best may pass 1."""
    kind = draw(st.sampled_from(("near_1", "tie", "one")))
    if kind == "near_1":
        cap = 1 - Fraction(1, 10 ** draw(st.integers(1, 400)))
        pool = GENERIC_POOL + (cap, 1 / cap)
    elif kind == "tie":
        cap = draw(st.sampled_from((Fraction(1, 2), Fraction(1, 4))))
        pool = tuple(cap**e for e in range(-2, 3))
    else:
        cap, pool = Fraction(1), GENERIC_POOL
    leg = draw(st.sampled_from(("menet", "conditionmix", "prefix")))
    if leg == "conditionmix":
        other = draw(st.sampled_from([v for v in pool if v >= cap]))
        a, b = (cap, other) if draw(st.booleans()) else (other, cap)
        levels = range(-draw(st.integers(0, 3)), draw(st.integers(0, 3)) + 1)
        return leg, single_cell({k: draw(st.sampled_from(pool)) for k in levels}, left=a, right=1 / b)
    hi = draw(st.integers(0, 10))
    tail = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    tail[-1] *= cap / math.prod(tail)
    return leg, WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=hi,
                               wp={k: draw(st.sampled_from(pool)) for k in range(1, hi + 1)}, right_tail=tuple(tail))


def run_leg(leg: str, subject) -> None:
    if leg == "menet":
        menet_unilateral(subject)
    elif leg == "conditionmix":
        conditionmix_lhs(subject, derive_weights(subject))
    else:
        period = len(subject.right_tail)
        n_max = subject.hi + period
        criteria._sup_inf(subject, criteria._LogTable.of_weights(subject, 0, subject.hi + n_max), lambda n: range(1),
                          n_max, math.prod(subject.right_tail), period)


@settings(max_examples=300, deadline=None)
@given(capped_engine_runs())
@example(("prefix", WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=2,  # cap 1, best 2 above it
                                   wp={1: Fraction(2), 2: Fraction(1, 4)}, right_tail=(Fraction(1),))))
@example(("menet", WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=2,  # cap 1, best 1 at n = 1
                                  wp={1: Fraction(1), 2: Fraction(1)}, right_tail=(Fraction(1),))))
@example(("menet", WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=2,  # best 1/4 = cap**2, a crossing tie
                                  wp={1: Fraction(1), 2: Fraction(1, 4)}, right_tail=(Fraction(1, 2),))))
@example(("menet", WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=3,  # period 2: best cap at n = 2
                                  wp={1: Fraction(1), 2: Fraction(1, 4), 3: Fraction(4)},
                                  right_tail=(Fraction(2), Fraction(1, 8)))))
@example(("conditionmix", single_cell({0: Fraction(1), 1: Fraction(1, 100), 2: Fraction(1)},  # cap 1 - 10**-400
                                      left=1 - Fraction(1, 10**400), right=1 / (1 - Fraction(1, 10**400)))))
def test_the_cap_stops_the_engine_where_a_power_of_it_meets_the_best(case):
    # the stop found once per new best fires at the same n as a power of
    # the cap built for every n, however close the cap is to 1
    assert engine_runs_checked_against_powers(lambda: run_leg(*case)) == 1


def test_conditionmix_builds_one_log_table(monkeypatch):
    # near400's tails are within 10**-400 of 1: no cap stop, so the span
    # step at S + 1 reads the engine's table
    system = MeasureSystem.from_json((Path(__file__).parent / "golden" / "near400.json").read_text())
    builds, init = count(), criteria._LogTable.__init__

    def counted(self, *args):
        next(builds)
        init(self, *args)

    monkeypatch.setattr(criteria._LogTable, "__init__", counted)
    report = conditionmix_lhs(system, derive_weights(system))
    assert report.witness["attained_at_n"] > system.k_max - system.k_min
    assert next(builds) == 1


# -- cofinite witness -------------------------------------------------------


def test_cofinite_witness_without_constraints(dyadic):
    witness = cofinite_quotient_witness(dyadic, 1, [])
    assert witness.levels == (-7,)
    assert witness.coeffs == (Fraction(1),)
    assert witness.quotient_pp == Fraction(1, 2)


def test_cofinite_witness_annihilates_functionals(dyadic):
    rng = random.Random(8)
    sparse = [[random_functional(rng, range(-9 - m, -5)) for _ in range(m)] for m in (1, 2, 3)]
    # dense over the witness levels -7 - m .. -7, so the kernel solver
    # eliminates every other row at each pivot
    dense = [[{k: Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3)) for k in range(-7 - m, -6)}
              for _ in range(m)] for m in (2, 3, 4)]
    for functionals in sparse + dense:
        m = len(functionals)
        witness = cofinite_quotient_witness(dyadic, 1, functionals)
        assert len(witness.levels) == m + 1
        assert any(a != 0 for a in witness.coeffs)
        assert all(v == 0 for v in witness.pairings)
        assert all(r <= 1 for r in witness.level_ratios)
        assert witness.quotient_pp <= 1
        # recompute the pairings independently
        for psi in functionals:
            total = sum(
                psi.get(k, Fraction(0)) * a * dyadic.mu_W(k)
                for k, a in zip(witness.levels, witness.coeffs)
            )
            assert total == 0


def test_cofinite_no_admissible_levels():
    system = single_cell(geometric(Fraction(1, 2), -2, 2), left=2, right=Fraction(1, 2))
    with pytest.raises(NoAdmissibleLevels):
        cofinite_quotient_witness(system, 1, [])


def test_cofinite_window_only_scan():
    masses = {k: Fraction(1, 2 ** abs(k)) for k in range(-5, 6)}
    system = single_cell(masses, left=None, right=None)
    witness = cofinite_quotient_witness(system, 1, [])
    assert witness.levels == (-4,)
    grow = single_cell({k: Fraction(2) ** (-k) for k in range(-2, 3)}, left=None, right=None)
    with pytest.raises(NoAdmissibleLevels):
        cofinite_quotient_witness(grow, 1, [])


def test_cofinite_levels_can_sit_beyond_the_window():
    # masses shrink through the window but regrow along the right tail, so
    # the first non-expanding level lies past the window edge
    system = single_cell(
        {-1: Fraction(4), 0: Fraction(2), 1: Fraction(1)}, left=2, right=2
    )
    witness = cofinite_quotient_witness(system, 1, [])
    assert witness.levels == (2,)
    assert witness.quotient_pp == Fraction(1, 2)


def test_cofinite_constant_system_quotient_is_one():
    flat = single_cell({k: Fraction(1) for k in (-1, 0, 1)}, left=1, right=1)
    for n in (1, 3):
        witness = cofinite_quotient_witness(flat, n, [])
        assert witness.quotient_pp == 1


def test_cofinite_rejects_bad_shift(dyadic):
    with pytest.raises(ValueError):
        cofinite_quotient_witness(dyadic, 0, [])


# -- telescoping ------------------------------------------------------------


def quartic_system() -> MeasureSystem:
    return single_cell(geometric(Fraction(1, 4), -5, 5), left=4, right=Fraction(1, 4))


def test_telescoping_frozen_example():
    result = telescoping_bound_check(quartic_system(), 0, 5, 1, Fraction(2))
    assert result.holds
    assert result.lhs == 1024
    assert result.rhs == 16
    assert (result.blocks, result.remainder) == (5, 0)
    assert result.star_c == 4


def test_telescoping_with_remainder():
    result = telescoping_bound_check(quartic_system(), 2, 7, 3, Fraction(3, 2))
    assert result.holds
    assert (result.blocks, result.remainder) == (2, 1)
    assert result.lhs == Fraction(4) ** 7


def test_telescoping_hypothesis_violation_names_level(dyadic):
    with pytest.raises(HypothesisViolated) as info:
        telescoping_bound_check(dyadic, 0, 5, 1, Fraction(2))
    assert info.value.level == -5


def _telescoping_per_level(system, j, n_k, n, cp):
    """The hypothesis loop of telescoping_bound_check, one level at a time."""
    for k in range(j - max(n_k, n), j - n + 1):
        ratio = system.mu_W(k) / system.mu_W(k + n)
        if ratio <= cp:
            raise HypothesisViolated(f"n-step ratio at level {k} is {ratio}, not above {cp}", level=k)


def _outcome(call):
    try:
        return call()
    except ShiftlabError as exc:
        return type(exc), str(exc), getattr(exc, "level", None)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       tails=st.booleans(),
       j=st.integers(min_value=-16, max_value=24),
       n_k=st.integers(min_value=1, max_value=30),
       n=st.integers(min_value=1, max_value=6),
       cp=st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(2), Fraction(9, 2)]))
def test_telescoping_tail_zones_match_the_per_level_loop(seed, tails, j, n_k, n, cp):
    # the tail zones are checked at their first level only; the outcome,
    # down to the offending level and the message, must be the per-level one
    system = random_system(random.Random(seed), max_half_span=4)
    if not tails:
        system = MeasureSystem(p=system.p, k_min=system.k_min, k_max=system.k_max,
                               cells=system.cells, mu=system.mu)
    result = _outcome(lambda: telescoping_bound_check(system, j, n_k, n, cp))
    reference = _outcome(lambda: _telescoping_per_level(system, j, n_k, n, cp))
    if isinstance(reference, tuple):
        assert result == reference
    else:
        assert not isinstance(result, tuple)
        assert result.checked_range == (j - max(n_k, n), j - n)


def test_telescoping_argument_validation(dyadic):
    with pytest.raises(ValueError):
        telescoping_bound_check(dyadic, 0, 0, 1, Fraction(2))
    with pytest.raises(ValueError):
        telescoping_bound_check(dyadic, 0, 1, 1, Fraction(1, 2))


def test_menet_and_conditionmix_share_one_prefix_log_column(monkeypatch):
    # both sup-inf tables of one weight sequence extend its _prefix_logs,
    # so each prefix entry's float log is taken once, not once per table
    system = MeasureSystem.from_json((Path(__file__).parent / "golden" / "wide100.json").read_text())
    w = derive_weights(system)
    logs, float_log = count(), shift_space._float_log

    def counted(q):
        next(logs)
        return float_log(q)

    monkeypatch.setattr(shift_space, "_float_log", counted)
    menet_unilateral(w)
    conditionmix_lhs(system, w)
    assert next(logs) == len(w._prefix) == w.hi - w.lo + 2
