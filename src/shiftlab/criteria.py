"""Decidable certificates for the dynamics of the model and its shift.

Every criterion here returns a report with one of three verdicts:

* ``Satisfied`` and ``Violated`` are exact: they are backed by rational
  arithmetic on the window data plus the geometric tail rules, and the
  witness field carries the numbers that decide the case.
* ``InconclusiveWindow`` means the finite window alone cannot decide; this
  is the only possible answer when a system carries no tail rules, because
  window data bounds the relevant suprema and infima from one side only.

The certificates:

``hypercyclicity_report``
    Level masses must vanish in both directions, which under geometric
    tails is exactly "both tail ratios < 1".  Any increasing step schedule
    then witnesses the decay required of the composition operator.

``shift_hypercyclicity_report``
    The same question asked of a weight sequence alone: products of weight
    powers over blocks sliding left must vanish and over blocks sliding
    right must blow up.  With periodic tails this reduces to the per-period
    products.  Kept deliberately independent of the measure route so the
    two can be played against each other.

``weak_mixing_consistency``
    For these shifts weak mixing of the direct sum comes with
    hypercyclicity, so the verdict is inherited; a Satisfied verdict is
    additionally cross-examined on random step functions, whose forward and
    inverse iterates must decay; the tails give the decay step in closed form.

``menet_unilateral`` and ``conditionmix_lhs``
    One engine, ``_sup_inf``: sup over n of inf over k of n-fold weight
    products, stopped once a deep-tail cap shows no later n does better; a
    certified float filter picks the few products evaluated exactly.
    menet, the unilateral spaceability test, takes k >= 1 and periodic
    tails; conditionmix takes k over all of Z on derived weights, where the
    product is the mass ratio of levels k and k + n.  Past the window span
    its infima follow min(alpha * a**n, beta * b**n) in the two tail steps,
    whose supremum sits where the growing term meets the other, found
    exactly by ``rationals.LogGap`` however far out that is.

``cofinite_quotient_witness``
    Constructive spaceability evidence: a nonzero step function killed by
    finitely many given functionals, supported on levels where an n-step
    pullback does not expand, so the operator quotient is at most one.

``telescoping_bound_check``
    Exact verification of a lower bound for a deep backward mass ratio in
    terms of a per-block constant, on a stated block range.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate, compress, islice
from operator import mul, sub

from .errors import HypothesisViolated, NoAdmissibleLevels
from .lp_space import Power, StepFunction, _power, is_exact, lp_powers, shifted_power_sum
from .measure_system import MeasureSystem
from .rationals import LogGap, _float_log, abs_pow, pow_maybe_exact
from .shift_space import UNILATERAL, WeightSequence, derive_weights, wp_product


class Verdict(str, Enum):
    SATISFIED = "Satisfied"
    VIOLATED = "Violated"
    INCONCLUSIVE = "InconclusiveWindow"


@dataclass
class CriterionReport:
    criterion: str
    verdict: Verdict
    witness: dict = field(default_factory=dict)
    notes: str = ""


def _frac_or_float(v: Fraction | float) -> str | float:
    """Witness encoding: exact rationals as strings, floats as numbers."""
    return str(v) if isinstance(v, Fraction) else float(v)


# -- hypercyclicity ---------------------------------------------------------


def hypercyclicity_report(system: MeasureSystem) -> CriterionReport:
    """Decide whether level masses vanish along both directions.

    The composition operator admits dense orbits exactly when, for every
    anchor level j, the mass of level j - n dies and the mass of level
    j + n dies (so the ratio mass(j) / mass(j + n) blows up) along a common
    step schedule.  Under geometric tails both statements hold for every
    schedule when both tail ratios are < 1 and for no schedule otherwise.
    """
    if not system.has_tails:
        return CriterionReport(
            criterion="hypercyclicity",
            verdict=Verdict.INCONCLUSIVE,
            witness={"window": [system.k_min, system.k_max]},
            notes="no tail rule: a finite window cannot decide mass decay at infinity",
        )
    assert system.left_tail is not None and system.right_tail is not None
    decay_left = system.left_tail < 1
    decay_right = system.right_tail < 1
    witness = {
        "left_ratio": str(system.left_tail),
        "right_ratio": str(system.right_tail),
        "decay_left": decay_left,
        "decay_right": decay_right,
    }
    if decay_left and decay_right:
        return CriterionReport(
            criterion="hypercyclicity",
            verdict=Verdict.SATISFIED,
            witness={**witness, "schedule": "every increasing sequence of steps"},
            notes="both tail ratios < 1, so masses vanish in both directions",
        )
    stuck = [side for side, ok in (("left", decay_left), ("right", decay_right)) if not ok]
    return CriterionReport(
        criterion="hypercyclicity",
        verdict=Verdict.VIOLATED,
        witness={**witness, "stuck_sides": stuck},
        notes="a tail ratio >= 1 keeps the corresponding masses bounded away from zero",
    )


def shift_hypercyclicity_report(w: WeightSequence) -> CriterionReport:
    """Decide dense orbits for the weighted backward shift from the weights
    alone.

    Bilateral case: products of weight powers over blocks reaching left
    must vanish and over blocks reaching right must diverge, which under
    periodic tails is decided by the per-period products.  Unilateral case:
    products from the origin must be unbounded above.
    """
    if not w.has_tail_rules():
        return CriterionReport(
            criterion="shift_hypercyclicity",
            verdict=Verdict.INCONCLUSIVE,
            witness={"explicit_range": [w.lo, w.hi]},
            notes="no tail rule: block products beyond the explicit range are unknown",
        )
    if w.side == UNILATERAL:
        assert w.right_tail is not None
        pi = math.prod(w.right_tail, start=Fraction(1))
        witness = {"period_product_wp": str(pi)}
        if pi > 1:
            return CriterionReport(
                "shift_hypercyclicity", Verdict.SATISFIED, witness,
                "partial weight products are unbounded above",
            )
        return CriterionReport(
            "shift_hypercyclicity", Verdict.VIOLATED, witness,
            "partial weight products stay bounded",
        )
    assert w.left_tail is not None and w.right_tail is not None
    pi_left = math.prod(w.left_tail, start=Fraction(1))
    pi_right = math.prod(w.right_tail, start=Fraction(1))
    witness = {
        "left_period_product_wp": str(pi_left),
        "right_period_product_wp": str(pi_right),
    }
    if pi_left < 1 and pi_right > 1:
        return CriterionReport(
            "shift_hypercyclicity", Verdict.SATISFIED, witness,
            "left block products vanish and right block products diverge",
        )
    stuck = [side for side, bad in (("left", pi_left >= 1), ("right", pi_right <= 1)) if bad]
    return CriterionReport(
        "shift_hypercyclicity", Verdict.VIOLATED, {**witness, "stuck_sides": stuck},
        "a per-period product on the wrong side of 1 blocks orbit density",
    )


DECAY_TOL = 1e-6  # a sampled norm counts as decayed once it is at most this

_U = 2.0**-53  # unit roundoff of a double
_TINY = 2.0**-1074  # least subnormal double
_LSE_ERROR = 2.0**-39  # log-sum-exp error on the filter's range (lp_space docstring)


def _normal_float(q: Fraction) -> float | None:
    """float(q), correctly rounded, or None where that is not a normal float."""
    try:
        f = float(q)
    except OverflowError:
        return None
    return f if f >= sys.float_info.min else None


class _DecaySearch:
    """What one weak_mixing_consistency call builds once for its decay
    searches: exact and float cell masses, each distinct coefficient's
    power, the thresholds and a float bracket of DECAY_TOL ** p; nothing is
    stored on the system."""

    def __init__(self, system: MeasureSystem) -> None:
        self.system = system
        mass = self.mass = functools.cache(system.mu_cell)
        self.power = functools.lru_cache(maxsize=None, typed=True)(lambda v: _power(v, system.p))
        # closes over mass, not self: no cycle keeps a finished call's tables alive
        self.float_mass = functools.cache(lambda k, i: _normal_float(mass(k, i)))
        self.log_bound = system.p * Fraction(math.log(DECAY_TOL))
        self.bracket = self._bracket()

    @functools.cached_property
    def tol_x(self) -> Fraction:
        """DECAY_TOL ** x for p = x/y, built only once an exact total needs it."""
        return Fraction(DECAY_TOL) ** self.system.p.numerator

    def _bracket(self) -> tuple[float, float] | None:
        """The adjacent floats t_lo <= DECAY_TOL ** p <= t_hi (one float where
        it is one), checked exactly as t ** y against DECAY_TOL ** x; None
        where DECAY_TOL ** p is not a normal float."""
        p = self.system.p
        t = DECAY_TOL ** float(p) if p.numerator <= 512 else 0.0
        if t < 2 * sys.float_info.min:
            return None
        y, tol_x = p.denominator, self.tol_x
        while Fraction(t) ** y > tol_x:
            t = math.nextafter(t, 0)
        while Fraction(up := math.nextafter(t, math.inf)) ** y <= tol_x:
            t = up
        return t, t if Fraction(t) ** y == tol_x else math.nextafter(t, math.inf)

    def float_test(self, powers: list[Power], exact: bool) -> Callable[..., bool | int | None]:
        """One sample's filter: shift -> True where its norm has certainly
        decayed, False where it certainly has not, None where the exact
        predicate must decide; given a tail ratio, the tail steps from that
        shift in place of True and False, or None (bounds in _first_decay_step)."""
        if self.bracket is None:
            return lambda shift, ratio=None: None
        t_lo, t_hi = self.bracket
        p = float(self.system.p)
        terms = []
        for k, i, a in powers:
            if isinstance(a, Fraction):
                f = _normal_float(a)
            else:
                f = math.exp(p * a) if abs(p * a) < 700 else None
            if f is None:
                return lambda shift, ratio=None: None
            terms.append((k, i, f, not exact and isinstance(a, Fraction)))
        err = (len(terms) + 8) * _U + (0 if exact else 2 * (_LSE_ERROR + p * 2.0**-49))
        up, down, slack = 1 + err, 1 - err, (len(terms) + 1) * _TINY
        err_s, log_t = 2 * (err + 2 * (len(terms) + 1) * _U) + 2 * _U, math.log(t_lo)
        float_mass = self.float_mass

        def test(shift: int, ratio: Fraction | None = None) -> bool | int | None:
            s = 0.0
            for k, i, f, in_log_total in terms:
                m = float_mass(k + shift, i)
                if m is None:
                    return None
                t = f * m
                if in_log_total and not 2.0**-1021 <= t <= 2.0**1023:
                    return None  # the exact path would log a product outside the normal range
                s += t
            if s * up + slack < t_lo:
                return True if ratio is None else 0
            if s * down - slack <= t_hi:
                return None
            if ratio is None:
                return False
            log_s, log_r = math.log(s), -_float_log(ratio)
            x = (log_s - log_t) / log_r if log_r > 2.0**-1000 else math.inf
            if not 0 < x < 2**50:
                return None
            m, delta = math.ceil(x), 16 * _U * x + 2 * (err_s + 4 * _U * (abs(log_s) + abs(log_t))) / log_r
            return m if m - x > delta and x - (m - 1) > delta else None

        return test

    def tail_steps(self, total: Fraction | float, exact: bool, ratio: Fraction) -> int:
        """Least m >= 1 with total * ratio ** m at most the threshold, for a total
        above it: for a log total, (total - log_bound) + m * ln ratio <= 0; for
        an exact one and p = x/y, k * ratio**(y * m) <= 1 with k = total**y /
        DECAY_TOL**x, so m = ceil(M / y) for the least such exponent M."""
        if not exact:
            return LogGap(Fraction(1), ratio, Fraction(total) - self.log_bound).least_crossing()
        y = self.system.p.denominator
        return -(-LogGap((total if y == 1 else total**y) / self.tol_x, ratio).least_crossing() // y)


def _first_decay_step(system: MeasureSystem, phi: StepFunction, search: _DecaySearch | None = None) -> int:
    """Least n >= 1 at which both n-step norms of a nonzero phi, forward and
    inverse, are at most DECAY_TOL; both tail ratios must be < 1.

    A norm is decided from its p-th-power total, with no root: for p = x/y
    an exact total t passes when t ** y <= DECAY_TOL ** x, a log total when
    it is at most log_bound = p * log DECAY_TOL.  Steps are tried one by one
    while part of the support lands in the window, and the inverse total is
    summed only once the forward one has decayed.  ``search`` holds what
    one weak_mixing_consistency call builds once.

    Each such step is first put to a float filter: s, the float sum over
    the support of float(power) * float(mass), a log power L entering as
    exp(L) (|L| < 700), against floats t_lo <= DECAY_TOL ** p <= t_hi.
    With u = 2**-53, n terms, all conversions correctly rounded and normal
    and exp faithful, each product is within 4u of its term, or, where it
    underflows, 2**-1075 more; summation adds (n - 1)u of the total S.  So
    |s - S| <= g * S + n * 2**-1075, g = (n + 3)u / (1 - (n + 3)u).  With
    E = (n + 8)u and slack (n + 1) * 2**-1074, which also cover the
    roundings of 1 +- E and of the tests themselves (n < 2**26), a step has
    decayed where s * (1 + E) + slack < t_lo and not where s * (1 - E) -
    slack > t_hi; for an exact total that is the exact predicate's answer.
    A log total's predicate compares its log-sum-exp, within 2**-39 of
    ln S here (lp_space docstring; exact terms whose products with their
    masses are not normal are left to it), with log_bound, within p * 2**-49
    of ln DECAY_TOL ** p (math.log faithful); E grows by twice the sum of
    the two, so the filter answers as that predicate does.  Where it cannot
    tell, or any power or mass is not a normal float, or DECAY_TOL ** p is
    not (p past about 51), the exact predicate decides.

    From n0 on the support lies in the tails, where each total falls by the
    tail ratio r per step (left tail forward, right tail inverse): the rest
    is the least m with the total at n0 times r ** m at most the threshold,
    ceil(X) for X = A / -ln r, A = ln S - ln DECAY_TOL ** p (exact total)
    or log-sum-exp - log_bound (log total), A > 0 where the norm exceeds
    the tolerance.  Where the filter says it does, it takes x = (log s -
    log t_lo) / l, l = -_float_log(r), within 11u * -ln r + 2**-1073 of -ln r.
    There s > t_hi >= 2**-1022, so slack < 2(n + 1)u * s and S / s is within
    E' = E + 2(n + 1)u of 1; a log total's two errors add under E / 2, and
    t_hi / t_lo <= 1 + 2u, so A is within 2E' + 2u of ln s - ln t_lo, and
    faithful logs and the subtraction add 4u(|log s| + |log t_lo|): a total
    e_A.  For l >= 2**-1000, l / -ln r is within 12u of 1, and the division
    rounds by u, so |x - X| <= 15u * x + (1 + 14u) e_A / l; delta = 16u * x
    + 2 e_A / l covers that and its own roundings.  Where m - x and x - (m
    - 1) both exceed delta for m = ceil(x) (each difference exact by
    Sterbenz, or rounded monotonically against the float delta), m - 1 < X
    < m, so m is the exact answer.  Else, for x outside (0, 2**50), l below
    2**-1000 or a tie k * r ** m = 1 (always within delta), the exact total
    at n0 goes to _DecaySearch.tail_steps's least crossing, which never
    builds r ** n (a tail near 1 puts it past 10**13).
    """
    search = search or _DecaySearch(system)
    powers = lp_powers(system, phi, search.power)
    exact = is_exact(powers)
    y, mass, log_bound = system.p.denominator, search.mass, search.log_bound

    def above_tol(shift: int) -> Fraction | float | None:
        """The total at this shift while its norm exceeds DECAY_TOL, else None."""
        total = shifted_power_sum(system, powers, shift, mass)
        exceeds = total**y > search.tol_x if exact else total > log_bound
        return total if exceeds else None

    float_test = search.float_test(powers, exact)

    def decayed(shift: int) -> bool:
        verdict = float_test(shift)
        return above_tol(shift) is None if verdict is None else verdict

    levels = [k for k, _, _ in powers]
    n0 = max(max(levels) - system.k_min, system.k_max - min(levels)) + 1
    for n in range(1, n0):
        if decayed(-n) and decayed(n):
            return n
    steps = [0]
    for shift, ratio in ((-n0, system.left_tail), (n0, system.right_tail)):
        m = float_test(shift, ratio)
        if m is None and (total := above_tol(shift)) is not None:
            m = search.tail_steps(total, exact, ratio)
        steps.append(m or 0)
    return n0 + max(steps)


def weak_mixing_consistency(
    system: MeasureSystem,
    *,
    seed: int = 0,
    samples: int = 20,
) -> CriterionReport:
    """Weak mixing of the doubled operator, cross-checked by sampling.

    The verdict is the hypercyclicity verdict.  When it is Satisfied, the
    witness gives the worst first step, over random rational step functions,
    at which their forward and inverse norms are both at most DECAY_TOL.
    """
    from .sampling import random_step_function

    base = hypercyclicity_report(system)
    if base.verdict is not Verdict.SATISFIED:
        return CriterionReport(
            criterion="weak_mixing",
            verdict=base.verdict,
            witness=dict(base.witness),
            notes="inherited: the doubled operator mixes weakly exactly when the operator itself has dense orbits",
        )
    rng = random.Random(seed)
    search = _DecaySearch(system)  # for this call only; the samples share levels
    worst_n = 0
    for _ in range(samples):
        phi = random_step_function(rng, system)
        if not phi.is_zero():
            worst_n = max(worst_n, _first_decay_step(system, phi, search))
    return CriterionReport(
        criterion="weak_mixing",
        verdict=Verdict.SATISFIED,
        witness={
            **base.witness,
            "samples": samples,
            "tolerance": DECAY_TOL,
            "worst_first_decay_step": worst_n,
        },
        notes="sampled forward and inverse iterates decayed below tolerance",
    )


# -- spaceability: sup over n of inf over k of weight products --------------


class _LogTable:
    """Float logs l(j) of the prefix products P(j) of w's powers, P(lo - 1) = 1, and their bound B (_sup_inf)."""

    def __init__(self, w: WeightSequence, first: int, last: int) -> None:
        def tail_logs(tail: tuple[Fraction, ...], count: int) -> tuple[list[float], float]:
            # q * ln Pi + ln pp_r for the first m = q * L + r <= count entries, and a bound on the terms' sizes
            heads = [_float_log(v) for v in accumulate(tail[:-1], mul, initial=Fraction(1))]
            whole, period = _float_log(math.prod(tail, start=Fraction(1))), len(tail)
            logs = [q * whole + heads[r] for q, r in (divmod(m, period) for m in range(1, count + 1))]
            return logs, count // period * abs(whole) + max(map(abs, heads))

        lo, hi = w.lo, w.hi
        logs = [_float_log(v) for v in w._prefix]  # l(lo - 1) .. l(hi)
        top, (run, size) = logs[-1], tail_logs(w.right_tail, last - hi)
        logs, size = logs + [top + x for x in run], max(abs(top) + size, *map(abs, logs))
        if first < lo - 1:
            if w.left_tail is None:
                wp_product(w, first + 1, lo - 1)  # raises TailRuleMissing on index first + 1
            run, size_left = tail_logs(w.left_tail, lo - 1 - first)
            logs, size = [-x for x in reversed(run)] + logs, max(size, size_left)
        self.w, self.first, self.logs, self.bound = w, min(first, lo - 1), logs, 2.0**-47 * size + 2.0**-990

    def min_product(self, n: int, ks: range, floor: float = -math.inf) -> Fraction | None:
        """min over k in ks of wp_product(w, k + 1, k + n); None if below e**floor."""
        a, b, logs = ks.start - self.first, ks.stop - self.first, self.logs
        gaps = list(map(sub, logs[a + n:b + n], logs[a:b]))
        if (low := min(gaps)) + self.bound < floor:
            return None
        return min(wp_product(self.w, k + 1, k + n) for k in compress(ks, map((low + 2 * self.bound).__ge__, gaps)))


def _sup_inf(w: WeightSequence, k_from: int | None, n_max: int) -> tuple[Fraction, int, bool]:
    """Max over 1 <= n <= n_max of q(n) = inf over k >= k_from (all of Z
    where k_from is None) of wp_product(w, k + 1, k + n), the least n
    attaining it (0 if none), and whether the cap stopped the search early.

    Each q(n) is a finite minimum.  From k_from = 1 (right period of length
    L; bilateral w read in place), k up to max(hi, 0) + L meets every phase
    of the tail.  On Z (period-1 tails a and b) k runs from lo - 1 - n to
    hi: every block meeting the window, the two end ones giving a**n, b**n.

    The cap is the right period product Pi (min(a, b) on Z, L = 1), at most
    1 wherever this is called.  The L deep-tail runs of length r, one per
    phase, multiply to Pi**r, so q(r) <= Pi**(r / L) <= cap**(r // L).
    Once cap ** ((n + 1) // L) is at most the best, no later n beats it
    under the strict comparison that keeps the least n.

    A certified float filter (Shewchuk 1997) picks the products taken
    exactly.  _LogTable's l(j) is a _float_log of a prefix entry or, in a
    tail, l(hi) + q * ln Pi + ln pp_r (pp_r: r < L period entries; q < 2**53;
    the last two negated left of lo).  With u = 2**-53, _float_log is within
    11u|ln x| + 2**-1073, so 11.1u of its own size plus 2**-1072; the product
    and two sums add u each of S, the largest sum of term sizes.  So f(k, n)
    = l(k + n) - l(k), with 2.01u * S from the subtraction, is within 32.1u
    * S + 2**-999 of ln wp_product(w, k + 1, k + n), and min_k f as close to
    ln q(n).  B = 2**-47 * S + 2**-990 also covers the roundings of S, min f
    + B and min f + 2B.  An n with min f + B below the float log of best less
    2**-49 of its size and 2**-1000 (at most ln best) has q(n) < best and is
    skipped; else the k with f <= min f + 2B, the exact argmin among them,
    are taken exactly.
    """
    tail = w.right_tail
    assert tail is not None
    period = len(tail)
    cap = min(w.left_tail[0], tail[0]) if k_from is None else math.prod(tail, start=Fraction(1))
    k_last = w.hi if k_from is None else max(w.hi, 0) + period
    table = _LogTable(w, w.lo - 1 - n_max if k_from is None else k_from, k_last + n_max)
    best, arg, floor = Fraction(0), 0, -math.inf
    for n in range(1, n_max + 1):
        v = table.min_product(n, range(w.lo - 1 - n if k_from is None else k_from, k_last + 1), floor)
        if v is not None and v > best:
            best, arg = v, n
            floor = (log_best := _float_log(best)) - (2.0**-49 * abs(log_best) + 2.0**-1000)
        if cap ** ((n + 1) // period) <= best:
            return best, arg, True
    return best, arg, False


def menet_unilateral(w: WeightSequence) -> CriterionReport:
    """Boundedness of sup over n of inf over k >= 1 of the product of n
    consecutive weights starting after k, by the engine conditionmix_lhs
    shares, ``_sup_inf``.

    Bilateral input is read from index 1 on, in place: every block starts
    at index 2 or later, so no restricted copy is built.  Writing Pi for
    the product of one tail period: if Pi > 1 the inner infima grow
    geometrically and the supremum is infinite (Violated).  If Pi <= 1 the
    infimum is eventually periodic-monotone, so the supremum is attained
    within the first max(hi, 1) + L - 1 values of n and is computed
    exactly, with no budget; the search stops early where Pi < 1.  The
    witness also carries a certified uniform bound valid for every n: the
    larger of the supremum and the worst prefix product of one tail period.
    """
    hi = max(w.hi, 0)
    if w.right_tail is None:
        return CriterionReport(
            "menet_unilateral", Verdict.INCONCLUSIVE, {"explicit_range": [1, hi]},
            "no tail rule: products beyond the explicit range are unknown",
        )
    period = w.right_tail
    pi = math.prod(period, start=Fraction(1))
    if pi > 1:
        return CriterionReport(
            "menet_unilateral", Verdict.VIOLATED, {"period_product_wp": str(pi)},
            "tail period product > 1: the inner infima diverge, the supremum is infinite",
        )
    sup_pp, arg_n, _ = _sup_inf(w, 1, max(hi, 1) + len(period) - 1)
    bound_pp = max(sup_pp, *accumulate(period[:-1], mul, initial=Fraction(1)))
    inv_p = 1 / w.p
    return CriterionReport(
        criterion="menet_unilateral",
        verdict=Verdict.SATISFIED,
        witness={
            "period_product_wp": str(pi),
            "sup_inf_wp": str(sup_pp),
            "attained_at_n": arg_n,
            "bound_wp": str(bound_pp),
            "sup_inf": _frac_or_float(pow_maybe_exact(sup_pp, inv_p)),
            "bound": _frac_or_float(pow_maybe_exact(bound_pp, inv_p)),
        },
        notes="tail period product <= 1: the supremum of inner infima is finite and attained",
    )


def conditionmix_lhs(system: MeasureSystem) -> CriterionReport:
    """Exact value of sup over n >= 1 of inf over all k of
    mass(level k) / mass(level k + n), the least n attaining it, and the
    verdict "<= 1".  On the derived weights that ratio is
    wp_product(w, k + 1, k + n), so up to the window span S this is the
    engine menet_unilateral shares, ``_sup_inf``, with k over all of Z.

    With a the left tail ratio and b the reciprocal of the right one, deep
    tail pairs cap every infimum by min(a, b)**n: the supremum is infinite
    (Violated) exactly when a > 1 and b > 1, else at most 1.  Past S, if
    that cap never stopped the engine, each pair has an end in a tail, so
    the infimum is min(alpha * a**n, beta * b**n), alpha and beta taken at
    n = S + 1: log-concave, its supremum is at S + 1 or where the growing
    term meets the other.  rationals.LogGap finds that n and compares the
    values there and with the window's best, all exactly.
    """
    if not system.has_tails:
        return CriterionReport(
            "conditionmix", Verdict.INCONCLUSIVE, {"window": [system.k_min, system.k_max]},
            "no tail rule: window ratios bound the infima from above only, so neither verdict is certifiable",
        )
    assert system.left_tail is not None and system.right_tail is not None
    a, b = system.left_tail, 1 / system.right_tail
    witness: dict = {"left_step": str(a), "right_step": str(b)}
    if a > 1 and b > 1:
        return CriterionReport(
            "conditionmix", Verdict.VIOLATED, {**witness, "unbounded": True},
            "both step ratios exceed 1: every candidate ratio diverges with n, the supremum is infinite",
        )
    w, k_min, k_max = derive_weights(system), system.k_min, system.k_max
    best, arg, stopped = _sup_inf(w, None, k_max - k_min)
    value = None
    if not stopped:
        n0 = k_max - k_min + 1
        # from n0 on a pair with k < k_min scales by a per step (its right end fixed), any other by b
        table = _LogTable(w, k_min - n0, k_max + n0)
        (s_lo, lo), (s_hi, hi) = sorted((s, table.min_product(n0, ks)) for s, ks in
                                        ((a, range(k_min - n0, k_min)), (b, range(k_min, k_max + 1))))
        coef, step, m = min(lo, hi), Fraction(1), 0
        if s_hi > 1 and hi < lo:
            # hi * s_hi**m grows to meet lo * s_lo**m: the supremum is at the last m up to it or the next
            meet = LogGap(lo / hi, s_lo / s_hi)
            m = meet.least_crossing()  # the first m with hi * s_hi**m >= lo * s_lo**m
            m -= meet.sign(m) < 0
            coef, step, m = (hi, s_hi, m) if LogGap(hi / lo / s_lo, s_hi / s_lo).sign(m) >= 0 else (lo, s_lo, m + 1)
        if arg == 0 or LogGap(coef / best, step).sign(m) > 0:
            # a product where bit lengths allow more digits than int-to-str's 4300
            bits = max(coef.numerator.bit_length() + m * step.numerator.bit_length(),
                       coef.denominator.bit_length() + m * step.denominator.bit_length())
            value, arg = (str(coef * step**m) if bits * 30103 < 4299 * 10**5 else f"{coef}*({step})**{m}"), n0 + m
    witness.update({"value": value or str(best), "attained": True, "attained_at_n": arg})
    return CriterionReport("conditionmix", Verdict.SATISFIED, witness, "supremum of worst-case mass ratios is <= 1")


# -- constructive subspace witness ------------------------------------------


@dataclass
class CofiniteWitness:
    """Nonzero step function in the kernel of the given functionals,
    supported on levels whose n-step pullback does not expand."""

    shift: int
    levels: tuple[int, ...]
    coeffs: tuple[Fraction, ...]
    level_ratios: tuple[Fraction, ...]
    quotient_pp: Fraction | float
    pairings: tuple[Fraction, ...]


def _admissible_levels(system: MeasureSystem, n: int, count: int) -> list[int]:
    """First ``count`` levels, scanning upward, whose n-step backward mass
    ratio is <= 1.

    With tails the scan band holds ``count`` levels of each deep zone, where
    the ratio is constant, plus the whole transition region; a short result
    therefore proves no admissible level exists anywhere.  Without tails
    only in-window pairs are checkable.
    """
    if system.has_tails:
        candidates = range(system.k_min - (n + count), system.k_max + (n + count) + 1)
    else:
        candidates = range(system.k_min + n, system.k_max + 1)
    found = list(islice((k for k in candidates if system.mu_W(k - n) <= system.mu_W(k)), count))
    if len(found) == count:
        return found
    raise NoAdmissibleLevels(
        f"fewer than {count} levels have a non-expanding {n}-step pullback"
    )


def _rational_kernel_vector(rows: list[list[Fraction]], width: int) -> list[Fraction]:
    """A nonzero rational solution of rows . x = 0; needs width > rank."""
    matrix = [row[:] for row in rows]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][col] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        lead = matrix[r][col]
        matrix[r] = [v / lead for v in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [u - factor * v for u, v in zip(matrix[i], matrix[r])]
        pivots.append((r, col))
        r += 1
        if r == len(matrix):
            break
    pivot_cols = {col for _, col in pivots}
    free = next(col for col in range(width) if col not in pivot_cols)
    x = [Fraction(0)] * width
    x[free] = Fraction(1)
    for row, col in pivots:
        x[col] = -matrix[row][free]
    return x


def cofinite_quotient_witness(
    system: MeasureSystem,
    n: int,
    functionals: list[dict[int, Fraction]],
) -> CofiniteWitness:
    """Build a nonzero level-constant step function annihilated by the
    given functionals whose n-fold pullback does not grow in norm.

    A functional is a level-indexed rational density; its pairing with a
    level-constant function is the sum of density * coefficient * level
    mass.  m functionals leave a nontrivial kernel on any m + 1 levels, and
    picking only levels whose n-step backward mass ratio is <= 1 makes the
    norm quotient at most 1 regardless of the kernel vector.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = len(functionals)
    levels = _admissible_levels(system, n, m + 1)
    rows = [
        [psi.get(k, Fraction(0)) * system.mu_W(k) for k in levels]
        for psi in functionals
    ]
    coeffs = _rational_kernel_vector(rows, m + 1) if m else [Fraction(1)]
    ratios = [system.mu_W(k - n) / system.mu_W(k) for k in levels]
    weights = [abs_pow(a, system.p) * system.mu_W(k) for k, a in zip(levels, coeffs)]
    quotient = sum(map(mul, weights, ratios), Fraction(0)) / sum(weights, Fraction(0))
    pairings = tuple(
        sum((row[j] * coeffs[j] for j in range(m + 1)), Fraction(0)) for row in rows
    )
    return CofiniteWitness(
        shift=n,
        levels=tuple(levels),
        coeffs=tuple(coeffs),
        level_ratios=tuple(ratios),
        quotient_pp=quotient,
        pairings=pairings,
    )


# -- telescoping lower bound ------------------------------------------------


@dataclass
class TelescopingBound:
    """Outcome of the exact block-telescoping comparison."""

    holds: bool
    lhs: Fraction
    rhs: Fraction
    blocks: int
    remainder: int
    star_c: Fraction
    checked_range: tuple[int, int]


def telescoping_bound_check(
    system: MeasureSystem,
    j: int,
    n_k: int,
    n: int,
    cp: Fraction,
) -> TelescopingBound:
    """Verify mass(j - n_k) / mass(j) >= cp**(blocks + 1) / c**(n + remainder).

    cp is a p-th power constant > 1 assumed to lie strictly below every
    n-step ratio mass(k) / mass(k + n) for k in [j - max(n_k, n), j - n];
    the assumption is checked exactly and HypothesisViolated names the
    first offending level.  Writing n_k = blocks * n + remainder, the chain
    of block ratios and the one-step constant c give the stated bound.
    """
    if n < 1 or n_k < 1:
        raise ValueError("n and n_k must be >= 1")
    if cp < 1:
        raise ValueError("cp must be >= 1")
    c = system.validate_star()
    k_first, k_last = j - max(n_k, n), j - n
    # below k_min - n and above k_max both levels of a ratio lie in one
    # tail, where the ratio is constant: those zones are checked at their
    # first level only, still in increasing order
    checked = list(range(max(k_first, system.k_min - n), min(k_last, system.k_max) + 1))
    if k_first < system.k_min - n:
        checked.insert(0, k_first)
    if max(k_first, system.k_max + 1) <= k_last:
        checked.append(max(k_first, system.k_max + 1))
    for k in checked:
        ratio = system.mu_W(k) / system.mu_W(k + n)
        if ratio <= cp:
            raise HypothesisViolated(
                f"n-step ratio at level {k} is {ratio}, not above {cp}", level=k
            )
    blocks, remainder = divmod(n_k, n)
    lhs = system.mu_W(j - n_k) / system.mu_W(j)
    rhs = cp ** (blocks + 1) / c ** (n + remainder)
    return TelescopingBound(
        holds=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
        blocks=blocks,
        remainder=remainder,
        star_c=c,
        checked_range=(k_first, k_last),
    )
