"""Decidable certificates for the dynamics of the model and its shift.

Every criterion here returns a report with one of three verdicts:

* ``Satisfied`` and ``Violated`` are exact: they are backed by rational
  arithmetic on the window data plus the geometric tail rules, and the
  witness field carries the numbers that decide the case, as exact values
  (Fraction, int, bool, float where a root is irrational, or an
  ``UnbuiltPower``); only the renderers in ``cli`` write them as text.
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
    hypercyclicity, so the verdict is inherited; a Satisfied verdict also
    carries the uniform decay step: the least n at which every step function
    on the sampled levels has decayed, forward and inverse, to within a
    relative tolerance, from one maximum over cell mass ratios per step and a
    closed form through the tails.

``menet_unilateral`` and ``conditionmix_lhs``
    One engine, ``_sup_inf``: sup over n of inf over k of n-fold weight
    products, stopped once a deep-tail cap shows no later n does better; a
    certified float filter (``_LogTable``) keeps a band per n, and ``min``
    by built product takes its first exact argmin (by _order everywhere else).
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

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, compress, islice
from operator import itemgetter, mul, sub

from .errors import HypothesisViolated, NoAdmissibleLevels
from .measure_system import MeasureSystem
from .rationals import LogGap, _float_log, abs_pow, pow_maybe_exact
from .sampling import support_levels
from .shift_space import UNILATERAL, WeightSequence, _product, _split, wp_product


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


@dataclass(frozen=True)
class UnbuiltPower:
    """coef * step**m, kept in its parts where built it could pass int-to-str's default digit limit."""

    coef: Fraction
    step: Fraction
    m: int


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
        "left_ratio": system.left_tail,
        "right_ratio": system.right_tail,
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
        witness = {"period_product_wp": pi}
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
        "left_period_product_wp": pi_left,
        "right_period_product_wp": pi_right,
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


DECAY_TOL = 1e-6  # an iterate has decayed once its norm is at most this fraction of the norm it left from


def _ratio(system: MeasureSystem, j: int, h: int, i: int) -> tuple[tuple[Fraction, int], ...]:
    """mu(j, i) / mu(h, i) as LogGap terms, from the model's window pairs (_rows): their quotient
    and, per end past the window, the tail ratio to the +-distance (_tail_factor)."""
    (j, t, m), (h, u, v) = [(x, 1, 0) if system.k_min <= x <= system.k_max else system._tail_factor(x) for x in (j, h)]
    (x, y), (z, w) = system._rows[j][i], system._rows[h][i]
    return (Fraction(x * w, y * z), 1), (t, m), (u, -v)


def _sign(x: Sequence[tuple[Fraction, int]], y: Sequence[tuple[Fraction, int]] = ()) -> int:
    """The sign of ln(prod x / prod y) for LogGap term lists x and y: LogGap's sign at m = 0."""
    return LogGap((*x, *[(q, -e) for q, e in y]), Fraction(1)).sign(0)


_order = cmp_to_key(_sign)  # the exact order of term lists: min and max by it keep the first of equal products


def _uniform_decay_step(system: MeasureSystem, levels: range) -> tuple[int, int, int, int]:
    """N, the least n >= 1 at which every nonzero step function phi on these
    levels has ||T^n phi|| and ||T^-n phi|| at most DECAY_TOL ||phi||, and the
    cell (k, i) with the largest ratio above it at shift s = 1 - N or N - 1.

    ||T^n phi||^p / ||phi||^p is a convex combination of the cell ratios
    r = mu(k - n, i) / mu(k, i) (+n for T^-n), so every phi decays at n exactly
    when max r <= DECAY_TOL ** p, decided as the sign of ln r - p ln DECAY_TOL
    (rationals.LogGap, no power built), DECAY_TOL being the double nearest
    10**-6, 4722366482869645 / 2**72.  Past n0 every shifted cell lies in a
    tail (< 1), where each ratio falls by the tail ratio a step: one least
    crossing per side from the largest ratio at -n0 and n0.  Below n0 a
    certified float filter decides first: f, a difference of two logs in one
    _LogTable over the model's _cell_logs (a column per cell, extended by one
    pair of tail runs), is within its bound B of ln r (_sup_inf); theta =
    float(p) * math.log(DECAY_TOL) is within 4.1u of p ln DECAY_TOL (u =
    2**-53), and 1 -+ 2**-49 widen it to [t_lo, t_hi] past that and their own
    roundings (past p = 2**960, t_hi at 2**960 and t_lo = -inf).  So r exceeds
    the tolerance where f - B > t_hi, does not where f + B < t_lo, and between
    a step fails exactly where the exact argmax, top(), exceeds it.  A step
    retries the cell that failed last on its side before it scans them all; a
    side that passed with max f + B < t_lo passes m more steps while max f + B
    + m L < t_lo (in Fractions), as each ln r moves at most L = B + the largest
    one-step difference in a column a step.  Exact ratios are _ratio's LogGap
    terms over the model's _rows, so no power and no ``mu`` is built.  top(),
    also the named cell, is ``max`` by _order, the first exact argmax in (level,
    cell) order, over the cells with f >= max f - 2B, which hold all that attain it.
    """
    p, k_min, k_max, lo, hi = system.p, system.k_min, system.k_max, levels.start, levels.stop - 1
    left, right, tol = system.left_tail, system.right_tail, (Fraction(DECAY_TOL), -p)
    assert left is not None and right is not None
    n0 = max(hi - k_min, k_max - lo) + 1
    table = _LogTable(system._cell_logs, k_min, _tail_logs((1 / left,), k_min - lo + n0),
                      _tail_logs((right,), hi + n0 - k_max))
    logs, bound, first = table.logs, table.bound, table.first  # logs[i][j - first] is cell i of level j
    theta = float(min(p, 2**960)) * math.log(DECAY_TOL)
    t_lo, t_hi = (theta * (1 + 2.0**-49) if p <= 2**960 else -math.inf), theta * (1 - 2.0**-49)

    def exceeds(k: int, i: int, s: int) -> bool:
        f = logs[i][k + s - first] - logs[i][k - first]
        return f - bound > t_hi or (f + bound >= t_lo and _sign((*_ratio(system, k + s, k, i), tol)) > 0)

    def top(s: int, rows: list[list[float]] | None = None) -> tuple[tuple[tuple[Fraction, int], ...], int, int]:
        cut = max(map(max, rows := rows or table.gaps(s, levels))) - 2 * bound
        return max(((_ratio(system, k + s, k, i), k, i) for k in levels for i, row in enumerate(rows)
                    if row[k - lo] >= cut), key=lambda cell: _order(cell[0]))

    lip = Fraction(max(max(map(abs, map(sub, column[1:], column[:-1]))) for column in logs)) + Fraction(bound)
    last: dict[bool, tuple[int, int] | None] = {}
    clear = {False: 0, True: 0}  # per side, the |shift| up to which it is known to pass

    def passes(s: int) -> bool:
        cell = last.get(s > 0)
        if abs(s) > clear[s > 0] and (cell is None or not exceeds(*cell, s)):
            rows = table.gaps(s, levels)
            top_f, i = max((max(row), i) for i, row in enumerate(rows))
            if top_f - bound > t_hi:
                cell = lo + rows[i].index(top_f), i
            elif top_f + bound < t_lo:
                room = Fraction(t_lo) - Fraction(top_f) - Fraction(bound)
                cell, clear[s > 0] = None, abs(s) + math.ceil(room / lip) - 1
            else:  # the exact argmax of the band exceeds exactly where any cell does
                cell = top(s, rows)[1:]
                cell = cell if exceeds(*cell, s) else None
            last[s > 0] = cell
        return cell is None

    n = next((n for n in range(1, n0) if passes(-n) and passes(n)), None)
    if n is None:
        ends = [(LogGap((*r, tol), tail).least_crossing(), k, i, s)
                for s, tail in ((-n0, left), (n0, right)) for r, k, i in [top(s)]]
        m, k, i, s = max(ends, key=itemgetter(0))
        if m:  # past n0 every ratio falls by its side's tail a step, so the argmax at n0 is the one at N - 1
            return n0 + m, k, i, (n0 + m - 1) * (1 if s > 0 else -1)
        n = n0
    s = 1 - n if _sign((*top(1 - n)[0], tol)) > 0 else n - 1  # the forward side fails at n - 1, or else the inverse
    return (n, *top(s)[1:], s)


def weak_mixing_consistency(system: MeasureSystem) -> CriterionReport:
    """Weak mixing of the doubled operator: the hypercyclicity verdict.  A Satisfied
    one carries the uniform step of every step function on ``sampling.support_levels``,
    the levels, and the cell and direction still above the tolerance one step
    earlier (_uniform_decay_step)."""
    base = hypercyclicity_report(system)
    if base.verdict is not Verdict.SATISFIED:
        return CriterionReport(
            criterion="weak_mixing",
            verdict=base.verdict,
            witness=dict(base.witness),
            notes="inherited: the doubled operator mixes weakly exactly when the operator itself has dense orbits",
        )
    levels = support_levels(system)
    n, k, i, s = _uniform_decay_step(system, levels)
    return CriterionReport(
        criterion="weak_mixing",
        verdict=Verdict.SATISFIED,
        witness={
            **base.witness, "uniform_step": n, "levels": [levels.start, levels.stop - 1], "tolerance": DECAY_TOL,
            "slowest_cell": {"level": k, "cell": system.cells[i], "direction": "inverse" if s > 0 else "forward"},
        },
        notes="forward and inverse iterates of every step function on the levels are within the relative tolerance "
              "at the uniform step",
    )


# -- spaceability: sup over n of inf over k of weight products --------------


def _tail_logs(tail: tuple[Fraction, ...], count: int) -> tuple[list[float], float]:
    """Float logs of the first count products of a periodic tail, q * ln Pi + ln pp_r for
    m = q * L + r, and a bound on their terms' sizes (_sup_inf); none for count <= 0."""
    if count <= 0:
        return [], 0.0
    heads = [_float_log(v) for v in accumulate(tail[:-1], mul, initial=Fraction(1))]
    whole, period = _float_log(math.prod(tail, start=Fraction(1))), len(tail)
    logs = [q * whole + heads[r] for q, r in (divmod(m, period) for m in range(1, count + 1))]
    return logs, count // period * abs(whole) + max(map(abs, heads))


class _LogTable:
    """Float logs l(j) of columns c(j) of positive rationals, each given as logs on [lo, lo + len - 1]
    and extended past it by the same two _tail_logs runs: c(hi + m) is c(hi) times the first m right
    products, c(lo - m) is c(lo) over the first m left ones; and the bound B of two logs' differences
    in a column, which sets the band of gaps(n, ks), its differences at a shift n (_sup_inf)."""

    def __init__(self, columns: Sequence[Sequence[float]], lo: int, left: tuple[list[float], float],
                 right: tuple[list[float], float]) -> None:
        (run_l, size_l), (run_r, size_r) = left, right
        size = max(max(abs(logs[0]) + size_l, abs(logs[-1]) + size_r, *map(abs, logs)) for logs in columns)
        self.first, self.bound = lo - len(run_l), 2.0**-47 * size + 2.0**-990
        self.logs = [[c[0] - x for x in reversed(run_l)] + [*c] + [c[-1] + x for x in run_r] for c in columns]

    @classmethod
    def of_weights(cls, w: WeightSequence, first: int, last: int) -> "_LogTable":
        """Logs of the prefix products P(j) of w's powers, P(lo - 1) = 1, from ``w._prefix_logs``."""
        if first < (lo := w.lo - 1) and w.left_tail is None:
            _split(w, first + 1, lo)  # raises TailRuleMissing on index first + 1
        return cls((w._prefix_logs,), lo, _tail_logs(w.left_tail, lo - first), _tail_logs(w.right_tail, last - w.hi))

    def gaps(self, n: int, ks: range) -> list[list[float]]:
        """f(k, n) = l(k + n) - l(k) for the k in ks, a list per column: within B of ln c(k + n) / c(k)."""
        a, b, out = ks.start - self.first, ks.stop - self.first, []
        for logs in self.logs:  # a loop: a comprehension's frame cost _sup_inf about 3% on Python 3.11
            out.append(list(map(sub, logs[a + n:b + n], logs[a:b])))
        return out

    def band(self, n: int, ks: range, floor: float = -math.inf) -> list[int]:
        """The k in ks with f(k, n) <= min f + 2B (_sup_inf), every argmin of c(k + n) / c(k); none if below floor."""
        (gaps,) = self.gaps(n, ks)
        if (low := min(gaps)) + self.bound < floor:
            return []
        return list(compress(ks, map((low + 2 * self.bound).__ge__, gaps)))


def _sup_inf(w: WeightSequence, table: _LogTable, ks: Callable[[int], range], n_max: int, cap: Fraction,
             period: int) -> tuple[Fraction, int, bool]:
    """Max over 1 <= n <= n_max of q(n) = min over k in ks(n) of
    wp_product(w, k + 1, k + n) (table: logs over every block taken), the
    least n attaining it (0 if none), and whether the cap stopped the search.

    The caller's cap <= 1 bounds q(r) by cap ** (r // period), which does
    not grow with r.  So once (n + 1) // period >= stop, the least q with
    cap**q <= best (0 or 1 by one comparison, else one exact LogGap crossing
    per new best; never for cap = 1 > best), no later n beats the best.
    Its crossing reads 1 / best as an argmin block's inverted ``_split`` terms, taken only where
    its sign at the loop's last q, (n_max + 1) // period, puts it in the loop; else stop stays past.

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
    skipped; else its band, the k with f <= min f + 2B, is taken exactly.
    """
    best, arg, floor, stop, last = Fraction(0), 0, -math.inf, math.inf, (n_max + 1) // period
    for n in range(1, n_max + 1):
        band = table.band(n, ks(n), floor)
        if band and (least := min((wp_product(w, k + 1, k + n), k) for k in band))[0] > best:
            (best, k), arg = least, n
            floor = (log_best := _float_log(best)) - (2.0**-49 * abs(log_best) + 2.0**-1000)
            stop = 0 if best >= 1 else 1 if cap <= best else stop
            if best < cap < 1 and (gap := LogGap([(q, -e) for q, e in _split(w, k + 1, k + n)], cap)).sign(last) <= 0:
                stop = gap.least_crossing()  # of cap**q / best, best as its argmin block's terms: inside the loop
        if (n + 1) // period >= stop:
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
    exactly, with no budget.  Each infimum is a minimum over k in [1,
    max(hi, 0) + L], every phase of the tail, and at n = r its L deep-tail
    runs multiply to Pi**r, so it is at most Pi**(r // L): the engine's cap.
    The witness also carries a certified uniform bound valid for every n: the
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
            "menet_unilateral", Verdict.VIOLATED, {"period_product_wp": pi},
            "tail period product > 1: the inner infima diverge, the supremum is infinite",
        )
    n_max, ks = max(hi, 1) + len(period) - 1, range(1, hi + len(period) + 1)
    sup_pp, arg_n, _ = _sup_inf(w, _LogTable.of_weights(w, 1, ks[-1] + n_max), lambda n: ks, n_max, pi, len(period))
    bound_pp = max(sup_pp, *accumulate(period[:-1], mul, initial=Fraction(1)))
    inv_p = 1 / w.p
    return CriterionReport(
        criterion="menet_unilateral",
        verdict=Verdict.SATISFIED,
        witness={
            "period_product_wp": pi,
            "sup_inf_wp": sup_pp,
            "attained_at_n": arg_n,
            "bound_wp": bound_pp,
            "sup_inf": pow_maybe_exact(sup_pp, inv_p),
            "bound": pow_maybe_exact(bound_pp, inv_p),
        },
        notes="tail period product <= 1: the supremum of inner infima is finite and attained",
    )


def conditionmix_lhs(system: MeasureSystem, w: WeightSequence) -> CriterionReport:
    """Exact value of sup over n >= 1 of inf over all k of
    mass(level k) / mass(level k + n), the least n attaining it, and the
    verdict "<= 1".  On w, the weights derived from system, that ratio is
    wp_product(w, k + 1, k + n), so up to the window span S this is the
    engine menet_unilateral shares, ``_sup_inf``, on k in [k_min - n, k_max].

    With a the left tail ratio and b the reciprocal of the right one, the
    end blocks, k = k_min - n and k_max, cap every infimum by min(a, b)**n,
    the engine's cap: the supremum is infinite (Violated) exactly when a > 1
    and b > 1, else at most 1.  Past S, if that cap never stopped the
    engine, each pair has an end in a tail, so the infimum is min(alpha *
    a**n, beta * b**n), alpha and beta the ``_split`` terms of each side's
    block at n0 = S + 1, ``min`` by _order over the engine's table's band:
    log-concave, its supremum is at n0 or where the growing term meets the
    other.  LogGap finds that n and compares the values there and with the
    window's best on terms; only a tail supremum is built, and one whose
    digits could pass int-to-str's limit stays an ``UnbuiltPower``.
    """
    if not system.has_tails:
        return CriterionReport(
            "conditionmix", Verdict.INCONCLUSIVE, {"window": [system.k_min, system.k_max]},
            "no tail rule: window ratios bound the infima from above only, so neither verdict is certifiable",
        )
    assert system.left_tail is not None and system.right_tail is not None
    a, b = system.left_tail, 1 / system.right_tail
    witness: dict = {"left_step": a, "right_step": b}
    if a > 1 and b > 1:
        return CriterionReport(
            "conditionmix", Verdict.VIOLATED, {**witness, "unbounded": True},
            "both step ratios exceed 1: every candidate ratio diverges with n, the supremum is infinite",
        )
    k_min, k_max = system.k_min, system.k_max
    n0 = k_max - k_min + 1
    table = _LogTable.of_weights(w, k_min - n0, k_max + n0)
    value, arg, stopped = _sup_inf(w, table, lambda n: range(k_min - n, k_max + 1), n0 - 1, min(a, b), 1)
    if not stopped:
        # from n0 on a pair with k < k_min scales by a per step (its right end fixed), any other by b
        (s_lo, lo), (s_hi, hi) = sorted([(s, min((_split(w, k + 1, k + n0) for k in table.band(n0, ks)), key=_order))
                                         for s, ks in ((a, range(k_min - n0, k_min)), (b, range(k_min, k_max + 1)))],
                                        key=itemgetter(0))
        coef, step, m = hi if (below := _sign(lo, hi) > 0) else lo, Fraction(1), 0
        if s_hi > 1 and below:
            # hi * s_hi**m grows to meet lo * s_lo**m: the supremum is at the last m up to it or the next
            meet = LogGap((*lo, *[(q, -e) for q, e in hi]), s_lo / s_hi)
            m = meet.least_crossing()  # the first m with hi * s_hi**m >= lo * s_lo**m
            m -= meet.sign(m) < 0
            hi_wins = LogGap((*meet.terms, (s_lo, 1)), meet.r).sign(m) <= 0  # hi * s_hi**m >= lo * s_lo**(m + 1)
            coef, step, m = (hi, s_hi, m) if hi_wins else (lo, s_lo, m + 1)
        if arg == 0 or LogGap((*coef, (value, -1)), step).sign(m) > 0:
            # built, unless bit lengths allow it more digits than int-to-str's 4300: then its parts
            coef = _product(coef, w._powers)
            bits = max(coef.numerator.bit_length() + m * step.numerator.bit_length(),
                       coef.denominator.bit_length() + m * step.denominator.bit_length())
            value, arg = (coef * step**m if bits * 30103 < 4299 * 10**5 else UnbuiltPower(coef, step, m)), n0 + m
    witness.update({"value": value, "attained": True, "attained_at_n": arg})
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
