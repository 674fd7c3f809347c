"""Constructive orbit experiments for weighted backward shifts.

The classical recipe for a vector with a dense orbit sums far-apart
forward-inverse copies of the targets; pushing the sum back to a target's
slot leaves the target plus cross terms killed by the weight products.
Here the schedule is an arithmetic ramp whose gap doubles until every
cross term fits the budget, checked a posteriori by direct iteration.
Both stages check the sides once and then run on plain entry dicts through
``shift_space``'s shift, sum and distance kernels, which the ``SeqVector``
functions wrap, so the floats are theirs bit for bit.  The kernels read the
sequence's float memo, where every block is split once and every distinct
product rooted once by ``pow_maybe_exact``, so a target's forward-inverse
blocks serve again as backward ones.  The orbit is scanned as per-entry
trajectories, each tail phase's weight read once per path; on an error
only the failing chunk is replayed step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice, repeat, takewhile, zip_longest
from operator import mul
from typing import Sequence

from .errors import HorizonExhausted, ShiftlabError
from .shift_space import (
    UNILATERAL,
    SeqVector,
    WeightSequence,
    _backward,
    _check_sides,
    _distances,
    _forward_inverse,
    _one_steps,
    _plus,
)


@dataclass
class HCApproxResult:
    gap: int
    schedule: tuple[int, ...]
    vector: SeqVector
    defects: tuple[float, ...]


def construct_hc_approx(
    w: WeightSequence,
    targets: Sequence[SeqVector],
    *,
    eps: float = 1e-2,
    horizon: int = 64,
) -> HCApproxResult:
    """Vector x and steps m_1 < ... < m_J with the m_j-fold backward shift
    of x within eps of target j, all steps <= horizon.

    x sums the m_j-fold forward-inverse images of the targets over an
    arithmetic schedule with gap g; g doubles until every defect, computed
    by actually iterating the shift up to a gap's first defect above eps,
    is at most eps.  Raises HorizonExhausted when no gap fits the horizon.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    count = len(targets)
    if count == 0 or all(not y.entries for y in targets):
        # the zero vector already sits on every target, starting at step 0
        zero = SeqVector(w.side, {})
        return HCApproxResult(0, tuple(range(count)), zero, (0.0,) * count)
    for y in targets:
        _check_sides(w, y.side)
    ys = [y.entries for y in targets]
    gap = 1
    while gap * count <= horizon:
        schedule = tuple(gap * (j + 1) for j in range(count))
        x: dict[int, complex] = {}
        for m, ye in zip(schedule, ys):
            x = _plus(x, _forward_inverse(w, ye, m))
        scored = (_distances(_backward(w, x, m), (ye,), float(w.p))[0] for m, ye in zip(schedule, ys))
        defects = tuple(takewhile(lambda d: d <= eps, scored))
        if len(defects) == count:
            return HCApproxResult(gap, schedule, SeqVector(w.side, x), defects)
        gap *= 2
    raise HorizonExhausted(
        f"no gap with {count} targets fits within {horizon} steps at eps={eps}"
    )


@dataclass
class OrbitHit:
    target_index: int
    best_step: int
    best_distance: float
    hit: bool


@dataclass
class OrbitDensityReport:
    fraction: float
    hits: tuple[OrbitHit, ...]


def orbit_density_report(
    w: WeightSequence,
    x: SeqVector,
    targets: Sequence[SeqVector],
    *,
    eps: float = 1e-2,
    horizon: int = 64,
) -> OrbitDensityReport:
    """How much of the target list the finite orbit of x visits.

    For each target the closest of x, Bx, ..., B^horizon x is recorded, the
    first on a tie; a target is hit when the distance is at most eps.  The
    fraction of hits is a finite-orbit stand-in for orbit density.  The
    orbit is scanned by ``_scan``, whose floats and errors are those of the
    step-by-step loop, which it replays over a chunk that meets an error.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if any(y.side != x.side for y in targets):
        raise ValueError("cannot compare vectors of different sides")
    if horizon:
        _check_sides(w, x.side)
    best = _scan(w, x.entries, [y.entries for y in targets], float(w.p), horizon)
    hits = tuple(
        OrbitHit(idx, step, dist, dist <= eps)
        for idx, (step, dist) in enumerate(best)
    )
    fraction = (
        sum(1 for h in hits if h.hit) / len(hits) if hits else 1.0
    )
    return OrbitDensityReport(fraction, hits)


_CHUNK = 256  # orbit steps scanned at a time


def _scan(w: WeightSequence, xs: dict, ys: list[dict], pf: float, horizon: int) -> list[tuple[int, float]]:
    """(step, distance) of the first closest B^t x, t <= horizon, to each target, bit for bit
    the step loop's.  The entry at j takes the values accumulate(``_one_steps`` from j, mul,
    initial=v), ``_backward``'s products, _CHUNK steps at a time, up to its first exact 0 or
    past index 0 on the unilateral side.  Per step the |v|**pf of the live entries are summed
    in vector order (a dead one adds +0.0, which moves no sum of nonnegative terms), and a
    target whose support they miss adds its own terms after them, as ``sum`` does over
    ``_distances``' terms, which score a step where an entry sits on the support.  The scan
    ends at the first step with no live entry: every later one repeats its distances.  A
    chunk's first ``ArithmeticError`` or ``ShiftlabError`` need not be the step loop's, so the
    step loop replays that chunk from the entries at the step before and the bests so far
    (those the chunk set are its own); past it, every weight was read and the scan goes on."""
    unilateral, inv = w.side == UNILATERAL, 1.0 / pf
    paths = []  # (j, the entry's values from step 0); once it has stopped, it yields none
    for j, v in xs.items():
        weights = _one_steps(w, j, max(j - horizon, 0) if unilateral else j - horizon)
        paths.append((j, takewhile(bool, accumulate(weights, mul, initial=v))))
    meets = [{j - n for j in xs for n in ye} for ye in ys]  # steps at which an entry sits on the support
    best, last = [(0, float("inf"))] * len(ys), xs  # last: the entries at the step before the chunk
    for start in range(0, horizon + 1, _CHUNK):
        size = min(_CHUNK, horizon + 1 - start)
        try:
            rows = [(j, list(islice(values, size))) for j, values in paths]
            sums = list(map(sum, zip_longest(*(map(pow, map(abs, vs), repeat(pf)) for _, vs in rows),
                                             fillvalue=0.0)))
            if ended := len(sums) < size:
                sums.append(0)
            for idx, ye in enumerate(ys):
                own = [abs(v) ** pf for v in ye.values()]
                ds = list(map(pow, map(sum, repeat(own), sums), repeat(inv)))
                for s in (t - start for t in meets[idx]):
                    if 0 <= s < len(ds):
                        ds[s] = _distances({j - start - s: vs[s] for j, vs in rows if s < len(vs)}, (ye,), pf)[0]
                if (d := min(filter(best[idx][1].__gt__, ds), default=None)) is not None:
                    best[idx] = (start + ds.index(d), d)
            if ended:
                return best
            last = {j - start - size + 1: vs[-1] for j, vs in rows if len(vs) == size}
            continue
        except (ArithmeticError, ShiftlabError):
            pass  # replayed below, outside the handler, so that the step loop's error has no context
        current = _backward(w, last, 1) if start else xs
        for t in range(start, start + size):
            for idx, d in enumerate(_distances(current, ys, pf)):
                if d < best[idx][1]:
                    best[idx] = (t, d)
            if t < horizon:
                last, current = current, _backward(w, current, 1)
    return best
