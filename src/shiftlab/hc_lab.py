"""Constructive orbit experiments for weighted backward shifts.

The classical recipe for a vector with a dense orbit sums far-apart
forward-inverse copies of the targets; pushing the sum back to a target's
slot leaves the target plus cross terms killed by the weight products.
Here the schedule is an arithmetic ramp whose gap doubles until every
cross term fits the budget, checked a posteriori by direct iteration.
Both stages check the sides once and then run on plain entry dicts through
``shift_space``'s shift, sum and distance kernels, which the ``SeqVector``
functions wrap, so the floats are theirs bit for bit.  The kernels read the
sequence's float memo: every distinct power is rooted once, a block deep in
a tail is read once per (side, phase, length), and a target's
forward-inverse blocks serve again as backward ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import Sequence

from .errors import HorizonExhausted
from .shift_space import (
    SeqVector,
    WeightSequence,
    _backward,
    _check_sides,
    _distances,
    _forward_inverse,
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
    distances to all targets taken at once per step; a target is hit when
    the distance is at most eps.  The fraction of hits is a finite-orbit
    stand-in for orbit density.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pf = float(w.p)
    if any(y.side != x.side for y in targets):
        raise ValueError("cannot compare vectors of different sides")
    if horizon:
        _check_sides(w, x.side)
    ys = [y.entries for y in targets]
    best: list[tuple[int, float]] = [(0, float("inf"))] * len(targets)
    current = x.entries
    for t in range(horizon + 1):
        for idx, d in enumerate(_distances(current, ys, pf)):
            if d < best[idx][1]:
                best[idx] = (t, d)
        if t < horizon:
            current = _backward(w, current, 1)
    hits = tuple(
        OrbitHit(idx, step, dist, dist <= eps)
        for idx, (step, dist) in enumerate(best)
    )
    fraction = (
        sum(1 for h in hits if h.hit) / len(hits) if hits else 1.0
    )
    return OrbitDensityReport(fraction, hits)
