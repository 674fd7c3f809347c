"""Seeded generators that only the tests use: random windowed systems,
systems with a guaranteed backward decay, three draws with tails near 1 and
level-indexed functionals; and an exact reference for the uniform decay step."""

import decimal
import random
from decimal import Decimal
from fractions import Fraction

from shiftlab.criteria import DECAY_TOL
from shiftlab.measure_system import MeasureSystem
from shiftlab.sampling import P_POOL

TAIL_POOL = (
    Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
    Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3),
)


def random_fraction(rng: random.Random, *, max_num: int = 8, max_den_pow: int = 4) -> Fraction:
    return Fraction(rng.randint(1, max_num), 2 ** rng.randint(0, max_den_pow))


def random_system(
    rng: random.Random,
    *,
    max_cells: int = 3,
    max_half_span: int = 5,
    tail_pool: tuple[Fraction, ...] = TAIL_POOL,
    p_pool: tuple[Fraction, ...] = P_POOL,
) -> MeasureSystem:
    """Random windowed system with tail rules drawn from ``tail_pool``."""
    k_min = -rng.randint(0, max_half_span)
    k_max = rng.randint(0, max_half_span)
    n_cells = rng.randint(1, max_cells)
    mu = {
        k: tuple(random_fraction(rng) for _ in range(n_cells))
        for k in range(k_min, k_max + 1)
    }
    return MeasureSystem(
        p=rng.choice(p_pool),
        k_min=k_min,
        k_max=k_max,
        cells=tuple(f"B{i + 1}" for i in range(n_cells)),
        mu=mu,
        left_tail=rng.choice(tail_pool),
        right_tail=rng.choice(tail_pool),
    )


def random_decay_system(
    rng: random.Random,
    *,
    min_back_ratio: Fraction,
    max_half_span: int = 4,
    max_cells: int = 2,
) -> MeasureSystem:
    """System whose every one-step backward mass ratio strictly exceeds
    ``min_back_ratio``, tails included."""
    bumps = (Fraction(5, 4), Fraction(3, 2), Fraction(2))
    k_min = -rng.randint(0, max_half_span)
    k_max = rng.randint(0, max_half_span)
    n_cells = rng.randint(1, max_cells)
    masses = {0: random_fraction(rng)}
    for k in range(0, k_min, -1):
        masses[k - 1] = masses[k] * min_back_ratio * rng.choice(bumps)
    for k in range(0, k_max):
        masses[k + 1] = masses[k] / (min_back_ratio * rng.choice(bumps))
    mu: dict[int, tuple[Fraction, ...]] = {}
    for k in range(k_min, k_max + 1):
        # split the level mass into positive cell shares
        shares = [Fraction(rng.randint(1, 5)) for _ in range(n_cells)]
        total = sum(shares)
        mu[k] = tuple(masses[k] * s / total for s in shares)
    left = min_back_ratio * rng.choice(bumps)
    right = 1 / (min_back_ratio * rng.choice(bumps))
    return MeasureSystem(
        p=rng.choice(P_POOL),
        k_min=k_min,
        k_max=k_max,
        cells=tuple(f"B{i + 1}" for i in range(n_cells)),
        mu=mu,
        left_tail=left,
        right_tail=right,
    )


def near_1_tails_draw(half_span: int) -> dict:
    """The config of a valid draw with tails near 1: 4 cells of masses
    randint(1, 5) / 2**|k| (random.Random(half_span)) on levels -half_span
    .. half_span, p = 3/2, left tail 1 - 10**-960 and right tail 1 - 10**-1870."""
    rng = random.Random(half_span)
    mu = {str(k): [str(Fraction(rng.randint(1, 5), 2 ** abs(k))) for _ in range(4)]
          for k in range(-half_span, half_span + 1)}
    return {"p": "3/2", "window": {"min": -half_span, "max": half_span}, "cells": ["B1", "B2", "B3", "B4"],
            "mu": mu, "tails": {"left": "0." + "9" * 960, "right": "0." + "9" * 1870}}


def near_1_menet_tie(half_span: int) -> dict:
    """The config of a valid draw whose menet supremum meets the cap in a
    tie test: 4 cells of masses randint(1, 5) / 3**|k| (random.Random(1)) on
    levels -half_span .. half_span, then mu["18"][1] = 9e20 and mu["43"][2]
    = 4e16 (half_span >= 43), p = 2, left tail 1e-858, right tail 1 + 10**-300."""
    rng = random.Random(1)
    mu = {str(k): [str(Fraction(rng.randint(1, 5), 3 ** abs(k))) for _ in range(4)]
          for k in range(-half_span, half_span + 1)}
    mu["18"][1], mu["43"][2] = "9e20", "4e16"
    return {"p": "2", "window": {"min": -half_span, "max": half_span}, "cells": ["B1", "B2", "B3", "B4"],
            "mu": mu, "tails": {"left": "1e-858", "right": str(1 + Fraction(1, 10**300))}}


def near_1_menet_draw() -> dict:
    """The config of a valid draw whose menet engine runs near 1 far out: 4
    cells of masses randint(1, 5) / 3**|k| (random.Random(1)) on levels -882
    .. 882, then mu["-512"][2] = 2e14, mu["264"][1] = 9e281 and mu["627"][2]
    = 4e226, p = 2, left tail 1e-858, right tail 1 + 10**-2800: a cap within
    10**-2800 of 1 and a menet supremum of millions of bits."""
    rng = random.Random(1)
    mu = {str(k): [str(Fraction(rng.randint(1, 5), 3 ** abs(k))) for _ in range(4)] for k in range(-882, 883)}
    mu["-512"][2], mu["264"][1], mu["627"][2] = "2e14", "9e281", "4e226"
    return {"p": "2", "window": {"min": -882, "max": 882}, "cells": ["B1", "B2", "B3", "B4"],
            "mu": mu, "tails": {"left": "1e-858", "right": str(1 + Fraction(1, 10**2800))}}


def random_functional(
    rng: random.Random,
    levels: range,
    *,
    max_terms: int = 3,
) -> dict[int, Fraction]:
    """Level-indexed rational density with a few nonzero values."""
    out: dict[int, Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        k = rng.choice(list(levels))
        out[k] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return out


def uniform_decay_step_reference(system: MeasureSystem, levels: range) -> int:
    """The least n >= 1 at which mu(k + s, i) / mu(k, i) <= DECAY_TOL ** p for
    every cell (k, i) on the levels and s = -n, n, both tails < 1: exact
    Fraction ratios tried one step at a time while a shifted cell can still
    meet the window, then, per cell, the least further tail step, as the
    ceiling of a ratio of logs in decimals with 60 digits more than the
    cancellation in ln(tail) and the size of p need."""
    tol, p, left, right = Fraction(DECAY_TOL), system.p, system.left_tail, system.right_tail
    cells = [(k, i) for k in levels for i in range(len(system.cells))]
    far = (levels.stop - 1 - system.k_min) + (system.k_max - levels.start) + 2

    def ratio(k: int, i: int, s: int) -> Fraction:
        return system.mu_cell(k + s, i) / system.mu_cell(k, i)

    with decimal.localcontext() as ctx:
        ctx.prec = 2 * max(len(str(t.denominator)) for t in (left, right)) + len(str(p.numerator)) + 60

        def ln(q: Fraction) -> Decimal:
            return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()

        bound = Decimal(p.numerator) / p.denominator * ln(tol)

        def within(r: Fraction) -> bool:
            return r**p.denominator <= tol**p.numerator if p.numerator <= 4000 else ln(r) <= bound

        for n in range(1, far):
            if all(within(ratio(k, i, s)) for s in (-n, n) for k, i in cells):
                return n
        steps = [(bound - ln(ratio(k, i, s))) / ln(tail) for s, tail in ((-far, left), (far, right)) for k, i in cells]
        return far + max(0, *(int(x.to_integral_value(decimal.ROUND_CEILING)) for x in steps))
