"""Seeded generators that only the tests use: random windowed systems,
systems with a guaranteed backward decay, and level-indexed functionals."""

import random
from fractions import Fraction

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
