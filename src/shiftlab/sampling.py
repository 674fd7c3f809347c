"""Seeded random generators for systems and step functions."""

from __future__ import annotations

import random
from fractions import Fraction

from .lp_space import StepFunction
from .measure_system import MeasureSystem

TAIL_POOL = (
    Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
    Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3),
)
P_POOL = (Fraction(1), Fraction(2), Fraction(3, 2))
LEVEL_MARGIN = 2  # levels past each window edge a sample may use, given tail rules


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


def support_levels(system: MeasureSystem, level_margin: int = LEVEL_MARGIN) -> range:
    """Levels a sampled step function may use: the window, widened by
    ``level_margin`` on each side when the system has tail rules."""
    margin = level_margin if system.has_tails else 0
    return range(system.k_min - margin, system.k_max + margin + 1)


def random_step_function(
    rng: random.Random,
    system: MeasureSystem,
    *,
    max_terms: int = 4,
    level_margin: int = LEVEL_MARGIN,
) -> StepFunction:
    """Rational step function on ``support_levels``; stays inside the window
    when the system has no tail rules."""
    levels = support_levels(system, level_margin)
    coeffs: dict[tuple[int, int], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        k = rng.choice(levels)
        i = rng.randrange(len(system.cells))
        coeffs[(k, i)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return StepFunction(coeffs)
