"""Seeded random step functions, and ``support_levels``, the levels they may use."""

from __future__ import annotations

import random
from fractions import Fraction

from .lp_space import StepFunction
from .measure_system import MeasureSystem

P_POOL = (Fraction(1), Fraction(2), Fraction(3, 2))
LEVEL_MARGIN = 2  # levels past each window edge a sample may use, given tail rules


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
