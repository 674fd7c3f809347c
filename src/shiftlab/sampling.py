"""Seeded random step functions on ``support_levels``, the levels that
semicheck and the weak-mixing certificate cover."""

from __future__ import annotations

import random
from fractions import Fraction

from .lp_space import StepFunction
from .measure_system import MeasureSystem

P_POOL = (Fraction(1), Fraction(2), Fraction(3, 2))
LEVEL_MARGIN = 2  # levels past each window edge that the certificates cover, given tail rules


def support_levels(system: MeasureSystem) -> range:
    """Levels that semicheck and the weak-mixing certificate cover: the
    window, widened by ``LEVEL_MARGIN`` on each side when the system has
    tail rules."""
    margin = LEVEL_MARGIN if system.has_tails else 0
    return range(system.k_min - margin, system.k_max + margin + 1)


def random_step_function(rng: random.Random, system: MeasureSystem, *, max_terms: int = 4) -> StepFunction:
    """Rational step function on ``support_levels``; stays inside the window
    when the system has no tail rules."""
    levels = support_levels(system)
    coeffs: dict[tuple[int, int], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        k = rng.choice(levels)
        i = rng.randrange(len(system.cells))
        coeffs[(k, i)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return StepFunction(coeffs)
