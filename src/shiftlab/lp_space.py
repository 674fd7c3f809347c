"""Step functions on the cell model and the composition operator action.

A step function assigns one coefficient per (level, cell) pair.  The map
sends level k onto level k+1, so composing with it pulls coefficients down
one level and composing with its inverse pushes them up; both actions are
purely symbolic.  Measures enter only through the norm.

A norm splits in two: ``lp_powers`` takes the p-th power of each
coefficient once, and ``shifted_power_sum`` sums those powers against the
cell masses of the levels they land on after a shift, with no root taken.
So a search over shifts pays for the powers once and for each step only
one multiply-add per term.  A power is the exact ``Fraction`` where it is
rational and otherwise its natural log ``p * log|v|``, finite for every
nonzero coefficient and every p; a sum with a log term is itself a log,
taken as one log-sum-exp, so nothing overflows or underflows.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .measure_system import MeasureSystem
from .rationals import fraction_pow, log_fraction, pow_maybe_exact

Coefficient = Fraction | float | complex


@dataclass
class StepFunction:
    """Finitely supported coefficients keyed by (level, cell index).

    Rational coefficients keep every downstream computation exact; float or
    complex coefficients degrade gracefully to floats.
    """

    coeffs: dict[tuple[int, int], Coefficient] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.coeffs = {key: v for key, v in self.coeffs.items() if v != 0}

    @classmethod
    def indicator_level(cls, system: MeasureSystem, k: int) -> "StepFunction":
        """Indicator of the whole level k."""
        return cls({(k, i): Fraction(1) for i in range(len(system.cells))})

    def levels(self) -> list[int]:
        return sorted({k for k, _ in self.coeffs})

    def is_zero(self) -> bool:
        return not self.coeffs


def apply_Tf(phi: StepFunction, steps: int = 1) -> StepFunction:
    """Compose with the forward map steps times: the coefficient that sat
    at level k moves to level k - steps."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return StepFunction({(k - steps, i): v for (k, i), v in phi.coeffs.items()})


def apply_Tf_inverse(phi: StepFunction, steps: int = 1) -> StepFunction:
    """Compose with the inverse map steps times: coefficients move up."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return StepFunction({(k + steps, i): v for (k, i), v in phi.coeffs.items()})


Power = tuple[int, int, Fraction | float]  # (level, cell, |v| ** p as a Fraction, or p * log|v|)
CellMass = Callable[[int, int], Fraction]  # (level, cell) -> measure


def _power(v: Coefficient, p: Fraction) -> Fraction | float:
    """|v| ** p as an exact Fraction, or its natural log where it is irrational."""
    exact = fraction_pow(abs(v), p) if isinstance(v, Fraction) else None
    return float(p) * log_fraction(abs(v)) if exact is None else exact


def lp_powers(system: MeasureSystem, phi: StepFunction) -> list[Power]:
    """(level, cell, power) for each term of phi, in coefficient order: the
    part of the norm that no shift changes."""
    return [(k, i, _power(v, system.p)) for (k, i), v in phi.coeffs.items()]


def shifted_power_sum(
    system: MeasureSystem, powers: list[Power], shift: int = 0, mass: CellMass | None = None,
) -> Fraction | float:
    """p-th power of the norm of the step function with these powers once
    every term has moved shift levels up (down for shift < 0): the exact
    Fraction when every power is exact, else the natural log of the sum.

    ``mass(k, i)`` is the measure of cell i at level k, ``system.mu_cell``
    unless the caller passes a cached copy.
    """
    mass = mass or system.mu_cell
    if all(isinstance(a, Fraction) for _, _, a in powers):
        return sum((a * mass(k + shift, i) for k, i, a in powers), Fraction(0))
    logs = [
        log_fraction(a * mass(k + shift, i)) if isinstance(a, Fraction) else a + log_fraction(mass(k + shift, i))
        for k, i, a in powers
    ]
    top = max(logs)
    return top + math.log(math.fsum(math.exp(t - top) for t in logs))


def lp_norm_step(system: MeasureSystem, phi: StepFunction) -> Fraction | float:
    """p-norm of a step function, exact whenever the coefficient powers and
    the final root stay rational."""
    total = shifted_power_sum(system, lp_powers(system, phi))
    if isinstance(total, float):
        return math.exp(total / float(system.p))
    return total if total == 0 else pow_maybe_exact(total, 1 / system.p)


def gs_decay_check(system: MeasureSystem, phi: StepFunction, n: int) -> tuple[Fraction | float, Fraction | float]:
    """Norms after n forward and n inverse compositions, in that order.

    Both shrinking to zero along a subsequence is the decay half of the
    hypercyclicity certificate; the round trip being the identity is
    immediate here because the map is invertible on the model.
    """
    return lp_norm_step(system, apply_Tf(phi, n)), lp_norm_step(system, apply_Tf_inverse(phi, n))
