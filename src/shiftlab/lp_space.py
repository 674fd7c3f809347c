"""Step functions on the cell model and the composition operator action.

A step function assigns one coefficient per (level, cell) pair.  The map
sends level k onto level k+1, so composing with it pulls coefficients down
one level and composing with its inverse pushes them up; both actions are
purely symbolic.  Measures enter only through the norm.

A norm splits in two: ``lp_powers`` takes the p-th power of each
coefficient once, and ``shifted_power_sum`` sums those powers against the
cell masses of the levels they land on after a shift, with no root taken.
A power is the exact ``Fraction`` where it is rational and its exact form
stays within ``EXACT_POWER_BITS`` bits; otherwise it is kept as the float
``log|v|``, finite for every nonzero coefficient, and the sum scales it by
p.  A sum with a log term is itself a log, taken as one log-sum-exp, so
nothing overflows or underflows; it is a float, or, for a p past
``2 ** 1000``, where ``p * log|v|`` could leave the float range, an exact
``Fraction`` built from ``Fraction(p)``.
"""

from __future__ import annotations

import math
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


Power = tuple[int, int, Fraction | float]  # (level, cell, |v| ** p as a Fraction, or log|v|)

EXACT_POWER_BITS = 1 << 13  # bound on the bits of the exact q ** p.numerator a power may build
_FLOAT_P = 2**1000  # below this p, p * log|v| + log(mass) is a finite float


def _power(v: Coefficient, p: Fraction) -> Fraction | float:
    """|v| ** p as an exact Fraction, or log|v| where that is irrational or
    its exact form would pass EXACT_POWER_BITS."""
    if isinstance(v, Fraction):
        bits = p.numerator * max(v.numerator.bit_length(), v.denominator.bit_length())
        exact = fraction_pow(abs(v), p) if bits <= EXACT_POWER_BITS else None
        if exact is not None:
            return exact
    return log_fraction(abs(v))


def is_exact(powers: list[Power]) -> bool:
    """Whether shifted_power_sum gives these powers' total exactly, not its log."""
    return all(isinstance(a, Fraction) for _, _, a in powers)


def lp_powers(system: MeasureSystem, phi: StepFunction) -> list[Power]:
    """(level, cell, power) for each term of phi, in coefficient order: the
    part of the norm that no shift changes."""
    return [(k, i, _power(v, system.p)) for (k, i), v in phi.coeffs.items()]


def shifted_power_sum(system: MeasureSystem, powers: list[Power], shift: int = 0) -> Fraction | float:
    """p-th power of the norm of the step function with these powers once
    every term has moved shift levels up (down for shift < 0): the exact
    Fraction when every power is exact (``is_exact``), else the natural log
    of the sum."""
    mass = system.mu_cell
    if is_exact(powers):
        return sum((a * mass(k + shift, i) for k, i, a in powers), Fraction(0))
    p, real = (float(system.p), float) if system.p < _FLOAT_P else (system.p, Fraction)
    logs = [
        real(log_fraction(a * mass(k + shift, i))) if isinstance(a, Fraction)
        else p * real(a) + real(log_fraction(mass(k + shift, i)))
        for k, i, a in powers
    ]
    top = max(logs)
    # exp of anything below -1000 is 0.0; the clamp keeps a Fraction gap in float range
    return top + real(math.log(math.fsum(math.exp(max(t - top, -1000)) for t in logs)))


def lp_norm_step(system: MeasureSystem, phi: StepFunction) -> Fraction | float:
    """p-norm of a step function, exact whenever the coefficient powers and
    the final root stay rational."""
    powers = lp_powers(system, phi)
    total = shifted_power_sum(system, powers)
    if not is_exact(powers):
        return math.exp(total / (float(system.p) if isinstance(total, float) else system.p))
    return total if total == 0 else pow_maybe_exact(total, 1 / system.p)


def gs_decay_check(system: MeasureSystem, phi: StepFunction, n: int) -> tuple[Fraction | float, Fraction | float]:
    """Norms after n forward and n inverse compositions, in that order.

    Both shrinking to zero along a subsequence is the decay half of the
    hypercyclicity certificate; the round trip being the identity is
    immediate here because the map is invertible on the model.
    """
    return lp_norm_step(system, apply_Tf(phi, n)), lp_norm_step(system, apply_Tf_inverse(phi, n))
