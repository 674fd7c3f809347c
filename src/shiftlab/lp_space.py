"""Step functions on the cell model and the composition operator action.

A step function assigns one coefficient per (level, cell) pair.  The map
sends level k onto level k+1, so composing with it pulls coefficients down
one level and composing with its inverse pushes them up; both actions are
purely symbolic.  Measures enter only through the norm, the p-th root of
the sum of |v| ** p times the mass of each coefficient's cell: an exact
``Fraction`` while every power |v| ** p is rational within
``EXACT_POWER_BITS`` bits, else a float taken through the logs of the
terms, which stay finite for masses outside the float range and for any p.
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


EXACT_POWER_BITS = 1 << 13  # bound on the bits of the exact q ** p.numerator a power may build
_P_CAP = 2.0**1000  # p as a float, past which the norm is the largest |v| to float precision


def _exact_power(v: Coefficient, p: Fraction) -> Fraction | None:
    """|v| ** p as an exact Fraction, or None where that is irrational, v is
    not rational, or its exact form would pass EXACT_POWER_BITS."""
    if not isinstance(v, Fraction):
        return None
    bits = p.numerator * max(v.numerator.bit_length(), v.denominator.bit_length())
    return fraction_pow(abs(v), p) if bits <= EXACT_POWER_BITS else None


def lp_norm_step(system: MeasureSystem, phi: StepFunction) -> Fraction | float:
    """p-norm of a step function, exact whenever the coefficient powers and
    the final root stay rational; else a float through one log-sum-exp."""
    p = system.p
    terms = [(_exact_power(v, p), v, system.mu_cell(k, i)) for (k, i), v in phi.coeffs.items()]
    if all(a is not None for a, _, _ in terms):
        total = sum((a * mass for a, _, mass in terms), Fraction(0))
        return total if total == 0 else pow_maybe_exact(total, 1 / p)
    # the log of each term's p-th root, t = ln|v| + ln(mu) / p, stays finite
    # for every mass; the norm is exp(top + ln(sum exp(p (t - top))) / p)
    pf = float(min(p, _P_CAP))
    logs = [log_fraction(abs(v)) + log_fraction(mass) / pf for _, v, mass in terms]
    top = max(logs)
    return math.exp(top + math.log(math.fsum(math.exp(pf * (t - top)) for t in logs)) / pf)


def gs_decay_check(system: MeasureSystem, phi: StepFunction, n: int) -> tuple[Fraction | float, Fraction | float]:
    """Norms after n forward and n inverse compositions, in that order; the
    round trip is the identity because the map is invertible on the model."""
    return lp_norm_step(system, apply_Tf(phi, n)), lp_norm_step(system, apply_Tf_inverse(phi, n))
