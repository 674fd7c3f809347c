"""Step functions on the cell model and the composition operator action.

A step function assigns one coefficient per (level, cell) pair.  The map
sends level k onto level k+1, so composing with it pulls coefficients down
one level and composing with its inverse pushes them up; both actions are
purely symbolic.  Measures enter only through the norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .measure_system import MeasureSystem
from .rationals import abs_pow, pow_maybe_exact

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

    def value(self, k: int, i: int) -> Coefficient:
        return self.coeffs.get((k, i), Fraction(0))

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


def lp_norm_step(system: MeasureSystem, phi: StepFunction) -> Fraction | float:
    """p-norm of a step function, exact whenever the coefficient powers and
    the final root stay rational."""
    total: Fraction | float = Fraction(0)
    for (k, i), v in phi.coeffs.items():
        total += abs_pow(v, system.p) * system.mu_cell(k, i)
    if isinstance(total, Fraction):
        if total == 0:
            return Fraction(0)
        return pow_maybe_exact(total, 1 / system.p)
    return total ** (1.0 / float(system.p))


def gs_decay_check(system: MeasureSystem, phi: StepFunction, n: int) -> tuple[Fraction | float, Fraction | float]:
    """Norms after n forward and n inverse compositions, in that order.

    Both shrinking to zero along a subsequence is the decay half of the
    hypercyclicity certificate; the round trip being the identity is
    immediate here because the map is invertible on the model.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    fwd = lp_norm_step(system, apply_Tf(phi, n))
    bwd = lp_norm_step(system, apply_Tf_inverse(phi, n))
    return fwd, bwd
