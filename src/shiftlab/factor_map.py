"""Exact factor map from the cell model onto its weighted backward shift.

The image of a step function is a sequence whose k-th value is the mean of
the function over the wandering set pulled through k steps, scaled by the
p-th root of the level mass.  Every such value has the shape

    q * rho ** (1/p)

with q and rho rational, so we never extract the root: a value is stored as
the tag pair (q, rho) and two tagged values are equal where their tags are,
else compared by cross-powering, which stays inside the rationals.  q is
summed in integers over each cell's share of W, one Fraction per level.  On
these tagged sequences the derived backward shift acts exactly, and the
intertwining with the composition operator can be checked with zero
tolerance; where it holds, ``_tags``' integers decide it, with no vector built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lp_space import Coefficient, StepFunction, apply_Tf
from .measure_system import MeasureSystem
from .rationals import pow_maybe_exact
from .shift_space import (
    BILATERAL,
    SeqVector,
    WeightSequence,
    _check_sides,
    derive_weights,
    lp_distance,
    wp_product,
)


@dataclass
class ExactSeqVector:
    """Finitely supported sequence of tagged values q * rho**(1/p).

    Entries with q == 0 are dropped; rho is kept positive so the sign of a
    value is the sign of q.
    """

    p: Fraction
    side: str = BILATERAL
    entries: dict[int, tuple[Fraction, Fraction]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned: dict[int, tuple[Fraction, Fraction]] = {}
        for n, (q, rho) in self.entries.items():
            # a rational's sign is its numerator's; this skips Fraction's slower comparisons
            if rho.numerator <= 0:
                raise ValueError(f"entry {n}: tag rho must be positive, got {rho}")
            if q:
                cleaned[n] = (q, rho)
        self.entries = cleaned

    @staticmethod
    def values_equal(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction], p: Fraction) -> bool:
        """Decide q1 * rho1**(1/p) == q2 * rho2**(1/p) without roots.

        Signs must agree; unless the tags are equal, magnitudes are compared
        through the p-th power, cleared of denominators: with p = x/y the
        comparison becomes |q1|**x * rho1**y == |q2|**x * rho2**y.
        """
        if a == b:
            return True
        (q1, rho1), (q2, rho2) = a, b
        if (q1 > 0) != (q2 > 0) or (q1 < 0) != (q2 < 0):
            return False
        x, y = p.numerator, p.denominator
        return abs(q1) ** x * rho1**y == abs(q2) ** x * rho2**y

    def equals(self, other: "ExactSeqVector") -> bool:
        if self.p != other.p or self.side != other.side:
            return False
        if self.entries.keys() != other.entries.keys():
            return False
        return all(
            self.values_equal(self.entries[n], other.entries[n], self.p)
            for n in self.entries
        )

    def collapse(self) -> SeqVector:
        """Float view, rooting each tag."""
        return SeqVector(
            self.side,
            {
                n: complex(float(q) * float(pow_maybe_exact(rho, 1 / self.p)))
                for n, (q, rho) in self.entries.items()
            },
        )


def _tags(system: MeasureSystem, coeffs: dict[tuple[int, int], Coefficient]) -> dict[int, tuple[int, int, Fraction]]:
    """Level k -> (a, b, mu_W(k)) for each level of coeffs, in first-appearance
    order: q_k = a / b unreduced, to which each coefficient, read once, adds
    coefficient * c / d, c / d its cell's share of W (``_w_shares``).  Every
    level's mass is read, q = 0 or not, so one with no tail rule raises."""
    shares = system._w_shares
    sums: dict[int, tuple[int, int]] = {}
    for (k, i), v in coeffs.items():
        if not isinstance(v, (Fraction, int)):
            raise TypeError(f"coefficient at {(k, i)} is not rational; exact projection needs Fraction data")
        (c, d), (a, b) = shares[i], sums.get(k, (0, 1))
        sd = v.denominator * d
        sums[k] = (a * sd + v.numerator * c * b, b * sd)
    return {k: (a, b, system.mu_W(k)) for k, (a, b) in sums.items()}


def project(system: MeasureSystem, phi: StepFunction) -> ExactSeqVector:
    """Factor map: level k contributes the tag (``_tags``)

        q_k = (sum of coefficient * cell mass at level 0 over its terms) / mass of W
        rho_k = mass of level k.

    Coefficients must be rational; float data has no exact image."""
    tags = _tags(system, phi.coeffs)
    return ExactSeqVector(system.p, BILATERAL, {k: (Fraction(a, b), rho) for k, (a, b, rho) in tags.items()})


def tagged_backward(w: WeightSequence, x: ExactSeqVector, steps: int = 1) -> ExactSeqVector:
    """Weighted backward shift on tagged values: folding one weight into a
    value multiplies its rho tag by the weight's p-th power."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_sides(w, x.side)
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for j, (q, rho) in x.entries.items():
        n = j - steps
        if w.side != BILATERAL and n < 0:
            continue
        out[n] = (q, rho * wp_product(w, n + 1, j))
    return ExactSeqVector(p=x.p, side=x.side, entries=out)


def semiconjugacy_defect(
    system: MeasureSystem,
    phi: StepFunction,
    w: WeightSequence | None = None,
) -> Fraction | float:
    """Distance between projecting after the composition operator and
    shifting after projecting.

    Exactly zero (a Fraction) whenever the tagged sequences agree entry by
    entry, which the model guarantees; otherwise the float p-norm of the
    collapsed difference is returned.  Unless T_f drops a zero that an edited
    ``coeffs`` holds, T_f phi has phi's q-sums one level down, so no vector is
    built where mu_W(k - 1) = mu_W(k) * wp(k) on every level with q != 0.
    """
    if w is None:
        w = derive_weights(system)
    moved = apply_Tf(phi)
    if len(moved.coeffs) == len(phi.coeffs):
        tags = _tags(system, moved.coeffs)
        masses = [system.mu_W(k + 1) for k in tags]  # phi's, before the side check, as the composition reads
        _check_sides(w, BILATERAL)
        if all(r.numerator * s.denominator * f.denominator == r.denominator * s.numerator * f.numerator
               for (k, (a, _, r)), s in zip(tags.items(), masses) if a for f in [w.wp_at(k + 1)]):
            return Fraction(0)
    lhs = project(system, moved)
    rhs = tagged_backward(w, project(system, phi))
    if lhs.equals(rhs):
        return Fraction(0)
    return lp_distance(lhs.collapse(), rhs.collapse(), system.p)
