"""Weighted backward shifts with exact weight bookkeeping.

Weights are stored through their p-th powers, which stay rational for every
sequence this package derives from a cell model (the power of the weight at
index k is the measure ratio of levels k-1 and k).  Roots are taken only at
the float boundary, or exactly when the power happens to be a perfect one.

A weight sequence holds an explicit block of powers on [lo, hi] plus an
optional periodic tail per side.  ``hi == lo - 1`` is allowed and means the
tails carry everything.

Every block product is split in one place, ``_split``, into ``LogGap``
terms (q, e) at O(1) cost in the block length: the window part is a
quotient of two entries of a prefix table, and each tail run is a power of
its period product times fewer than one period of leftover entries.  The
table is built on first use, not at construction, because validating a
model or printing its weights never reads it.  One function, ``_product``,
multiplies the terms, each distinct whole-period power built once per
sequence: ``wp_product`` returns it, and the shifts' float memo roots each
distinct reduced pair it reads through ``pow_maybe_exact``, the one root of
an exact product into a float; the sup-inf engine in ``criteria`` reads the
terms unbuilt.

The shifts, the sum and the p-norm distances run on plain entry dicts
through one private kernel each, which the ``SeqVector`` functions below
wrap and the orbit experiment calls directly, with ``_one_steps`` for the
one-step weights along an orbit path, each tail phase read once and cycled.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, chain, cycle, islice, repeat
from operator import mul

from .errors import ConfigError, TailRuleMissing
from .measure_system import MeasureSystem
from .rationals import _float_log, pow_maybe_exact

BILATERAL = "bilateral"
UNILATERAL = "unilateral"


@dataclass(frozen=True)
class WeightSequence:
    """Positive weight sequence, indexed over Z (bilateral) or n >= 1
    (unilateral), given through exact p-th powers."""

    p: Fraction
    side: str
    lo: int
    hi: int
    wp: dict[int, Fraction]
    left_tail: tuple[Fraction, ...] | None = None
    right_tail: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ConfigError(f"p: must be >= 1, got {self.p}")
        if self.side not in (BILATERAL, UNILATERAL):
            raise ConfigError(f"side: expected bilateral or unilateral, got {self.side!r}")
        if self.hi < self.lo - 1:
            raise ConfigError("weights: hi may not drop below lo - 1")
        if len(self.wp) != self.hi - self.lo + 1 or not all(self.lo <= k <= self.hi for k in self.wp):
            raise ConfigError("weights: explicit powers must cover [lo, hi] exactly")
        for k, v in self.wp.items():
            if v.numerator <= 0:
                raise ConfigError(f"weights: power at {k} must be positive, got {v}")
        for name, tail in (("left", self.left_tail), ("right", self.right_tail)):
            if tail is not None:
                if not tail:
                    raise ConfigError(f"weights: {name} tail must be nonempty")
                if any(v.numerator <= 0 for v in tail):
                    raise ConfigError(f"weights: {name} tail values must be positive")
        if self.side == UNILATERAL:
            if self.lo != 1:
                raise ConfigError("weights: a unilateral sequence starts at index 1")
            if self.left_tail is not None:
                raise ConfigError("weights: a unilateral sequence has no left tail")

    def wp_at(self, k: int) -> Fraction:
        """p-th power of the weight at index k, read from ``wp`` in the window."""
        return self.wp[k] if self.lo <= k <= self.hi else wp_product(self, k, k)

    @cached_property
    def _prefix(self) -> tuple[Fraction, ...]:
        """Products wp[lo] * ... * wp[k] for k = lo - 1, ..., hi, the empty
        product first.  Derived powers telescope, wp(k) = mass(k-1)/mass(k),
        so each entry is mass(lo-1)/mass(k) and stays the size of a mass
        ratio, however long the window."""
        return tuple(accumulate(
            (self.wp[k] for k in range(self.lo, self.hi + 1)), mul, initial=Fraction(1),
        ))

    @cached_property
    def _prefix_logs(self) -> tuple[float, ...]:
        """``_float_log`` of each ``_prefix`` entry, the column every sup-inf log table of w extends."""
        return tuple(map(_float_log, self._prefix))

    @cached_property
    def _powers(self) -> Callable[[Fraction, int], Fraction]:
        """(q, e) -> q ** e for ``_split``'s terms of e >= 2 whole periods of a
        tail, each distinct power built once; it holds no sequence, so no cycle."""
        return cache(pow)

    @cached_property
    def _floats(self) -> Callable[[int, int], float]:
        """(i, j) -> ``float(weight_product(self, i, j))``, the shifts' one read of the weights:
        ``_split`` and ``_product`` once per block, ``pow_maybe_exact`` once per distinct product,
        keyed on its reduced pair, lazily (a weight never read may overflow), for as long as the
        sequence lives.  It holds the sequence weakly, so it forms no reference cycle."""
        expo, ref, powers, roots = 1 / self.p, weakref.ref(self), self._powers, {}

        def read(i: int, j: int) -> float:
            pair = (q := _product(_split(ref(), i, j), powers)).as_integer_ratio()
            return roots[pair] if pair in roots else roots.setdefault(pair, float(pow_maybe_exact(q, expo)))
        return cache(read)

    def has_tail_rules(self) -> bool:
        if self.side == UNILATERAL:
            return self.right_tail is not None
        return self.left_tail is not None and self.right_tail is not None


def derive_weights(system: MeasureSystem) -> WeightSequence:
    """Weight sequence of the backward shift the cell model factors onto.

    The p-th power at index k is the measure ratio of level k-1 to level k,
    S_k-1 D_k / (D_k-1 S_k) in the model's common-denominator table, so
    outside the window the powers are constant: the left tail ratio on
    the left and the reciprocal of the right tail ratio on the right.
    """
    lo, hi, table = system.k_min + 1, system.k_max, system._table
    wp = {k: Fraction(s0 * d1, d0 * s1) for k, (d0, s0, _), (d1, s1, _) in zip(range(lo, hi + 1), table, table[1:])}
    left = right = None
    if system.has_tails:
        assert system.left_tail is not None and system.right_tail is not None
        left = (system.left_tail,)
        right = (1 / system.right_tail,)
    return WeightSequence(
        p=system.p, side=BILATERAL, lo=lo, hi=hi, wp=wp,
        left_tail=left, right_tail=right,
    )


def _split(w: WeightSequence, i: int, j: int) -> list[tuple[Fraction, int]]:
    """The block [i, j] as ``LogGap`` terms (q, e), its product prod q**e, none if it is
    empty: the window part and each tail run the block reaches, at O(1) cost in its
    length.  The window part [a, b] is (P(b), 1), (P(a - 1), -1) for the prefix products
    P of ``_prefix``, or (wp[a], 1) for one step; a tail run is its period product raised
    to the whole periods, then its leftover entries, the first at the run's phase.  Raises
    ``TailRuleMissing`` on the first index past a side with no tail rule, ``ValueError``
    below 1 on the unilateral side."""
    if j < i:
        return []
    if w.side == UNILATERAL and i < 1:
        raise ValueError(f"unilateral weights are indexed from 1, got {i}")
    lo, hi, runs = w.lo, w.hi, []
    if i < lo:
        if w.left_tail is None:
            raise TailRuleMissing(f"weight index {i} lies below lo and no tail rule is set")
        end = min(j, lo - 1)
        runs.append((w.left_tail, lo - 1 - end, end - i + 1))
    if j > hi:
        start = max(i, hi + 1)
        if w.right_tail is None:
            raise TailRuleMissing(f"weight index {start} lies beyond hi and no tail rule is set")
        runs.append((w.right_tail, start - hi - 1, j - start + 1))
    a, b = max(i, lo), min(j, hi)
    terms = [(w.wp[a], 1)] if a == b else [(w._prefix[b - lo + 1], 1), (w._prefix[a - lo], -1)] if a < b else []
    for tail, phase, m in runs:
        whole, rest = divmod(m, len(tail))
        if whole:  # start=tail[0]: a one-entry tail's period product is its entry
            terms.append((math.prod(tail[1:], start=tail[0]), whole))
        terms += [(tail[t % len(tail)], 1) for t in range(phase, phase + rest)] if rest else []
    return terms


def _product(terms: list[tuple[Fraction, int]], powers: Callable[[Fraction, int], Fraction]) -> Fraction:
    """The product of ``_split``'s terms, the first with e > 0, multiplied or divided in, whole-period
    powers read from powers, the sequence's ``_powers`` (a one-term block with e = 1 is its q); 1 if none."""
    out = None
    for q, e in terms:
        q = q if abs(e) == 1 else powers(q, e)
        out = q if out is None else out * q if e > 0 else out / q
    return Fraction(1) if out is None else out


def wp_product(w: WeightSequence, i: int, j: int) -> Fraction:
    """Exact product of weight powers over the inclusive block [i, j], O(1) in its length:
    ``_product`` of ``_split``'s terms; empty blocks give 1."""
    return _product(_split(w, i, j), w._powers)


def weight_product(w: WeightSequence, i: int, j: int) -> Fraction | float:
    """Product of the weights over [i, j], exact when the p-th root of the
    power product is rational."""
    return pow_maybe_exact(wp_product(w, i, j), 1 / w.p)


@dataclass
class SeqVector:
    """Finitely supported sequence vector with complex float entries.

    Exact zeros are dropped at construction so the support stays minimal.
    """

    side: str = BILATERAL
    entries: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.side not in (BILATERAL, UNILATERAL):
            raise ConfigError(f"side: expected bilateral or unilateral, got {self.side!r}")
        cleaned: dict[int, complex] = {}
        for n, v in self.entries.items():
            z = complex(v)
            if z != 0:
                if self.side == UNILATERAL and n < 0:
                    raise ConfigError(f"entries: unilateral index {n} is negative")
                cleaned[n] = z
        self.entries = cleaned

    def plus(self, other: "SeqVector") -> "SeqVector":
        if other.side != self.side:
            raise ValueError("cannot add vectors of different sides")
        return SeqVector(self.side, _plus(self.entries, other.entries))

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "entries": [
                {"n": n, "re": self.entries[n].real, "im": self.entries[n].imag}
                for n in sorted(self.entries)
            ],
        }


def _distances(xs: dict[int, complex], targets: Sequence[dict[int, complex]], pf: float) -> list[float]:
    """Float pf-norm of xs - ye for each entry dict ye in targets, over the
    union of the supports, xs's indices first and then ye's others: the
    term order of ``plus``, bit for bit, each abs taken before any power."""
    out = []
    for ye in targets:
        gaps = [abs(v - ye[n]) if n in ye else abs(v) for n, v in xs.items()]
        gaps += [abs(v) for n, v in ye.items() if n not in xs]
        out.append(sum(map(pow, gaps, repeat(pf))) ** (1.0 / pf))
    return out


def _plus(xs: dict[int, complex], ys: dict[int, complex]) -> dict[int, complex]:
    """The entries of xs + ys: ``0j + v`` at a new index, which turns an
    imaginary -0.0 into 0.0, and exact zeros dropped, as ``SeqVector`` drops them."""
    out = dict(xs)
    for n, v in ys.items():
        if s := out.get(n, 0j) + v:
            out[n] = s
        else:
            out.pop(n, None)
    return out


def _backward(w: WeightSequence, xs: dict[int, complex], steps: int) -> dict[int, complex]:
    """The entries of the steps-fold backward shift of xs, with the block
    weights read through the sequence's float memo; exact zeros are
    dropped, as ``SeqVector`` drops them."""
    product, unilateral, out = w._floats, w.side == UNILATERAL, {}
    for j, v in xs.items():
        n = j - steps
        if unilateral and n < 0:
            continue
        if z := v * product(n + 1, j):
            out[n] = z
    return out


def _one_steps(w: WeightSequence, j: int, stop: int) -> Iterator[float]:
    """The floats of the one-step blocks at j, j - 1, ..., stop + 1, lazily,
    as ``_backward`` reads them, but each tail phase read once, at its index
    in the tail's first period, whose block has the same float (a missing
    tail raises there too), and cycled: a long path costs one memo read and
    one memo entry per phase, not one per index."""
    lo, hi, product = w.lo, w.hi, w._floats
    right, left = len(w.right_tail or "."), len(w.left_tail or ".")  # a missing tail: one index, which raises
    rights = [hi + 1 + (j - hi - 1 - t) % right for t in range(right)]  # the phases from j down
    lefts = [lo - 1 - (max(lo - 1 - j, 0) + t) % left for t in range(left)]  # and from min(j, lo - 1) down
    n, m = max(j - max(hi, stop), 0), max(min(j, lo - 1) - stop, 0)  # the path's steps in each tail
    window = range(min(j, hi), max(lo - 1, stop), -1)
    return chain(islice(cycle(map(product, rights, rights)), n), map(product, window, window),
                 islice(cycle(map(product, lefts, lefts)), m))


def _forward_inverse(w: WeightSequence, xs: dict[int, complex], steps: int) -> dict[int, complex]:
    """The entries of the steps-fold forward inverse of xs, as ``_backward``."""
    product, out = w._floats, {}
    for j, v in xs.items():
        n = j + steps
        if z := v / product(j + 1, n):
            out[n] = z
    return out


def lp_distance(x: SeqVector, y: SeqVector, p: Fraction | float) -> float:
    """Float p-norm of x - y, in ``plus``'s term order (``_distances``)."""
    if y.side != x.side:
        raise ValueError("cannot compare vectors of different sides")
    return _distances(x.entries, [y.entries], float(p))[0]


def _check_sides(w: WeightSequence, side: str) -> None:
    if w.side != side:
        raise ValueError(f"weight side {w.side} does not match vector side {side}")


def apply_backward(w: WeightSequence, x: SeqVector, steps: int = 1) -> SeqVector:
    """steps-fold weighted backward shift: the new value at n is the old
    value at n + steps times the weights' product over [n + 1, n + steps],
    read through the sequence's float memo.  On the unilateral side, mass
    shifted past index 0 is discarded."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_sides(w, x.side)
    return SeqVector(x.side, _backward(w, x.entries, steps))


def apply_forward_inverse(w: WeightSequence, x: SeqVector, steps: int = 1) -> SeqVector:
    """steps-fold right inverse of the backward shift: moves the value at n
    to n + steps, divided by the block's weight product as in ``apply_backward``."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_sides(w, x.side)
    return SeqVector(x.side, _forward_inverse(w, x.entries, steps))
