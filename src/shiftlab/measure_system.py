"""Finite cell model of a dissipative map with a wandering window.

The ambient space is a disjoint union of levels indexed by integers; level 0
is the wandering set W, split into finitely many named cells.  The map sends
level k onto level k+1 cell by cell.  A model stores exact rational cell
measures on a finite window of levels and, optionally, one geometric ratio
per side that extends the measures beyond the window (cells scale
proportionally out there).

Two constants summarise how wild the measures are:

* the least c >= 1 bounding every one-step backward measure ratio in both
  directions (``validate_star``), and
* the least K >= 1 bounding how far any cell's share of its level drifts
  from its share of W (``distortion_constant``).

A model is checked once, at construction, in the pass that writes each
level over one common denominator: a malformed, non-positive or empty one
is never built.  All arithmetic is exact.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ConfigError, EmptyWindow, NonPositiveMeasure, TailRuleMissing
from .rationals import _float_log, as_fraction, plain_pair


def _unique_names(pairs: list[tuple[str, object]]) -> dict:
    """Object hook of the JSON parse: json.loads keeps the last of a repeated name, a config rejects it."""
    if len(doc := dict(pairs)) < len(pairs):
        name = next(name for name, times in Counter(name for name, _ in pairs).items() if times > 1)
        raise ConfigError(f"config: the name {name!r} appears twice in one JSON object")
    return doc


def _widest_ratio(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """max(1, x/y, y/x) over pairs of positive integers, by cross-multiplication with the best so far, kept reduced."""
    top, bottom = 1, 1
    for x, y in pairs:
        if x < y:
            x, y = y, x
        if x * bottom > top * y:
            top, bottom = x // (g := math.gcd(x, y)), y // g
    return Fraction(top, bottom)


@dataclass(frozen=True)
class MeasureSystem:
    """Exact measure data for one cell model.

    ``mu[k]`` holds the cell measures of level k, ordered like ``cells``.
    ``left_tail`` / ``right_tail`` are the per-step ratios applied below
    ``k_min`` and above ``k_max``; both present or both absent.  Every
    cell measure and tail ratio must be positive.  ``_rows[k]`` holds the
    cells' (numerator, denominator) pairs in lowest terms, from which a parsed
    system builds ``mu`` on first read.  ``_table`` holds (D_k, S_k, N_k) for
    each level k in window order: D_k is the lcm of the level's denominators,
    N_k the cell numerators over D_k, S_k their sum.
    """

    p: Fraction
    k_min: int
    k_max: int
    cells: tuple[str, ...]
    mu: dict[int, tuple[Fraction, ...]]
    left_tail: Fraction | None = None
    right_tail: Fraction | None = None

    def __getattr__(self, name: str):
        if name != "mu" or "_rows" not in vars(self):  # a parsed system lacks mu until its first read
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "mu", {k: tuple([Fraction(n, d) for n, d in row]) for k, row in self._rows.items()})
        return self.mu

    def __post_init__(self, rows: dict[int, tuple[tuple[int, int], ...]] | None = None) -> None:
        """The one check of a model, which builds the table from the cells' pairs: the parse's, or mu's."""
        if rows is None:
            rows = {k: tuple([(v.numerator, v.denominator) for v in row]) for k, row in self.mu.items()}
        if self.p < 1:
            raise ConfigError(f"p: must be >= 1, got {self.p}")
        if not self.cells:
            raise ConfigError("cells: at least one cell is required")
        if len(set(self.cells)) != len(self.cells):
            raise ConfigError("cells: names must be distinct")
        if (self.left_tail is None) != (self.right_tail is None):
            raise ConfigError("tails: left and right must be given together")
        if self.k_min > self.k_max:
            raise EmptyWindow("the level window is empty")
        if not self.k_min <= 0 <= self.k_max:
            raise ConfigError(
                f"window: must contain level 0, got [{self.k_min}, {self.k_max}]"
            )
        if len(rows) != self.k_max - self.k_min + 1 or not all(self.k_min <= k <= self.k_max for k in rows):
            raise ConfigError("mu: levels must cover the window exactly")
        for k, row in rows.items():
            if len(row) != len(self.cells):
                raise ConfigError(f"mu[{k}]: expected {len(self.cells)} cell measures")
        table = []
        for k in range(self.k_min, self.k_max + 1):
            row = rows[k]
            den = math.lcm(*[d for _, d in row])
            nums = tuple([n * (den // d) for n, d in row])
            if min(nums) <= 0:  # a cell is positive exactly when its numerator is
                name, (n, d) = next((name, pair) for name, pair in zip(self.cells, row) if pair[0] <= 0)
                raise NonPositiveMeasure(f"mu[{k}][{name}] = {Fraction(n, d)} is not positive")
            table.append((den, sum(nums), nums))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_table", tuple(table))
        if self.has_tails and (self.left_tail.numerator <= 0 or self.right_tail.numerator <= 0):
            raise NonPositiveMeasure("tail ratios must be positive")

    # -- accessors ---------------------------------------------------------

    @property
    def has_tails(self) -> bool:
        return self.left_tail is not None

    def _tail_factor(self, k: int) -> tuple[int, Fraction, int]:
        """(boundary level, tail ratio, distance) of a level k past the window; only mu_cell and mu_W take the power."""
        if k < self.k_min:
            if self.left_tail is None:
                raise TailRuleMissing(f"level {k} lies left of the window and no tail rule is set")
            return self.k_min, self.left_tail, self.k_min - k
        if self.right_tail is None:
            raise TailRuleMissing(f"level {k} lies right of the window and no tail rule is set")
        return self.k_max, self.right_tail, k - self.k_max

    def mu_cell(self, k: int, i: int) -> Fraction:
        """Measure of cell i at level k, tail-extended when k is outside
        the window."""
        if (row := self.mu.get(k)) is not None:
            return row[i]
        base, tail, distance = self._tail_factor(k)
        return self.mu[base][i] * tail**distance

    @cached_property
    def _level_mass(self) -> dict[int, Fraction]:
        """Total measure of each window level, S_k / D_k from the table, and of the tail levels mu_W keeps."""
        return {k: Fraction(total, den) for k, (den, total, _) in enumerate(self._table, self.k_min)}

    @cached_property
    def _cell_logs(self) -> list[list[float]]:
        """_float_log of every window cell mass from its pair, a column per cell over k_min..k_max."""
        rows = [self._rows[k] for k in range(self.k_min, self.k_max + 1)]
        return [[_float_log(*row[i]) for row in rows] for i in range(len(self.cells))]

    @cached_property
    def _w_shares(self) -> tuple[tuple[int, int], ...]:
        """Each cell's share of W, mu(0, i) / mu_W(0), as a (numerator, denominator) pair in lowest terms."""
        _, total, nums = self._table[-self.k_min]
        return tuple(Fraction(n, total).as_integer_ratio() for n in nums)

    def mu_W(self, k: int) -> Fraction:
        """Total measure of level k; a tail level at most 3 past the window is built once."""
        if (mass := self._level_mass.get(k)) is None:
            base, tail, distance = self._tail_factor(k)
            mass = self._level_mass[base] * tail**distance
            if distance <= 3:  # semicheck's reach, LEVEL_MARGIN and T_f's one; farther reads come once
                self._level_mass[k] = mass
        return mass

    # -- structural constants ---------------------------------------------

    @cached_property
    def _star_c(self) -> Fraction:
        """validate_star's constant, computed on first use."""
        pairs = [(t.numerator, t.denominator) for t in (self.left_tail, self.right_tail) if t is not None]
        pairs += [(a * d, b * c) for k in range(self.k_min, self.k_max)
                  for (a, b), (c, d) in zip(self._rows[k], self._rows[k + 1])]
        return _widest_ratio(pairs)

    def validate_star(self) -> Fraction:
        """The least two-sided one-step constant.

        The returned c >= 1 bounds mu(level k, cell i) / mu(level k+1, cell i)
        and its reciprocal over every adjacent pair, tails included.
        """
        return self._star_c

    def distortion_constant(self) -> Fraction:
        """Least K >= 1 with mu(f^k B) mu(W) within a factor K of
        mu(f^k W) mu(B) for every window level k and cell B.

        Tail levels copy the boundary proportions, so they never enlarge K.
        The table's denominators cancel: the pairs are (N_k,i S_0, S_k N_0,i).
        """
        _, total_0, nums_0 = self._table[-self.k_min]
        return _widest_ratio(
            (n * total_0, total * n_0) for _, total, nums in self._table for n, n_0 in zip(nums, nums_0)
        )

    # -- serialisation -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "MeasureSystem":
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object")
        try:
            window = doc["window"]
            cells = doc["cells"]
            mu_doc = doc["mu"]
        except KeyError as exc:
            raise ConfigError(f"config: missing field {exc.args[0]!r}") from exc
        if not isinstance(window, dict) or "min" not in window or "max" not in window:
            raise ConfigError("window: expected an object with min and max")
        k_min, k_max = window["min"], window["max"]
        if type(k_min) is not int or type(k_max) is not int:
            raise ConfigError("window: min and max must be integers")
        if not isinstance(cells, list) or not all(isinstance(c, str) for c in cells):
            raise ConfigError("cells: expected a list of names")
        if not isinstance(mu_doc, dict):
            raise ConfigError("mu: expected an object keyed by level")
        rows: dict[int, tuple[tuple[int, int], ...]] = {}
        for key, row in mu_doc.items():
            try:
                k = int(key)
            except ValueError:
                k = None
            if k is None or str(k) != key:
                raise ConfigError(f"mu: level key {key!r} is not a canonical integer")
            if not isinstance(row, list):
                raise ConfigError(f"mu[{key}]: expected a list of measures")
            try:
                rows[k] = tuple(map(plain_pair, row))
            except (AttributeError, ValueError, ZeroDivisionError):  # the general parse names the fault
                rows[k] = tuple(as_fraction(v, f"mu[{key}][{i}]").as_integer_ratio() for i, v in enumerate(row))
        tails = doc.get("tails")
        left = right = None
        if tails is not None:
            if not isinstance(tails, dict) or set(tails) != {"left", "right"}:
                raise ConfigError("tails: expected an object with left and right")
            left = as_fraction(tails["left"], "tails.left")
            right = as_fraction(tails["right"], "tails.right")
        system = cls.__new__(cls)  # every field but mu, which the pairs stand for until it is read
        vars(system).update(p=as_fraction(doc.get("p", "2"), "p"), k_min=k_min, k_max=k_max, cells=tuple(cells),
                            left_tail=left, right_tail=right)
        system.__post_init__(rows)
        return system

    def to_dict(self) -> dict:
        doc: dict = {
            "p": str(self.p),
            "window": {"min": self.k_min, "max": self.k_max},
            "cells": list(self.cells),
            "mu": {
                str(k): [str(v) for v in self.mu[k]]
                for k in sorted(self.mu)
            },
        }
        if self.has_tails:
            doc["tails"] = {"left": str(self.left_tail), "right": str(self.right_tail)}
        return doc

    @classmethod
    def from_json(cls, text: str) -> "MeasureSystem":
        try:
            doc = json.loads(text, object_pairs_hook=_unique_names)
        except ConfigError:
            raise
        except (ValueError, RecursionError) as exc:
            # bad syntax, deep nesting, or an integer past the digit limit (cut before its advice)
            raise ConfigError(f"config: invalid JSON ({str(exc).partition(';')[0]})") from exc
        return cls.from_dict(doc)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)
