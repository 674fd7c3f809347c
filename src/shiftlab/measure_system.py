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

A model is checked once, at construction: a malformed, non-positive or
empty one is never built.  All arithmetic is exact.
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
from .rationals import as_fraction


def _unique_names(pairs: list[tuple[str, object]]) -> dict:
    """Object hook of the JSON parse: json.loads keeps the last of a repeated name, a config rejects it."""
    if len(doc := dict(pairs)) < len(pairs):
        name = next(name for name, times in Counter(name for name, _ in pairs).items() if times > 1)
        raise ConfigError(f"config: the name {name!r} appears twice in one JSON object")
    return doc


def _widest_ratio(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """max(1, x/y, y/x) over pairs of positive integers, by cross-multiplication."""
    top, bottom = 1, 1
    for x, y in pairs:
        if x < y:
            x, y = y, x
        if x * bottom > top * y:
            top, bottom = x, y
    return Fraction(top, bottom)


@dataclass(frozen=True)
class MeasureSystem:
    """Exact measure data for one cell model.

    ``mu[k]`` holds the cell measures of level k, ordered like ``cells``.
    ``left_tail`` / ``right_tail`` are the per-step ratios applied below
    ``k_min`` and above ``k_max``; both present or both absent.  Every
    cell measure and tail ratio must be positive.
    """

    p: Fraction
    k_min: int
    k_max: int
    cells: tuple[str, ...]
    mu: dict[int, tuple[Fraction, ...]]
    left_tail: Fraction | None = None
    right_tail: Fraction | None = None

    def __post_init__(self) -> None:
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
        if len(self.mu) != self.k_max - self.k_min + 1 or not all(self.k_min <= k <= self.k_max for k in self.mu):
            raise ConfigError("mu: levels must cover the window exactly")
        for k, row in self.mu.items():
            if len(row) != len(self.cells):
                raise ConfigError(f"mu[{k}]: expected {len(self.cells)} cell measures")
        for k in range(self.k_min, self.k_max + 1):
            for name, v in zip(self.cells, self.mu[k]):
                if v <= 0:
                    raise NonPositiveMeasure(f"mu[{k}][{name}] = {v} is not positive")
        if self.has_tails and (self.left_tail <= 0 or self.right_tail <= 0):
            raise NonPositiveMeasure("tail ratios must be positive")

    # -- accessors ---------------------------------------------------------

    @property
    def has_tails(self) -> bool:
        return self.left_tail is not None

    def _tail_factor(self, k: int) -> tuple[int, Fraction]:
        """(boundary level, scale factor) of a level k outside the window."""
        if k < self.k_min:
            if self.left_tail is None:
                raise TailRuleMissing(f"level {k} lies left of the window and no tail rule is set")
            return self.k_min, self.left_tail ** (self.k_min - k)
        if self.right_tail is None:
            raise TailRuleMissing(f"level {k} lies right of the window and no tail rule is set")
        return self.k_max, self.right_tail ** (k - self.k_max)

    def mu_cell(self, k: int, i: int) -> Fraction:
        """Measure of cell i at level k, tail-extended when k is outside
        the window."""
        if (row := self.mu.get(k)) is not None:
            return row[i]
        base, factor = self._tail_factor(k)
        return self.mu[base][i] * factor

    @cached_property
    def _level_mass(self) -> dict[int, Fraction]:
        """Total measure of each window level, summed on first use over one common denominator."""
        masses = {}
        for k, row in self.mu.items():
            den = math.lcm(*(v.denominator for v in row))
            masses[k] = Fraction(sum(v.numerator * (den // v.denominator) for v in row), den)
        return masses

    def mu_W(self, k: int) -> Fraction:
        """Total measure of level k."""
        if (mass := self._level_mass.get(k)) is not None:
            return mass
        base, factor = self._tail_factor(k)
        return self._level_mass[base] * factor

    # -- structural constants ---------------------------------------------

    def validate_star(self) -> Fraction:
        """The least two-sided one-step constant.

        The returned c >= 1 bounds mu(level k, cell i) / mu(level k+1, cell i)
        and its reciprocal over every adjacent pair, tails included.
        """
        pairs = [(t.numerator, t.denominator) for t in (self.left_tail, self.right_tail) if t is not None]
        pairs += [(a.numerator * b.denominator, a.denominator * b.numerator)
                  for k in range(self.k_min, self.k_max) for a, b in zip(self.mu[k], self.mu[k + 1])]
        return _widest_ratio(pairs)

    def distortion_constant(self) -> Fraction:
        """Least K >= 1 with mu(f^k B) mu(W) within a factor K of
        mu(f^k W) mu(B) for every window level k and cell B.

        Tail levels copy the boundary proportions, so they never enlarge K.
        """
        mass = self._level_mass
        w_shares = [(b.numerator * mass[0].denominator, b.denominator * mass[0].numerator) for b in self.mu[0]]
        return _widest_ratio(
            (a.numerator * mass[k].denominator * w_den, a.denominator * mass[k].numerator * w_num)
            for k, row in self.mu.items() for a, (w_num, w_den) in zip(row, w_shares)
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
        mu: dict[int, tuple[Fraction, ...]] = {}
        for key, row in mu_doc.items():
            try:
                k = int(key)
            except ValueError:
                k = None
            if k is None or str(k) != key:
                raise ConfigError(f"mu: level key {key!r} is not a canonical integer")
            if not isinstance(row, list):
                raise ConfigError(f"mu[{key}]: expected a list of measures")
            mu[k] = tuple(as_fraction(v, f"mu[{key}][{i}]") for i, v in enumerate(row))
        tails = doc.get("tails")
        left = right = None
        if tails is not None:
            if not isinstance(tails, dict) or set(tails) != {"left", "right"}:
                raise ConfigError("tails: expected an object with left and right")
            left = as_fraction(tails["left"], "tails.left")
            right = as_fraction(tails["right"], "tails.right")
        return cls(
            p=as_fraction(doc.get("p", "2"), "p"),
            k_min=k_min,
            k_max=k_max,
            cells=tuple(cells),
            mu=mu,
            left_tail=left,
            right_tail=right,
        )

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
