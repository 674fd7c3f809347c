"""Spans and counters around the package's public functions, installed from
outside the package.

A function is replaced wherever its name is looked up: every ``shiftlab``
module attribute bound to the original object is rebound to the wrapper, so
``criteria.wp_product`` and ``cli.derive_weights`` are traced as well as
``shift_space.wp_product``.  Methods are replaced on their class.
``install``/``uninstall`` put the originals back exactly, so traced and
untraced passes can alternate in one process.

Spans live in memory as ``(name, start_ns, end_ns, parent, op)`` rows; a
span's self time is its duration minus the time its child spans cover.
Hot small functions get a call counter and no span.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

PACKAGE = "shiftlab"


@dataclass(frozen=True)
class Target:
    metric: str  # metric name prefix, as "<module>.<function>"
    module: str
    qualname: str
    span: bool
    observe: str | None = None  # "bits": track result bit length; "exact": count non-None results


def _span(module: str, qualname: str, metric: str | None = None, observe: str | None = None) -> Target:
    return Target(metric or f"{module}.{qualname.split('.')[-1]}", module, qualname, True, observe)


def _count(module: str, qualname: str, metric: str | None = None, observe: str | None = None) -> Target:
    return Target(metric or f"{module}.{qualname.split('.')[-1]}", module, qualname, False, observe)


CRITERIA = (
    "hypercyclicity_report", "shift_hypercyclicity_report", "weak_mixing_consistency",
    "menet_unilateral", "conditionmix_lhs", "cofinite_quotient_witness", "telescoping_bound_check",
)

TARGETS = (
    _span("cli", "main"),
    _span("cli", "render_json"),
    _span("cli", "_semicheck_section"),
    _span("measure_system", "MeasureSystem.from_json"),
    _span("measure_system", "MeasureSystem.validate_star"),
    _span("measure_system", "MeasureSystem.distortion_constant"),
    _span("shift_space", "derive_weights"),
    _span("shift_space", "wp_product", observe="bits"),
    _span("factor_map", "semiconjugacy_defect"),
    _span("lp_space", "gs_decay_check"),
    *(_span("criteria", name) for name in CRITERIA),
    _span("hc_lab", "construct_hc_approx"),
    _span("hc_lab", "orbit_density_report"),
    _count("measure_system", "MeasureSystem.mu_W", observe="bits"),
    _count("measure_system", "MeasureSystem.mu_cell"),
    _count("shift_space", "WeightSequence.wp_at", "shift_space.WeightSequence.wp_at"),
    _count("shift_space", "apply_backward"),
    _count("shift_space", "apply_forward_inverse"),
    _count("factor_map", "ExactSeqVector.values_equal", "factor_map.ExactSeqVector.values_equal"),
    _count("lp_space", "lp_norm_step"),
    _count("rationals", "fraction_pow", observe="exact"),
    _count("sampling", "random_step_function"),
)


def _bits(value: object) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names = [t.metric for t in TARGETS]
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.calls = [0] * len(TARGETS)
        self.max_bits = [0] * len(TARGETS)
        self.exact = [0] * len(TARGETS)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, index: int, target: Target, fn):
        calls, max_bits, exact = self.calls, self.max_bits, self.exact
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = target.observe

        if not target.span:
            if observe is None:
                def counted(*args, **kwargs):
                    calls[index] += 1
                    return fn(*args, **kwargs)
                return counted

            def observed(*args, **kwargs):
                calls[index] += 1
                result = fn(*args, **kwargs)
                if observe == "bits":
                    bits = _bits(result)
                    if bits > max_bits[index]:
                        max_bits[index] = bits
                elif result is not None:
                    exact[index] += 1
                return result
            return observed

        def spanned(*args, **kwargs):
            calls[index] += 1
            row = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(row)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[row] = (index, start, end, parent, self.op)
            if observe == "bits":
                bits = _bits(result)
                if bits > max_bits[index]:
                    max_bits[index] = bits
            return result
        return spanned

    def _build(self) -> None:
        """Work out every (owner, attribute) pair to rebind, once."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for index, target in enumerate(TARGETS):
            home = sys.modules[f"{PACKAGE}.{target.module}"]
            if "." in target.qualname:
                cls_name, attr = target.qualname.split(".")
                owner = getattr(home, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(index, target, raw.__func__))
                else:
                    wrapped = self._wrap(index, target, raw)
                self._patches.append((owner, attr, raw, wrapped))
                continue
            original = getattr(home, target.qualname)
            wrapped = self._wrap(index, target, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def lookup_sites(self) -> list[str]:
        return sorted(f"{getattr(o, '__name__', o)}.{a}" for o, a, _, _ in self._patches)

    # -- read-out ------------------------------------------------------------

    def snapshot(self) -> tuple[int, list[int]]:
        """Marker for ``totals_since``: span count and call counters now."""
        return len(self.spans), list(self.calls)

    def totals_since(self, mark: tuple[int, list[int]]) -> tuple[list[int], list[int]]:
        """Calls and self time (ns) per target since ``mark``."""
        first, calls_before = mark
        rows = self.spans[first:]
        child = [0] * len(rows)
        for row in rows:
            parent = row[3] - first
            if parent >= 0:
                child[parent] += row[2] - row[1]
        self_ns = [0] * len(TARGETS)
        for i, row in enumerate(rows):
            self_ns[row[0]] += row[2] - row[1] - child[i]
        calls = [now - before for now, before in zip(self.calls, calls_before)]
        return calls, self_ns

    def write(self, path: Path, ops: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"names": self.names, "ops": ops,
                       "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
