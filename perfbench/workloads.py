"""Seeded config families, op lists and independent answers for each workload.

Every config is built here from exact masses, so the answers a correct
program must print (weights, verdicts, constants) are known from the
construction and computed with plain ``Fraction`` arithmetic, never by
calling the library.  From the library only ``sampling.P_POOL``, the
exponent pool its own samplers draw from, is passed in.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from pathlib import Path

# Tail ratios, and so per-level decay factors, of the small windows.
SMALL_RATIOS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
# The shape of each generated window (half-span, cells, p, tails) is a fixed
# table; the seed draws only the masses, so the cost of one pass over a
# workload's ops moves little from seed to seed.
SMALL_HALF_SPANS = (3, 4, 5, 6, 7, 8, 9, 10, 4, 6, 8, 10)
SMALL_CELLS = (1, 2, 3, 4)
# Half-span 200 is left out: menet_unilateral alone takes ~9 s there.
WIDE_HALF_SPANS = (20, 60, 100)
WIDE_RIGHT_TAILS = (Fraction(1), Fraction(3, 2), Fraction(1))
WIDE_CELLS = 4
DEFECT_HALF_SPAN = 20
REPO_CONFIGS = ("dyadic", "flat", "window_only")

SATISFIED, VIOLATED, INCONCLUSIVE = "Satisfied", "Violated", "InconclusiveWindow"
DEFAULT_SAMPLES = 100  # the CLI default of --samples


@dataclass
class Config:
    """Exact data of one config plus the answers derived from it."""

    name: str
    family: str
    p: Fraction
    k_min: int
    k_max: int
    mu: dict[int, tuple[Fraction, ...]]
    tails: tuple[Fraction, Fraction] | None
    path: Path | None = None
    expect: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc: dict = {
            "p": str(self.p),
            "window": {"min": self.k_min, "max": self.k_max},
            "cells": [f"B{i + 1}" for i in range(len(self.mu[0]))],
            "mu": {str(k): [str(v) for v in row] for k, row in sorted(self.mu.items())},
        }
        if self.tails is not None:
            doc["tails"] = {"left": str(self.tails[0]), "right": str(self.tails[1])}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, name: str, family: str, text: str) -> "Config":
        doc = json.loads(text)
        tails = doc.get("tails")
        return cls(
            name=name,
            family=family,
            p=Fraction(doc.get("p", "2")),
            k_min=doc["window"]["min"],
            k_max=doc["window"]["max"],
            mu={int(k): tuple(Fraction(v) for v in row) for k, row in doc["mu"].items()},
            tails=None if tails is None else (Fraction(tails["left"]), Fraction(tails["right"])),
        )

    @cached_property
    def _totals(self) -> dict[int, Fraction]:
        return {k: sum(row) for k, row in self.mu.items()}

    def mass(self, k: int) -> Fraction:
        """Level mass, extended by the tail ratios outside the window."""
        if k < self.k_min:
            return self._totals[self.k_min] * self.tails[0] ** (self.k_min - k)
        if k > self.k_max:
            return self._totals[self.k_max] * self.tails[1] ** (k - self.k_max)
        return self._totals[k]


def _flat_window(
    rng: random.Random, name: str, half_span: int, p: Fraction, tails: tuple[Fraction, Fraction],
) -> Config:
    mu = {
        k: tuple(Fraction(rng.randint(1, 8), 2 ** rng.randint(0, 4)) for _ in range(WIDE_CELLS))
        for k in range(-half_span, half_span + 1)
    }
    return Config(name, "wide", p, -half_span, half_span, mu, tails)


def _decaying_window(
    rng: random.Random, name: str, half_span: int, cells: int, p: Fraction,
    tails: tuple[Fraction, Fraction],
) -> Config:
    """Level masses m0 * tail**|k| on each side, so the tail rules continue
    the window's own geometric law, as in configs/dyadic.json; the cells
    split each level at random."""
    m0 = Fraction(rng.randint(1, 8), 2 ** rng.randint(0, 2))
    mu = {}
    for k in range(-half_span, half_span + 1):
        total = m0 * (tails[0] if k < 0 else tails[1]) ** abs(k)
        shares = [rng.randint(1, 5) for _ in range(cells)]
        mu[k] = tuple(total * s / sum(shares) for s in shares)
    return Config(name, "small", p, -half_span, half_span, mu, tails)


def generate(
    seed: int, repo_root: Path, p_pool: tuple[Fraction, ...],
) -> tuple[list[Config], list[Config], Config]:
    """The small family (repo configs plus twelve decaying windows), the
    wide family, and the known-defect config, all from ``seed``.  ``p_pool``
    is the library's ``sampling.P_POOL``."""
    rng = random.Random(seed)
    small = [
        Config.from_json(name, "small", (repo_root / "configs" / f"{name}.json").read_text())
        for name in REPO_CONFIGS
    ]
    ratios = SMALL_RATIOS
    small += [
        _decaying_window(
            rng, f"small{i:02d}", h, SMALL_CELLS[i % 4], p_pool[i % len(p_pool)],
            (ratios[i % 3], ratios[(i + i // 3) % 3]),
        )
        for i, h in enumerate(SMALL_HALF_SPANS)
    ]
    wide = [
        _flat_window(rng, f"wide{h:03d}", h, p, (Fraction(1, 2), right))
        for h, p, right in zip(WIDE_HALF_SPANS, p_pool, WIDE_RIGHT_TAILS)
    ]
    defect = _flat_window(rng, "defect", DEFECT_HALF_SPAN, p_pool[0], (Fraction(1, 2), Fraction(1, 2)))
    return small, wide, defect


def write_configs(configs: list[Config], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for config in configs:
        config.path = out_dir / f"{config.name}.json"
        config.path.write_text(config.to_json())


# -- answers known from the construction ------------------------------------


def _star_c(c: Config) -> Fraction:
    ratios = list(c.tails) if c.tails else []
    for k in range(c.k_min, c.k_max):
        ratios += [a / b for a, b in zip(c.mu[k], c.mu[k + 1])]
    return max([Fraction(1)] + [max(t, 1 / t) for t in ratios])


def _distortion(c: Config) -> Fraction:
    out = Fraction(1)
    for k in range(c.k_min, c.k_max + 1):
        for cell, base in zip(c.mu[k], c.mu[0]):
            t = cell * c.mass(0) / (c.mass(k) * base)
            out = max(out, t, 1 / t)
    return out


def _hc_verdict(c: Config) -> str:
    if c.tails is None:
        return INCONCLUSIVE
    return SATISFIED if all(t < 1 for t in c.tails) else VIOLATED


def _menet(c: Config) -> dict:
    """sup over n of min over k of mass(k) / mass(k + n): the telescoped
    weight-power products menet_unilateral enumerates, on its ranges
    n <= k_max and 1 <= k <= k_max + 1 (one-term tail period)."""
    hi = c.k_max
    sup, arg = Fraction(0), 0
    for n in range(1, max(hi, 1) + 1):
        q = min(c.mass(k) / c.mass(k + n) for k in range(1, hi + 2))
        if q > sup:
            sup, arg = q, n
    return {"period_product_wp": str(1 / c.tails[1]), "sup_inf_wp": str(sup), "attained_at_n": arg}


def attach_answers(c: Config) -> None:
    c.expect = {
        "star_c": str(_star_c(c)),
        "distortion_K": str(_distortion(c)),
        "wp": {str(k): str(c.mass(k - 1) / c.mass(k)) for k in range(c.k_min + 1, c.k_max + 1)},
        "hypercyclicity": _hc_verdict(c),
    }
    if c.family == "wide":
        c.expect["menet"] = _menet(c)


def check_output(c: Config, command: str, doc: dict) -> list[str]:
    """Problems with one CLI document, judged against the construction."""
    e = c.expect
    problems = []
    if doc.get("command") != command:
        problems.append(f"command field {doc.get('command')!r}")
    system = doc["system"]
    for key in ("star_c", "distortion_K"):
        if system[key] != e[key]:
            problems.append(f"{key} {system[key]} != {e[key]}")
    if command in ("weights", "report"):
        weights = doc["weights"]
        if weights["wp"] != e["wp"]:
            bad = [k for k in e["wp"] if weights["wp"].get(k) != e["wp"][k]]
            problems.append(f"wp differs from the mass ratios at {bad[:5]}")
        if c.tails is not None and (
            weights["left_tail"] != [str(c.tails[0])] or weights["right_tail"] != [str(1 / c.tails[1])]
        ):
            problems.append("weight tails differ from the tail ratios")
    if command == "report":
        verdicts = {r["criterion"]: r for r in doc["reports"]}
        for route in ("hypercyclicity", "shift_hypercyclicity"):
            if verdicts[route]["verdict"] != e["hypercyclicity"]:
                problems.append(f"{route} {verdicts[route]['verdict']} != {e['hypercyclicity']}")
        if "menet" in e:
            menet = verdicts["menet_unilateral"]
            if menet["verdict"] != SATISFIED:
                problems.append(f"menet_unilateral {menet['verdict']} != {SATISFIED}")
            for key, value in e["menet"].items():
                if menet["witness"].get(key) != value:
                    problems.append(f"menet {key} {menet['witness'].get(key)} != {value}")
        semi = doc["semicheck"]
        if semi["max_defect"] != "0" or semi["exact_zero"] != semi["samples"] or semi["samples"] != DEFAULT_SAMPLES:
            problems.append(f"semicheck {semi}")
    return problems


# -- op lists -----------------------------------------------------------------


@dataclass
class Op:
    command: str
    config: Config
    seed: int

    @property
    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config.path), "--seed", str(self.seed)]

    @property
    def label(self) -> str:
        return f"{self.command}:{self.config.name}"


WORKLOADS = ("small_hc", "wide_window", "quick_commands")
COMMANDS = {"small_hc": ("report",), "wide_window": ("report",), "quick_commands": ("validate", "weights")}


def configs_for(workload: str, small: list[Config], wide: list[Config]) -> list[Config]:
    return {"small_hc": small, "wide_window": wide, "quick_commands": small + wide}[workload]


def op_list(workload: str, seed: int, small: list[Config], wide: list[Config], number: int) -> list[Op]:
    """Pass ``number`` of the workload: each command on each config, with a
    per-op ``--seed`` drawn from the workload seed and the pass number."""
    rng = random.Random(f"ops:{workload}:{seed}:{number}")
    return [
        Op(command, config, rng.randrange(2**32))
        for config in configs_for(workload, small, wide)
        for command in COMMANDS[workload]
    ]
