"""Command line front end: certificates and experiments from a config file.

Six subcommands share one flag set.  ``validate`` stops after the structural
constants, ``weights``/``criteria``/``semicheck``/``orbit`` each add one
section, and ``report`` aggregates everything.  Every document embeds the
config hash and the library version so reports are traceable to their
inputs; identical config and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from ._version import __version__
from .criteria import (
    CriterionReport,
    Verdict,
    conditionmix_lhs,
    cofinite_quotient_witness,
    hypercyclicity_report,
    menet_unilateral,
    shift_hypercyclicity_report,
    telescoping_bound_check,
    weak_mixing_consistency,
)
from .errors import (
    ConfigError,
    EmptyWindow,
    InconsistentWitness,
    NoAdmissibleLevels,
    NonPositiveMeasure,
    ShiftlabError,
    TailRuleMissing,
    UsageError,
)
from .factor_map import semiconjugacy_defect
from .hc_lab import construct_hc_approx, orbit_density_report
from .measure_system import MeasureSystem
from .sampling import random_step_function
from .shift_space import BILATERAL, SeqVector, WeightSequence, derive_weights

COMMANDS = ("validate", "weights", "criteria", "semicheck", "orbit", "report")

_HELP = {
    "validate": "check the config and print the structural constants",
    "weights": "print the derived shift weights",
    "criteria": "evaluate every certificate and print the verdicts",
    "semicheck": "verify the factor identity on sampled step functions",
    "orbit": "build an approximate hypercyclic vector and score its orbit",
    "report": "run everything above and aggregate the sections",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which this tool reserves
    # for config validation; route usage problems through an exception
    def error(self, message: str):
        raise UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The parser of every ``main`` call, built on the first one; nothing may change it."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", required=True, help="path to a system config (JSON)")
    flags.add_argument("--output", choices=("json", "csv"), default="json")
    flags.add_argument("--out", default=None, help="write to this file instead of stdout")
    flags.add_argument("--seed", type=int, default=0, help="sampling seed (unsigned 64-bit)")
    flags.add_argument("--horizon", type=int, default=64, help="step budget of the orbit experiment")
    flags.add_argument("--samples", type=int, default=100,
                       help="step functions sampled by the weak-mixing trial and by semicheck")
    flags.add_argument("--eps", type=float, default=1e-2, help="approximation budget of the orbit experiment")
    flags.add_argument("--strict", action="store_true", help="exit 3 when any verdict is InconclusiveWindow")
    parser = _Parser(prog="shiftlab", description="exact certificates for cell models and their shifts")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in COMMANDS:
        sub.add_parser(name, help=_HELP[name], parents=[flags])
    return parser


def _cofinite_report(system: MeasureSystem) -> CriterionReport:
    try:
        witness = cofinite_quotient_witness(system, 1, [])
    except NoAdmissibleLevels as exc:
        verdict = Verdict.VIOLATED if system.has_tails else Verdict.INCONCLUSIVE
        return CriterionReport("cofinite_quotient", verdict, {}, str(exc))
    return CriterionReport(
        "cofinite_quotient", Verdict.SATISFIED, witness.to_dict(),
        "one-step pullback does not expand on the chosen levels",
    )


def _telescoping_report(system: MeasureSystem) -> CriterionReport:
    if not system.has_tails:
        return CriterionReport(
            "telescoping_bound", Verdict.INCONCLUSIVE, {},
            "no tail rule: blocks beyond the window are unknown",
        )
    assert system.right_tail is not None
    deep_ratio = 1 / system.right_tail
    if deep_ratio <= 1:
        return CriterionReport(
            "telescoping_bound", Verdict.INCONCLUSIVE,
            {"deep_right_ratio": str(deep_ratio)},
            "deep one-step ratios do not exceed 1, so no block constant > 1 applies",
        )
    n_k = 8
    j = system.k_max + n_k
    cp = (1 + deep_ratio) / 2
    result = telescoping_bound_check(system, j, n_k, 1, cp)
    return CriterionReport(
        "telescoping_bound",
        Verdict.SATISFIED if result.holds else Verdict.VIOLATED,
        {**result.to_dict(), "j": j, "n_k": n_k, "n": 1, "cp": str(cp)},
        "deep backward mass ratio dominates the block bound",
    )


def _experiment(system: MeasureSystem, w: WeightSequence, *, eps: float, horizon: int) -> dict | None:
    if not system.has_tails:
        return None
    targets = [
        SeqVector(BILATERAL, {0: 1.0}),
        SeqVector(BILATERAL, {0: 1.0, 1: 1.0}),
        SeqVector(BILATERAL, {-1: 1.0}),
    ]
    try:
        approx = construct_hc_approx(w, targets, eps=eps, horizon=horizon)
        density = orbit_density_report(w, approx.vector, targets, eps=eps, horizon=horizon)
    except ShiftlabError as exc:
        return {"error": str(exc)}
    except (OverflowError, ZeroDivisionError) as exc:
        return {"error": f"weight products leave the float range within {horizon} steps: {exc}"}
    return {"approx": approx.to_dict(), "orbit": density.to_dict()}


def _system_section(system: MeasureSystem, c: Fraction, big_k: Fraction) -> dict:
    return {
        "p": str(system.p),
        "window": [system.k_min, system.k_max],
        "cells": list(system.cells),
        "tails": (
            {"left": str(system.left_tail), "right": str(system.right_tail)}
            if system.has_tails
            else None
        ),
        "star_c": str(c),
        "distortion_K": str(big_k),
    }


def _weights_section(w: WeightSequence) -> dict:
    return {
        "side": w.side,
        "p": str(w.p),
        "lo": w.lo,
        "hi": w.hi,
        "wp": {str(k): str(v) for k, v in w.wp.items()},
        "left_tail": [str(v) for v in w.left_tail] if w.left_tail else None,
        "right_tail": [str(v) for v in w.right_tail] if w.right_tail else None,
    }


def _criterion_reports(
    system: MeasureSystem,
    w: WeightSequence,
    *,
    seed: int,
    samples: int,
) -> list[CriterionReport]:
    return [
        hypercyclicity_report(system),
        shift_hypercyclicity_report(w),
        weak_mixing_consistency(system, seed=seed, samples=samples),
        menet_unilateral(w),
        conditionmix_lhs(system),
        _cofinite_report(system),
        _telescoping_report(system),
    ]


def _semicheck_section(system: MeasureSystem, w: WeightSequence, *, seed: int, samples: int) -> dict:
    # without tails the image of the window floor has no measure, so keep
    # sampled supports one level above it
    floor = None if system.has_tails else system.k_min + 1
    if floor is not None and floor > system.k_max:
        return {"samples": 0, "exact_zero": 0, "max_defect": "0",
                "note": "window too small to shift a step function"}
    rng = random.Random(seed)
    for index in range(samples):
        phi = random_step_function(rng, system, min_level=floor)
        defect = semiconjugacy_defect(system, phi, w)
        if not (isinstance(defect, Fraction) and defect == 0):
            raise InconsistentWitness(
                f"factor identity defect {defect!r} on sample {index}"
            )
    return {"samples": samples, "exact_zero": samples, "max_defect": "0"}


def run_command(
    command: str,
    system: MeasureSystem,
    *,
    seed: int,
    horizon: int,
    samples: int,
    eps: float,
) -> dict:
    """Sections for one subcommand; ``report`` gets all of them."""
    c = system.validate_star()
    big_k = system.distortion_constant()
    result: dict = {"system": _system_section(system, c, big_k)}
    if command == "validate":
        return result
    w = derive_weights(system)
    if command in ("weights", "report"):
        result["weights"] = _weights_section(w)
    if command in ("criteria", "report"):
        reports = _criterion_reports(system, w, seed=seed, samples=samples)
        result["reports"] = [r.to_dict() for r in reports]
    if command in ("semicheck", "report"):
        result["semicheck"] = _semicheck_section(system, w, seed=seed, samples=samples)
    if command in ("orbit", "report"):
        result["experiment"] = _experiment(system, w, eps=eps, horizon=horizon)
    return result


def render_json(result: dict) -> str:
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


def render_csv(result: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["record", "name", "value", "notes"])
    writer.writerow(["meta", "version", result["version"], ""])
    writer.writerow(["meta", "config_sha256", result["config_sha256"], ""])
    system = result["system"]
    writer.writerow(["constant", "star_c", system["star_c"], ""])
    writer.writerow(["constant", "distortion_K", system["distortion_K"], ""])
    if "weights" in result:
        for k, value in result["weights"]["wp"].items():
            writer.writerow(["weight", f"wp({k})", value, ""])
    if "reports" in result:
        for rep in result["reports"]:
            writer.writerow(["report", rep["criterion"], rep["verdict"], rep["notes"]])
    if "semicheck" in result:
        writer.writerow(["semicheck", "max_defect", result["semicheck"]["max_defect"], ""])
    experiment = result.get("experiment")
    if experiment is not None and "orbit" in experiment:
        writer.writerow(["experiment", "orbit_fraction", experiment["orbit"]["fraction"], ""])
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not 0 <= args.seed < 2**64:
            parser.error("--seed must fit in an unsigned 64-bit integer")
        if not (math.isfinite(args.eps) and args.eps > 0):
            parser.error("--eps must be a finite number > 0")
        if args.samples < 0:
            parser.error("--samples must be >= 0")
        if args.horizon < 1:
            parser.error("--horizon must be >= 1")
    except UsageError as exc:
        print(f"shiftlab: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:  # --help has printed the help
        return exc.code
    try:
        raw = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"shiftlab: cannot read config: {exc}", file=sys.stderr)
        return 2
    # exact outputs may outgrow the int-to-str digit limit the parse runs under
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        system = MeasureSystem.from_json(raw.decode("utf-8"))
        if limit:
            sys.set_int_max_str_digits(0)
        result = {
            "command": args.command,
            "version": __version__,
            "config_sha256": hashlib.sha256(raw).hexdigest(),
            "parameters": {
                "seed": args.seed,
                "horizon": args.horizon,
                "samples": args.samples,
                "eps": args.eps,
            },
        }
        result.update(run_command(
            args.command,
            system,
            seed=args.seed,
            horizon=args.horizon,
            samples=args.samples,
            eps=args.eps,
        ))
        rendered = render_json(result) if args.output == "json" else render_csv(result)
    except (UnicodeDecodeError, ConfigError, NonPositiveMeasure, EmptyWindow, TailRuleMissing) as exc:
        print(f"shiftlab: invalid config: {exc}", file=sys.stderr)
        return 2
    except InconsistentWitness as exc:
        print(f"shiftlab: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if args.out is None:
        sys.stdout.write(rendered)
    else:
        try:
            Path(args.out).write_text(rendered)
        except OSError as exc:
            print(f"shiftlab: cannot write output: {exc}", file=sys.stderr)
            return 64
    if args.strict and any(
        rep["verdict"] == Verdict.INCONCLUSIVE.value for rep in result.get("reports", [])
    ):
        return 3
    return 0


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
