"""Command line front end: certificates and experiments from a config file.

Six subcommands share one flag set.  ``validate`` stops after the structural
constants, ``weights``/``criteria``/``semicheck``/``orbit`` each add one
section, and ``report`` aggregates everything.  Every document embeds the
config hash and the library version so reports are traceable to their
inputs; the same config gives byte-identical output, whatever the seed.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import hashlib
import io
import math
import sys
from dataclasses import is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from ._version import __version__
from .criteria import (
    CriterionReport,
    UnbuiltPower,
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
from .lp_space import StepFunction
from .measure_system import MeasureSystem
from .sampling import support_levels
from .shift_space import BILATERAL, SeqVector, WeightSequence, derive_weights

COMMANDS = ("validate", "weights", "criteria", "semicheck", "orbit", "report")

_HELP = {
    "validate": "check the config and print the structural constants",
    "weights": "print the derived shift weights",
    "criteria": "evaluate every certificate and print the verdicts",
    "semicheck": "certify the factor identity on every step function over the sampled levels",
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
    flags.add_argument("--seed", type=int, default=0,
                       help="echoed in the document; no certificate reads it (unsigned 64-bit)")
    flags.add_argument("--horizon", type=int, default=64, help="step budget of the orbit experiment")
    flags.add_argument("--samples", type=int, default=100,
                       help="step functions semicheck reports as covered")
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
        "cofinite_quotient", Verdict.SATISFIED, vars(witness),
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
            {"deep_right_ratio": deep_ratio},
            "deep one-step ratios do not exceed 1, so no block constant > 1 applies",
        )
    n_k = 8
    j = system.k_max + n_k
    cp = (1 + deep_ratio) / 2
    result = telescoping_bound_check(system, j, n_k, 1, cp)
    return CriterionReport(
        "telescoping_bound",
        Verdict.SATISFIED if result.holds else Verdict.VIOLATED,
        {**vars(result), "j": j, "n_k": n_k, "n": 1, "cp": cp},
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
        return {"error": f"the orbit experiment leaves the float range within {horizon} steps: {exc}"}
    return {"approx": approx, "orbit": density}


def _system_section(system: MeasureSystem, c: Fraction, big_k: Fraction) -> dict:
    return {
        "p": system.p,
        "window": [system.k_min, system.k_max],
        "cells": list(system.cells),
        "tails": {"left": system.left_tail, "right": system.right_tail} if system.has_tails else None,
        "star_c": c,
        "distortion_K": big_k,
    }


def _weights_section(w: WeightSequence) -> dict:
    return {
        "side": w.side,
        "p": w.p,
        "lo": w.lo,
        "hi": w.hi,
        "wp": {str(k): v for k, v in w.wp.items()},
        "left_tail": list(w.left_tail) if w.left_tail else None,
        "right_tail": list(w.right_tail) if w.right_tail else None,
    }


def _semicheck_section(system: MeasureSystem, w: WeightSequence, *, samples: int) -> dict:
    # The identity is linear in phi and holds level by level (project tags
    # level k with (q_k, mu_W(k)), T_f moves q_k to k - 1, the shift scales
    # rho by wp(k)), so one phi with a unit on cell 0 of every sampled level
    # passes exactly when every sample would; its tags' integers decide it,
    # whatever ``samples`` is, which the section only echoes.
    # Without tails the image of the window floor has no measure.
    levels = support_levels(system)
    if not system.has_tails:
        levels = levels[1:]
    if not levels:
        return {"samples": 0, "exact_zero": 0, "max_defect": "0",
                "note": "window too small to shift a step function"}
    phi = StepFunction({(k, 0): 1 for k in levels})
    defect = semiconjugacy_defect(system, phi, w)
    if not (isinstance(defect, Fraction) and defect == 0):
        raise InconsistentWitness(
            f"factor identity defect {defect!r} on levels {levels.start}..{levels.stop - 1}"
        )
    return {"samples": samples, "exact_zero": samples, "max_defect": "0"}


def run_command(command: str, system: MeasureSystem, *, horizon: int, samples: int, eps: float) -> dict:
    """Sections for one subcommand; ``report`` gets all of them, over one
    derived weight sequence and so one set of its memos.  No section reads
    ``--seed``, which the document only echoes."""
    c = system.validate_star()
    big_k = system.distortion_constant()
    result: dict = {"system": _system_section(system, c, big_k)}
    if command == "validate":
        return result
    w = derive_weights(system)
    if command in ("weights", "report"):
        result["weights"] = _weights_section(w)
    if command in ("criteria", "report"):
        result["reports"] = [
            hypercyclicity_report(system), shift_hypercyclicity_report(w), weak_mixing_consistency(system),
            menet_unilateral(w), conditionmix_lhs(system, w), _cofinite_report(system), _telescoping_report(system),
        ]
    if command in ("semicheck", "report"):
        result["semicheck"] = _semicheck_section(system, w, samples=samples)
    if command in ("orbit", "report"):
        result["experiment"] = _experiment(system, w, eps=eps, horizon=horizon)
    return result


def _digits(n: int) -> str:
    """``str(n)`` in quasi-linear time where CPython 3.11's is quadratic: n split by shifts and
    joined as hi * 2**h + lo in exact ``decimal`` (CPython 3.12's ``_pylong``, gh-90716)."""
    power = functools.cache(decimal.Decimal(2).__pow__)

    def join(n: int, w: int) -> decimal.Decimal:  # n < 2**w
        if w <= 1 << 10:
            return decimal.Decimal(n)
        hi = n >> (h := w >> 1)
        return join(n - (hi << h), h) + join(hi, w - h) * power(h)

    with decimal.localcontext(decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)):
        return "-" * (n < 0) + str(join(abs(n), n.bit_length()))


def _encode(value):
    """The JSON form of the values ``json`` does not know: a Fraction as its string (past 2**15
    bits through ``_digits``), an UnbuiltPower as "coef*(step)**m", a SeqVector in its own
    format, a result record as its fields."""
    if isinstance(value, Fraction):
        n, d = value.as_integer_ratio()
        text = _digits if n.bit_length() + d.bit_length() > 1 << 15 else str
        return f"{text(n)}/{text(d)}" if d != 1 else text(n)
    if isinstance(value, UnbuiltPower):
        return f"{value.coef}*({value.step})**{value.m}"
    if isinstance(value, SeqVector):
        return value.to_dict()
    if is_dataclass(value):
        return vars(value)
    raise TypeError(f"cannot encode {type(value).__name__} as JSON")


def _scalar(value) -> str | None:
    """The JSON text of a Fraction (through ``_encode``), str, number, bool
    or None as ``json`` writes it, ``NaN`` and the infinities included; None
    for any other value."""
    if isinstance(value, Fraction):
        return encode_basestring_ascii(_encode(value))
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    return None


def _emit(value, pad: str, out: list[str]) -> None:
    """Append the text of value at the indent ``pad`` (a newline and the
    spaces) to out, as ``json.dumps(value, sort_keys=True, indent=2,
    default=_encode)`` writes it.  Keys must be strings, as in every
    document here; any other key raises ``TypeError``."""
    if (text := _scalar(value)) is not None:
        out.append(text)
    elif isinstance(value, (list, tuple)):
        inner, sep = pad + "  ", "["
        for item in value:
            out.append(sep + inner)
            _emit(item, inner, out)
            sep = ","
        out.append(pad + "]" if value else "[]")
    elif isinstance(value, dict):
        inner, sep = pad + "  ", "{"
        for key in sorted(value):
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _emit(value[key], inner, out)
            sep = ","
        out.append(pad + "}" if value else "{}")
    else:
        _emit(_encode(value), pad, out)


def render_json(result: dict) -> str:
    """The document as ``json.dumps(result, sort_keys=True, indent=2,
    default=_encode)`` writes it, plus a newline, byte for byte; written
    here because ``json`` takes its pure-Python encoder whenever it indents."""
    out: list[str] = []
    _emit(result, "\n", out)
    out.append("\n")
    return "".join(out)


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
            writer.writerow(["report", rep.criterion, rep.verdict, rep.notes])
    if "semicheck" in result:
        writer.writerow(["semicheck", "max_defect", result["semicheck"]["max_defect"], ""])
    experiment = result.get("experiment")
    if experiment is not None and "orbit" in experiment:
        writer.writerow(["experiment", "orbit_fraction", experiment["orbit"].fraction, ""])
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
        result.update(run_command(args.command, system, horizon=args.horizon, samples=args.samples, eps=args.eps))
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
    if args.strict and any(rep.verdict is Verdict.INCONCLUSIVE for rep in result.get("reports", [])):
        return 3
    return 0


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
