import argparse
import decimal
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from shiftlab import MeasureSystem, conditionmix_lhs
from shiftlab import cli
from shiftlab.cli import main
from shiftlab.criteria import DECAY_TOL
from shiftlab.sampling import random_step_function

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_prints_constants(capsys):
    code, out, _ = run(capsys, "validate", "--config", str(CONFIGS / "dyadic.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "validate"
    assert doc["system"]["star_c"] == "2"
    assert doc["system"]["distortion_K"] == "1"
    assert "weights" not in doc
    assert "reports" not in doc


def test_every_document_embeds_hash_and_version(capsys):
    code, out, _ = run(capsys, "validate", "--config", str(CONFIGS / "dyadic.json"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["config_sha256"]) == 64
    assert doc["version"]


def test_weights_dump(capsys):
    code, out, _ = run(capsys, "weights", "--config", str(CONFIGS / "dyadic.json"))
    assert code == 0
    weights = json.loads(out)["weights"]
    assert weights["wp"]["1"] == "2"
    assert weights["wp"]["0"] == "1/2"
    assert weights["left_tail"] == ["1/2"]
    assert weights["right_tail"] == ["2"]


def test_criteria_battery_json(capsys):
    code, out, _ = run(capsys, "criteria", "--config", str(CONFIGS / "dyadic.json"))
    assert code == 0
    doc = json.loads(out)
    verdicts = {r["criterion"]: r["verdict"] for r in doc["reports"]}
    assert verdicts["hypercyclicity"] == "Satisfied"
    assert verdicts["shift_hypercyclicity"] == "Satisfied"
    assert verdicts["weak_mixing"] == "Satisfied"
    assert verdicts["conditionmix"] == "Satisfied"
    assert "experiment" not in doc


def test_semicheck_sees_only_exact_zero_defects(capsys):
    code, out, _ = run(capsys, "semicheck", "--config", str(CONFIGS / "dyadic.json"),
                       "--samples", "25", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["semicheck"] == {"samples": 25, "exact_zero": 25, "max_defect": "0"}


def test_orbit_experiment(capsys):
    code, out, _ = run(capsys, "orbit", "--config", str(CONFIGS / "dyadic.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["experiment"]["orbit"]["fraction"] == 1.0


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


@pytest.mark.parametrize("horizon", ["3000", "20000"])
def test_orbit_experiment_reports_an_error_where_weights_leave_the_float_range(capsys, horizon):
    # the weight products of this window underflow a float long before the
    # horizon; the experiment must report an error entry instead of raising
    code, out, _ = run(capsys, "orbit", "--config", str(GOLDEN / "wide100.json"),
                       "--horizon", horizon)
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert "error" in doc["experiment"]


def test_no_certificate_reads_the_horizon(capsys):
    witnesses = []
    for horizon in ("1", "3", "20", "64"):
        code, out, _ = run(capsys, "criteria", "--config", str(CONFIGS / "dyadic.json"),
                           "--samples", "5", "--seed", "1", "--horizon", horizon)
        assert code == 0
        reports = {r["criterion"]: r for r in json.loads(out)["reports"]}
        witnesses.append(reports["weak_mixing"]["witness"])
    assert all(w == witnesses[0] for w in witnesses)


@pytest.mark.parametrize("mass, tail, at_least", [
    ("1", "999999/1000000", 10**7),
    ("1", f"{10**15 - 1}/{10**15}", 10**16),
    ("1", f"{10**400 - 1}/{10**400}", 10**400),
    (str(10**400), "1/2", 1300),
], ids=["tail_one_minus_1e-6", "tail_one_minus_1e-15", "tail_one_minus_1e-400", "mass_1e400"])
def test_weak_mixing_decay_step_on_extreme_configs(tmp_path, capsys, mass, tail, at_least):
    # decay steps far past anything a step-by-step search could reach; a
    # tail so close to 1 that 1 - tail underflows a float; norms beyond the
    # float range, which are compared with the tolerance exactly.  Each
    # step is the least one, as a decimal closed form finds it
    doc = {"p": "1", "window": {"min": 0, "max": 0}, "cells": ["B1"], "mu": {"0": [mass]},
           "tails": {"left": tail, "right": tail}}
    config = tmp_path / "extreme.json"
    config.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "criteria", "--config", str(config), "--samples", "3")
    assert code == 0
    reports = {r["criterion"]: r for r in json.loads(out)["reports"]}
    step = reports["weak_mixing"]["witness"]["worst_first_decay_step"]
    assert step > at_least
    rng = random.Random(0)
    samples = [random_step_function(rng, MeasureSystem.from_dict(doc)) for _ in range(3)]
    assert step == max(_decimal_tail_decay_step(phi, Fraction(mass), Fraction(tail))
                       for phi in samples if not phi.is_zero())


def _decimal_tail_decay_step(phi, mass: Fraction, tail: Fraction) -> int:
    """Least n >= 1 at which both n-step norms of phi are at most DECAY_TOL
    on a one-cell window at level 0 with both tails ``tail`` (level k has
    mass * tail**|k|) and p = 1, for an answer past phi's support: there
    each total is tail**n times the sum of |v| * mass * tail**-k forward
    and |v| * mass * tail**k inverse, so n is a ceil of a ratio of logs,
    taken in decimals with 60 digits more than the cancellation in
    ln tail and the size of n need."""
    totals = [sum(abs(v) * mass * tail ** (side * k) for (k, _), v in phi.coeffs.items()) for side in (-1, 1)]
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * len(str(tail.denominator)) + len(str(mass.numerator)) + 60

        def ln(q: Fraction) -> Decimal:
            return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()

        steps = [(ln(total / Fraction(DECAY_TOL)) / -ln(tail)).to_integral_value(decimal.ROUND_CEILING)
                 for total in totals]
    return max(1, *map(int, steps))


def _decimal_decay_step(phi, mass, p: Fraction) -> int:
    """Least n >= 1 at which both n-step norms of phi are at most DECAY_TOL,
    in 50-digit decimals on a one-cell window at level 0 with both tails
    1/2 (so level k has mass * 2**-|k|): tried one n at a time while the
    support meets level 0, then by bisection, as past that both norms only
    fall."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        ctx.Emin, ctx.Emax = -(10**12), 10**12
        exponent = Decimal(p.numerator) / Decimal(p.denominator)
        # norm <= DECAY_TOL exactly when the sum of the p-th powers is at
        # most DECAY_TOL ** p
        bound = Decimal(DECAY_TOL) ** exponent
        terms = [
            (k, (Decimal(abs(v.numerator)) / Decimal(v.denominator)) ** exponent * Decimal(mass))
            for (k, _), v in phi.coeffs.items()
        ]

        def decayed(shift):
            return sum(a / Decimal(2) ** abs(k + shift) for k, a in terms) <= bound

        def both(n):
            return decayed(-n) and decayed(n)

        span = max(abs(k) for k, _ in terms) + 1
        n = next((n for n in range(1, span + 1) if both(n)), None)
        if n is not None:
            return n
        lo, hi = span, 2 * span
        while not both(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if both(mid) else (mid, hi)
        return hi


@pytest.mark.parametrize("p, mass, seed, samples", [
    ("3/2", 10**309, 0, 3),
    ("2", 10**700, 0, 3),
    ("1401/2", 10**297, 43, 1),
    ("801/2", 1, 0, 20),
], ids=["float_powers_mass_1e309", "exact_powers_mass_1e700", "powers_below_floats_mass_1e297",
        "powers_above_floats_mass_1"])
@pytest.mark.parametrize("command", ["criteria", "report"])
def test_weak_mixing_norms_beyond_the_float_range(tmp_path, capsys, command, p, mass, seed, samples):
    # a norm past the float range used to raise OverflowError, from the
    # float * Fraction of a term (p = 3/2) or the float root (p = 2), as did
    # a coefficient power past it (6 ** (801/2)), and a power below it
    # (p = 1401/2) dropped out of the sum as 0.0, giving 1; the decay step
    # must match a step-by-step decimal search
    doc = {"p": p, "window": {"min": 0, "max": 0}, "cells": ["B1"], "mu": {"0": [str(mass)]},
           "tails": {"left": "1/2", "right": "1/2"}}
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc))
    code, out, _ = run(capsys, command, "--config", str(config), "--samples", str(samples), "--seed", str(seed))
    assert code == 0
    reports = json.loads(out, parse_constant=_reject_constant)["reports"]
    witness = {r["criterion"]: r for r in reports}["weak_mixing"]["witness"]
    system = MeasureSystem.from_dict(doc)
    rng = random.Random(seed)
    samples = [random_step_function(rng, system) for _ in range(samples)]
    expected = max(_decimal_decay_step(phi, mass, system.p) for phi in samples if not phi.is_zero())
    assert witness["worst_first_decay_step"] == expected


@pytest.mark.parametrize("masses, tails, value, at_n", [
    (["1", "2"], ["999/1000", "999/1000"], Fraction(1, 2), 1),
    ([f"1/{10**321}", str(10**50)], ["2/3", "1"], Fraction(1, 10**371), 1),
    (["1", "1/100", "1"], ["999/1000", "999/1000"], Fraction(999, 1000) ** 2302, 2302),
], ids=["tails_999_over_1000", "masses_over_371_orders", "tails_meet_at_2302"])
def test_conditionmix_on_configs_that_used_to_hang(tmp_path, capsys, masses, tails, value, at_n):
    # tails near 1 or masses far apart once made the enumeration of n run
    # for minutes; in the last config the tail terms meet past the window,
    # and the value, 6,900 digits long, is printed as "c*(r)**e"
    config = tmp_path / "hard.json"
    config.write_text(json.dumps({
        "p": "1", "window": {"min": 0, "max": len(masses) - 1}, "cells": ["B1"],
        "mu": {str(k): [m] for k, m in enumerate(masses)},
        "tails": {"left": tails[0], "right": tails[1]},
    }))
    code, out, _ = run(capsys, "criteria", "--config", str(config), "--samples", "3")
    assert code == 0
    reports = json.loads(out, parse_constant=_reject_constant)["reports"]
    witness = {r["criterion"]: r for r in reports}["conditionmix"]["witness"]
    assert witness["attained_at_n"] == at_n
    if "*" in witness["value"]:
        c, rest = witness["value"].split("*(")
        r, e = rest.split(")**")
        assert Fraction(c) * Fraction(r) ** int(e) == value
    else:
        assert Fraction(witness["value"]) == value


@pytest.mark.parametrize("eps", [10**12, 10**400], ids=["tails_one_minus_1e-12", "tails_one_minus_1e-400"])
def test_conditionmix_meeting_point_past_float_reach_in_the_cli(tmp_path, capsys, eps):
    # the tail terms meet near n = 2.3 * 10**12 or 2.3 * 10**400; the CLI
    # gives the witness of the library, whose n and value
    # test_criteria.py checks against a decimal search
    doc = {"p": "1", "window": {"min": 0, "max": 2}, "cells": ["B1"], "mu": {"0": ["1"], "1": ["1/100"], "2": ["1"]},
           "tails": {"left": f"{eps - 1}/{eps}", "right": f"{eps - 1}/{eps}"}}
    config = tmp_path / "meet.json"
    config.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, _ = run(capsys, "criteria", "--config", str(config), "--samples", "3")
    assert time.perf_counter() - start < (1 if eps == 10**12 else 5)
    assert code == 0
    report = {r["criterion"]: r for r in json.loads(out, parse_constant=_reject_constant)["reports"]}["conditionmix"]
    assert report["witness"] == conditionmix_lhs(MeasureSystem.from_dict(doc)).witness
    assert report["witness"]["attained"] is True


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    for module in ("shiftlab", "shiftlab.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "validate", "--config", str(CONFIGS / "dyadic.json")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "validate"


def _old_parser() -> argparse.ArgumentParser:
    """The parser as it was built on every call before it was cached: the
    flags added to each subcommand separately."""
    parser = cli._Parser(prog="shiftlab", description="exact certificates for cell models and their shifts")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in cli.COMMANDS:
        cmd = sub.add_parser(name, help=cli._HELP[name])
        cmd.add_argument("--config", required=True, help="path to a system config (JSON)")
        cmd.add_argument("--output", choices=("json", "csv"), default="json")
        cmd.add_argument("--out", default=None, help="write to this file instead of stdout")
        cmd.add_argument("--seed", type=int, default=0, help="sampling seed (unsigned 64-bit)")
        cmd.add_argument("--horizon", type=int, default=64, help="step budget of the orbit experiment")
        cmd.add_argument("--samples", type=int, default=100,
                         help="step functions sampled by the weak-mixing trial and by semicheck")
        cmd.add_argument("--eps", type=float, default=1e-2, help="approximation budget of the orbit experiment")
        cmd.add_argument("--strict", action="store_true",
                         help="exit 3 when any verdict is InconclusiveWindow")
    return parser


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return parser._subparsers._group_actions[0].choices


def test_shared_flags_give_the_same_help_as_per_command_flags():
    old, new = _old_parser(), cli.build_parser()
    assert new.format_help() == old.format_help()
    assert new.format_usage() == old.format_usage()
    assert list(_subcommands(new)) == list(cli.COMMANDS)
    for name, cmd in _subcommands(new).items():
        assert cmd.format_help() == _subcommands(old)[name].format_help()


def test_the_cached_parser_leaks_nothing_between_calls(capsys):
    dyadic, window_only = str(CONFIGS / "dyadic.json"), str(CONFIGS / "window_only.json")
    calls = [
        ["frobnicate", "--config", dyadic],
        ["validate", "--config", dyadic, "--horizon", "0"],
        ["criteria", "--strict", "--samples", "3", "--config", window_only],
        ["validate", "--output", "csv", "--config", dyadic],
        ["semicheck", "--seed", "7", "--samples", "3", "--config", dyadic],
        ["validate", "--config", dyadic],
        ["semicheck", "--samples", "3", "--config", dyadic],
        ["--help"],
        ["report", "--help"],
        ["criteria", "--config", window_only, "--samples", "3"],
    ]
    reused = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in reused] == [64, 64, 3, 0, 0, 0, 0, 0, 0, 0]
    for argv, result in zip(calls, reused):
        cli.build_parser.cache_clear()
        assert run(capsys, *argv) == result, argv


def test_help_prints_and_returns_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: shiftlab [-h] command ...")
    code, out, err = run(capsys, "report", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: shiftlab report [-h] --config CONFIG")
    proc = _python("-m", "shiftlab", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: shiftlab [-h] command ...")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_importing_the_cli_builds_no_parser():
    proc = _python("-c", "import shiftlab.cli as cli; print(cli.build_parser.cache_info().currsize)")
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def test_report_aggregates_every_section(capsys):
    code, out, _ = run(capsys, "report", "--config", str(CONFIGS / "dyadic.json"))
    assert code == 0
    doc = json.loads(out)
    for key in ("system", "weights", "reports", "semicheck", "experiment"):
        assert key in doc
    assert doc["command"] == "report"


def test_csv_output(capsys):
    code, out, _ = run(capsys, "report", "--config", str(CONFIGS / "dyadic.json"),
                       "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "record,name,value,notes"
    assert any(line.startswith("meta,config_sha256,") for line in lines)
    assert any(line.startswith("weight,wp(1),2") for line in lines)
    assert any(line.startswith("report,hypercyclicity,Satisfied") for line in lines)


def test_window_only_config_is_inconclusive_and_strict_fails(capsys):
    config = str(CONFIGS / "window_only.json")
    code, out, _ = run(capsys, "report", "--config", config)
    assert code == 0
    doc = json.loads(out)
    assert doc["experiment"] is None
    assert any(r["verdict"] == "InconclusiveWindow" for r in doc["reports"])
    code_strict, _, _ = run(capsys, "criteria", "--config", config, "--strict")
    assert code_strict == 3


def test_strict_passes_when_everything_is_decided(capsys):
    code, _, _ = run(capsys, "report", "--config", str(CONFIGS / "dyadic.json"), "--strict")
    assert code == 0


def test_strict_without_verdict_sections_is_a_no_op(capsys):
    code, _, _ = run(capsys, "validate", "--config", str(CONFIGS / "window_only.json"),
                     "--strict")
    assert code == 0


def test_missing_file_is_validation_error(capsys):
    code, _, err = run(capsys, "validate", "--config", "no-such-file.json")
    assert code == 2
    assert "cannot read" in err


def test_bad_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "validate", "--config", str(bad))
    assert code == 2
    assert "invalid config" in err


@pytest.mark.parametrize("text", [
    "[" * 200_000,
    '{"p": ' + "1" * 5001 + "}",
], ids=["nested_200000_deep", "integer_of_5001_digits"])
def test_json_past_the_parser_limits_is_validation_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "validate", "--config", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("shiftlab: invalid config: config: invalid JSON") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1 ", "1_0", "\uff11", "None", ""])
def test_every_level_key_names_one_level(tmp_path, capsys, key):
    # int() reads each key as a level: "01" beside "1" would overwrite its row, and "1_0" is level 10
    config = tmp_path / "keys.json"
    config.write_text(json.dumps({
        "window": {"min": 0, "max": 1},
        "cells": ["B1"],
        "mu": {"0": ["1"], "1": ["1/2"], key: ["1/4"]},
    }))
    code, out, err = run(capsys, "validate", "--config", str(config))
    assert (code, out) == (2, "")
    assert f"level key {key!r} is not a canonical integer" in err


def test_exact_outputs_past_the_digit_limit_print(tmp_path, capsys):
    rng = random.Random(12)
    m0, m1 = (Fraction(rng.randrange(10**3799, 10**4000), rng.randrange(10**3799, 10**4000)) for _ in range(2))
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    config = tmp_path / "long.json"
    config.write_text(json.dumps({
        "window": {"min": 0, "max": 1},
        "cells": ["B1"],
        "mu": {"0": [str(m0)], "1": [str(m1)]},
    }))
    docs = {}
    for command in ("validate", "weights"):
        code, out, _ = run(capsys, command, "--config", str(config))
        assert code == 0
        assert get_limit() == limit
        docs[command] = json.loads(out)
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        ratio = m0 / m1
        assert docs["validate"]["system"]["star_c"] == str(max(ratio, 1 / ratio))
        assert docs["weights"]["system"]["star_c"] == str(max(ratio, 1 / ratio))
        assert docs["weights"]["weights"]["wp"] == {"1": str(ratio)}
        assert len(str(ratio)) > 2 * 4300
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_zero_measure_is_validation_error(tmp_path, capsys):
    config = tmp_path / "zero.json"
    config.write_text(json.dumps({
        "p": "2",
        "window": {"min": 0, "max": 0},
        "cells": ["B1"],
        "mu": {"0": ["0"]},
        "tails": {"left": "1/2", "right": "1/2"},
    }))
    code, _, err = run(capsys, "validate", "--config", str(config))
    assert code == 2
    assert "not positive" in err


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("report",),
        ("criteria", "--config", "x.json", "--output", "pdf"),
        ("report", "--config", "x.json", "--seed", "-1"),
        ("report", "--config", "x.json", "--seed", str(2**64)),
        ("report", "--config", "x.json", "--eps", "0"),
        ("report", "--config", "x.json", "--eps", "-0.5"),
        ("report", "--config", "x.json", "--eps", "nan"),
        ("report", "--config", "x.json", "--eps", "inf"),
        ("report", "--config", "x.json", "--samples", "-3"),
        ("report", "--config", "x.json", "--horizon", "0"),
        ("report", "--config", "x.json", "--horizon", "-5"),
        ("frobnicate",),
    ],
)
def test_usage_errors_exit_64(capsys, args):
    code, _, _ = run(capsys, *args)
    assert code == 64


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    target = tmp_path / "absent" / "x.json" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "validate", "--config", str(CONFIGS / "dyadic.json"),
                         "--out", str(target))
    assert code == 64
    assert out == ""
    assert err.startswith("shiftlab: cannot write output: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("p", ["1e400", "1000001/2"])
@pytest.mark.parametrize("command", ["criteria", "report"])
def test_a_huge_exponent_finishes_every_certificate(tmp_path, capsys, command, p):
    # exact powers of either size would have millions of digits (and
    # float(1e400) overflows): the powers are kept as logs, DECAY_TOL ** p
    # is never built, and for p = 1000001/2 the decay step, past 10**7,
    # must match a decimal search
    doc = {"p": p, "window": {"min": -1, "max": 1}, "cells": ["B1"],
           "mu": {"-1": ["1/2"], "0": ["1"], "1": ["1/2"]}, "tails": {"left": "1/2", "right": "1/2"}}
    config = tmp_path / "huge_p.json"
    config.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, _ = run(capsys, command, "--config", str(config), "--samples", "3")
    assert time.perf_counter() - start < 1
    assert code == 0
    reports = {r["criterion"]: r for r in json.loads(out, parse_constant=_reject_constant)["reports"]}
    step = reports["weak_mixing"]["witness"]["worst_first_decay_step"]
    if p == "1e400":
        assert step > 10**400
        return
    system = MeasureSystem.from_dict(doc)
    rng = random.Random(0)
    samples = [random_step_function(rng, system) for _ in range(3)]
    assert step == max(_decimal_decay_step(phi, 1, system.p) for phi in samples if not phi.is_zero())


def test_orbit_with_a_huge_exponent_finishes(tmp_path, capsys):
    # p = 10**400: every weight root is a 10**400-th root, which has no
    # integer answer and must not be searched for by Newton steps
    config = tmp_path / "huge_p.json"
    config.write_text(json.dumps({
        "p": "1e400", "window": {"min": -1, "max": 1}, "cells": ["B1"],
        "mu": {"-1": ["1/2"], "0": ["1"], "1": ["1/2"]},
        "tails": {"left": "1/2", "right": "1/2"},
    }))
    code, out, _ = run(capsys, "orbit", "--config", str(config))
    assert code == 0
    assert "error" in json.loads(out)["experiment"]


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "report", "--config", str(CONFIGS / "dyadic.json"),
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["system"]["star_c"] == "2"
