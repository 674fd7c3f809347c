import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import BILATERAL, MeasureSystem, SeqVector, conditionmix_lhs
from shiftlab import cli
from shiftlab.criteria import Verdict
from shiftlab.hc_lab import OrbitHit
from shiftlab.cli import main
from shiftlab.sampling import support_levels
from shiftlab.shift_space import derive_weights

from generators import random_system, uniform_decay_step_reference

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


def test_semicheck_on_a_one_level_window_without_tails_has_nothing_to_shift(capsys, tmp_path):
    # without tails the window floor's image has no measure, so a one-level
    # window leaves semicheck no level and every criterion inconclusive
    config = tmp_path / "one_level.json"
    config.write_text(json.dumps({"cells": ["A", "B"], "mu": {"0": ["1/2", "1/2"]}, "p": "2",
                                  "window": {"min": 0, "max": 0}}))
    code, out, _ = run(capsys, "report", "--config", str(config))
    assert code == 0
    doc = json.loads(out)
    assert doc["semicheck"] == {"exact_zero": 0, "max_defect": "0",
                                "note": "window too small to shift a step function", "samples": 0}
    assert [r["verdict"] for r in doc["reports"]] == ["InconclusiveWindow"] * 7
    code, out, _ = run(capsys, "semicheck", "--config", str(config), "--output", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "semicheck,max_defect,0,"


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


@pytest.mark.parametrize("config", ["dyadic.json", "flat.json"])
def test_no_certificate_reads_the_seed(capsys, config):
    # the same config gives the same bytes for any --seed but its echo
    outputs = set()
    for seed in ("0", "1", "7", str(2**64 - 1)):
        code, out, _ = run(capsys, "report", "--config", str(CONFIGS / config), "--seed", seed)
        assert code == 0
        outputs.add(out.replace(f'"seed": {seed}\n', '"seed": 0\n'))
    assert len(outputs) == 1


def _report_without_hash(system) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "system.json"
        config.write_text(system.to_json())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["report", "--config", str(config)]) == 0
    return "".join(line for line in out.getvalue().splitlines(keepends=True) if '"config_sha256"' not in line)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_report_bytes_do_not_move_when_every_mass_is_rescaled(seed):
    # a constant factor on mu gives the same operator up to a scalar in the
    # norm: every byte of report but the config's hash stays
    system = random_system(random.Random(seed))
    scaled = replace(system, mu={k: tuple(v * Fraction(7, 3) for v in row) for k, row in system.mu.items()})
    assert _report_without_hash(system) == _report_without_hash(scaled)


def _criteria_reports(system) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "system.json"
        config.write_text(system.to_json())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["criteria", "--config", str(config)]) == 0
    return {r["criterion"]: r for r in json.loads(out.getvalue())["reports"]}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_reflection_keeps_the_decay_verdicts_and_the_uniform_step(seed):
    # k -> -k swaps the tails and turns forward decay into inverse decay:
    # dense orbits and weak mixing ask for both, so neither verdict nor the
    # uniform step may move
    system = random_system(random.Random(seed))
    mirrored = replace(system, k_min=-system.k_max, k_max=-system.k_min,
                       mu={-k: row for k, row in system.mu.items()},
                       left_tail=system.right_tail, right_tail=system.left_tail)
    before, after = _criteria_reports(system), _criteria_reports(mirrored)
    for name in ("hypercyclicity", "weak_mixing"):
        assert before[name]["verdict"] == after[name]["verdict"]
    assert before["weak_mixing"]["witness"].get("uniform_step") == after["weak_mixing"]["witness"].get("uniform_step")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), pick=st.integers(min_value=0, max_value=10))
def test_translation_keeps_every_verdict_and_moves_the_levels(seed, pick):
    # relabelling level k as k + t, with level 0 still in the window, gives
    # the same operator: all seven verdicts and the uniform step stay, and
    # the level-indexed witnesses, weak mixing's and the cofinite quotient's
    # levels, move by t.  The weight-indexed ones need not: menet's
    # sup_inf_wp reads the weights from index 1 on, so it is not
    # translation-invariant, and neither is the telescoping bound's block
    system = random_system(random.Random(seed))
    t = -system.k_max + pick % (system.k_max - system.k_min + 1)
    moved = replace(system, k_min=system.k_min + t, k_max=system.k_max + t,
                    mu={k + t: row for k, row in system.mu.items()})
    before, after = _criteria_reports(system), _criteria_reports(moved)
    assert {name: r["verdict"] for name, r in before.items()} == {name: r["verdict"] for name, r in after.items()}
    assert len(before) == 7
    mixing, mixing_moved = before["weak_mixing"]["witness"], after["weak_mixing"]["witness"]
    assert mixing.get("uniform_step") == mixing_moved.get("uniform_step")
    if "levels" in mixing:
        assert mixing_moved["levels"] == [k + t for k in mixing["levels"]]
    quotient, quotient_moved = before["cofinite_quotient"]["witness"], after["cofinite_quotient"]["witness"]
    if "levels" in quotient:
        assert quotient_moved == {**quotient, "levels": [k + t for k in quotient["levels"]]}


@pytest.mark.parametrize("mass, tail, at_least", [
    ("1", "999999/1000000", 10**7),
    ("1", f"{10**15 - 1}/{10**15}", 10**16),
    ("1", f"{10**400 - 1}/{10**400}", 10**400),
    (str(10**400), "1/2", 20),
], ids=["tail_one_minus_1e-6", "tail_one_minus_1e-15", "tail_one_minus_1e-400", "mass_1e400"])
def test_weak_mixing_decay_step_on_extreme_configs(tmp_path, capsys, mass, tail, at_least):
    # uniform steps far past anything a step-by-step search could reach; a
    # tail so close to 1 that 1 - tail underflows a float; masses beyond the
    # float range, whose ratios are not.  Each step is the least one, as the
    # cell-by-cell reference finds it
    doc = {"p": "1", "window": {"min": 0, "max": 0}, "cells": ["B1"], "mu": {"0": [mass]},
           "tails": {"left": tail, "right": tail}}
    config = tmp_path / "extreme.json"
    config.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "criteria", "--config", str(config), "--samples", "3")
    assert code == 0
    reports = {r["criterion"]: r for r in json.loads(out)["reports"]}
    step = reports["weak_mixing"]["witness"]["uniform_step"]
    assert step > at_least
    system = MeasureSystem.from_dict(doc)
    assert step == uniform_decay_step_reference(system, support_levels(system))


@pytest.mark.parametrize("p, mass", [
    ("3/2", 10**309),
    ("2", 10**700),
    ("1401/2", 10**297),
    ("801/2", 1),
], ids=["float_powers_mass_1e309", "exact_powers_mass_1e700", "powers_below_floats_mass_1e297",
        "powers_above_floats_mass_1"])
@pytest.mark.parametrize("command", ["criteria", "report"])
def test_weak_mixing_norms_beyond_the_float_range(tmp_path, capsys, command, p, mass):
    # masses past the float range once overflowed the norms, and tolerances
    # DECAY_TOL ** p below it dropped out; the uniform step must match the
    # cell-by-cell reference
    doc = {"p": p, "window": {"min": 0, "max": 0}, "cells": ["B1"], "mu": {"0": [str(mass)]},
           "tails": {"left": "1/2", "right": "1/2"}}
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc))
    code, out, _ = run(capsys, command, "--config", str(config), "--samples", "3")
    assert code == 0
    reports = json.loads(out, parse_constant=_reject_constant)["reports"]
    witness = {r["criterion"]: r for r in reports}["weak_mixing"]["witness"]
    system = MeasureSystem.from_dict(doc)
    assert witness["uniform_step"] == uniform_decay_step_reference(system, support_levels(system))


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
    system = MeasureSystem.from_dict(doc)
    witness = conditionmix_lhs(system, derive_weights(system)).witness
    assert report["witness"] == json.loads(json.dumps(witness, default=cli._encode))
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
        cmd.add_argument("--seed", type=int, default=0,
                         help="echoed in the document; no certificate reads it (unsigned 64-bit)")
        cmd.add_argument("--horizon", type=int, default=64, help="step budget of the orbit experiment")
        cmd.add_argument("--samples", type=int, default=100,
                         help="step functions semicheck reports as covered")
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


def test_render_json_refuses_a_key_that_is_not_a_string():
    # every document's keys are strings; json.dumps would coerce a number
    with pytest.raises(TypeError):
        cli.render_json({"a": {1: "x"}})


@pytest.mark.parametrize("value", [1j, object(), {1, 2}, b"x"], ids=["complex", "object", "set", "bytes"])
def test_render_json_refuses_a_type_it_does_not_know(value):
    # no fallback to str(): a new record type must not print its repr; nested
    # or not, the error is _encode's, as json.dumps would pass it on
    with pytest.raises(TypeError, match=f"^cannot encode {type(value).__name__} as JSON$"):
        cli.render_json({"v": value})
    with pytest.raises(TypeError, match=f"^cannot encode {type(value).__name__} as JSON$"):
        cli.render_json({"a": [{"b": value}]})


# leaves of every kind render_json meets: json's scalars (strings with
# quotes, escapes, control and non-ASCII characters; ints past the 4300-digit
# str limit; floats with -0.0, subnormals and the non-finite three), and the
# values _encode turns into them, a Verdict among them
_LEAVES = (
    st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\ud800"])
    | st.integers()
    | st.integers(4301, 4310).map(lambda digits: 10**digits + 1)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan])
    | st.booleans()
    | st.none()
    | st.fractions()
    | st.sampled_from(list(Verdict))
    | st.builds(lambda entries: SeqVector(BILATERAL, entries),
                st.dictionaries(st.integers(-5, 5), st.complex_numbers(allow_nan=False, allow_infinity=False),
                                max_size=3))
    | st.builds(OrbitHit, st.integers(0, 9), st.integers(0, 64), st.floats(), st.booleans())
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(st.text(), _DOCUMENTS, max_size=5))
def test_render_json_writes_the_bytes_of_json_dumps(doc):
    # the CLI renders with the int-to-str digit limit lifted, as here
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = json.dumps(doc, sort_keys=True, indent=2, default=cli._encode) + "\n"
        assert cli.render_json(doc) == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_long_integers_render_as_str_writes_them():
    # past 2**15 bits a Fraction's numerator and denominator are written
    # through the decimal split of cli._digits, with the bytes of str: at
    # the threshold, for negative values and for a 1.69M-bit integer
    rng = random.Random(15)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for bits in [*range((1 << 15) - 33, (1 << 15) + 34, 11), 1 << 16, 1_690_000]:
            n = 231 * (rng.getrandbits(bits - 8) | 1 << (bits - 9)) + 1  # prime to 3, 7 and 11
            text = str(n)  # one quadratic str per size
            assert cli._digits(n) == text and cli._digits(-n) == "-" + text
            assert [cli._encode(q) for q in (Fraction(n), Fraction(-n, 7), Fraction(3, n), Fraction(n, 11**9))] == \
                [text, f"-{text}/7", f"3/{text}", f"{text}/{11**9}"]
        assert [cli._digits(n) for n in (0, 1, -1, 2**1024, 10**400)] == ["0", "1", "-1", str(2**1024), str(10**400)]
    finally:
        sys.set_int_max_str_digits(limit)


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
    # DECAY_TOL ** p would have millions of digits (and float(1e400)
    # overflows): it is never built, and for p = 1000001/2 the uniform
    # step, past 10**7, must match the cell-by-cell reference
    doc = {"p": p, "window": {"min": -1, "max": 1}, "cells": ["B1"],
           "mu": {"-1": ["1/2"], "0": ["1"], "1": ["1/2"]}, "tails": {"left": "1/2", "right": "1/2"}}
    config = tmp_path / "huge_p.json"
    config.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, _ = run(capsys, command, "--config", str(config), "--samples", "3")
    assert time.perf_counter() - start < 1
    assert code == 0
    reports = {r["criterion"]: r for r in json.loads(out, parse_constant=_reject_constant)["reports"]}
    step = reports["weak_mixing"]["witness"]["uniform_step"]
    if p == "1e400":
        assert step > 10**400
        return
    system = MeasureSystem.from_dict(doc)
    assert step == uniform_decay_step_reference(system, support_levels(system))


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
    # float(p) overflows before any weight is read
    assert json.loads(out)["experiment"]["error"].startswith("the orbit experiment leaves the float range")
    # with fewer steps than targets no gap is tried, and p is never read
    code, out, _ = run(capsys, "orbit", "--config", str(config), "--horizon", "2")
    assert code == 0
    assert json.loads(out)["experiment"] == {"error": "no gap with 3 targets fits within 2 steps at eps=0.01"}


def test_orbit_whose_p_norm_overflows_does_not_blame_the_weights(tmp_path, capsys):
    # dyadic's weights are 2**(+-1/p), about 1 at p = 100000, and none leaves
    # the float range; |v|**p in the p-norm does, for an entry near 2 where
    # two targets overlap at gap 1
    doc = json.loads((CONFIGS / "dyadic.json").read_text())
    config = tmp_path / "dyadic_p100000.json"
    config.write_text(json.dumps({**doc, "p": "100000"}))
    code, out, _ = run(capsys, "orbit", "--config", str(config))
    assert code == 0
    experiment = json.loads(out)["experiment"]
    assert list(experiment) == ["error"]
    assert experiment["error"].startswith("the orbit experiment leaves the float range")
    assert "weight" not in experiment["error"]


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "report", "--config", str(CONFIGS / "dyadic.json"),
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["system"]["star_c"] == "2"


def _tripled(w, place):
    """w with the weight power at one place multiplied by 3."""
    if place in ("left_tail", "right_tail"):
        tail = getattr(w, place)
        return replace(w, **{place: (3 * tail[0],) + tail[1:]})
    return replace(w, wp={**w.wp, place: 3 * w.wp[place]})


# one weight 3x off: dyadic's wp[1], the original case under its original
# ids and again under --samples 0, which still makes the one exact check,
# then wide200's right edge and each tail, which one random sample on its
# 405 levels almost never meets and the certificate always does
_BROKEN_WEIGHTS = [
    *(pytest.param(command, CONFIGS / "dyadic.json", "100", 1, id=command) for command in ("report", "semicheck")),
    pytest.param("semicheck", CONFIGS / "dyadic.json", "0", 1, id="semicheck-samples-0"),
    *(pytest.param(command, GOLDEN / "wide200.json", "1", place, id=f"{command}-wide200-{place}")
      for place in (200, "right_tail", "left_tail") for command in ("report", "semicheck")),
]


@pytest.mark.parametrize("command, config, samples, place", _BROKEN_WEIGHTS)
def test_a_broken_factor_identity_exits_1_without_a_traceback(capsys, monkeypatch, command, config, samples, place):
    monkeypatch.setattr(cli, "derive_weights", lambda system: _tripled(derive_weights(system), place))
    code, out, err = run(capsys, command, "--config", str(config), "--samples", samples)
    assert code == 1
    assert out == ""
    assert err.startswith("shiftlab: factor identity defect") and "Traceback" not in err


@pytest.mark.parametrize("samples, calls", [("0", 1), ("1", 1), ("100", 1)])
def test_semicheck_makes_one_exact_check_whatever_the_sample_count(capsys, monkeypatch, samples, calls):
    seen = []
    monkeypatch.setattr(cli, "semiconjugacy_defect", lambda *args: seen.append(args) or Fraction(0))
    code, out, _ = run(capsys, "semicheck", "--config", str(CONFIGS / "dyadic.json"), "--samples", samples)
    assert code == 0
    assert json.loads(out)["semicheck"] == {"samples": int(samples), "exact_zero": int(samples), "max_defect": "0"}
    assert len(seen) == calls


def test_a_float_defect_of_zero_is_not_an_exact_zero(capsys, monkeypatch):
    # only a Fraction 0 certifies the identity; a float 0.0 may be a rounded difference
    monkeypatch.setattr(cli, "semiconjugacy_defect", lambda *args: 0.0)
    code, out, err = run(capsys, "semicheck", "--config", str(CONFIGS / "dyadic.json"))
    assert (code, out) == (1, "")
    assert err == "shiftlab: factor identity defect 0.0 on levels -7..7\n"
