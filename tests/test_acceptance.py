"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Each test prints one ``[acceptance]`` line before asserting, so a plain
``pytest -v`` run shows one verdict per criterion and ``-s`` shows the
printed detail as well.
"""

import json
import random
import time
from fractions import Fraction

from shiftlab import (
    BILATERAL,
    SeqVector,
    StepFunction,
    Verdict,
    apply_Tf,
    apply_Tf_inverse,
    cofinite_quotient_witness,
    conditionmix_lhs,
    construct_hc_approx,
    derive_weights,
    hypercyclicity_report,
    lp_norm_step,
    menet_unilateral,
    orbit_density_report,
    semiconjugacy_defect,
    shift_hypercyclicity_report,
    telescoping_bound_check,
)
from shiftlab.cli import main
from shiftlab.shift_space import UNILATERAL, WeightSequence
from shiftlab.sampling import random_step_function

from conftest import make_dyadic
from generators import random_decay_system, random_functional, random_system


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_semiconjugacy_defect_exactly_zero():
    rng = random.Random(1001)
    start = time.perf_counter()
    checked = 0
    worst = Fraction(0)
    for _ in range(50):
        system = random_system(rng)
        w = derive_weights(system)
        for _ in range(100):
            phi = random_step_function(rng, system)
            defect = semiconjugacy_defect(system, phi, w)
            checked += 1
            if defect != 0:
                worst = defect
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst == 0 and checked == 5000 and elapsed < 10.0,
        f"{checked} projections, worst defect {worst}, {elapsed:.2f}s < 10s",
    )


def test_criterion_02_derived_weights_match_mass_ratios():
    dyadic = make_dyadic()
    w = derive_weights(dyadic)
    ok = all(w.wp_at(k) == 2 for k in range(1, 33))
    ok = ok and all(w.wp_at(k) == Fraction(1, 2) for k in range(-32, 1))
    rng = random.Random(1002)
    mismatches = 0
    for _ in range(10):
        system = random_system(rng)
        ws = derive_weights(system)
        for k in range(system.k_min - 8, system.k_max + 9):
            if ws.wp_at(k) != system.mu_W(k - 1) / system.mu_W(k):
                mismatches += 1
    _report(
        2,
        ok and mismatches == 0,
        f"dyadic powers frozen at 2 and 1/2, {mismatches} ratio mismatches over 10 systems",
    )


def test_criterion_03_measure_and_shift_routes_agree():
    rng = random.Random(1003)
    disagreements = 0
    for _ in range(200):
        system = random_system(rng)
        via_masses = hypercyclicity_report(system).verdict
        via_weights = shift_hypercyclicity_report(derive_weights(system)).verdict
        if via_masses is not via_weights:
            disagreements += 1
    _report(3, disagreements == 0, f"200 systems, {disagreements} disagreements")


def test_criterion_04_hypercyclic_systems_satisfy_conditionmix():
    rng = random.Random(1003)  # same stream as criterion 3
    violations = 0
    satisfied = 0
    for _ in range(200):
        system = random_system(rng)
        if hypercyclicity_report(system).verdict is not Verdict.SATISFIED:
            continue
        satisfied += 1
        report = conditionmix_lhs(system, derive_weights(system))
        if report.verdict is not Verdict.SATISFIED:
            violations += 1
            continue
        if Fraction(report.witness["value"]) > 1:
            violations += 1
    _report(
        4,
        violations == 0 and satisfied > 0,
        f"{satisfied} hypercyclic systems, {violations} violations of the sup-inf bound",
    )


def test_criterion_05_iterated_norms_are_exact_powers():
    dyadic = make_dyadic("1")
    phi = StepFunction.indicator_level(dyadic, 0)
    bad = 0
    for n in range(0, 31):
        fwd = lp_norm_step(dyadic, apply_Tf(phi, n))
        bwd = lp_norm_step(dyadic, apply_Tf_inverse(phi, n))
        expected = Fraction(1, 2**n)
        if not (isinstance(fwd, Fraction) and fwd == expected):
            bad += 1
        if not (isinstance(bwd, Fraction) and bwd == expected):
            bad += 1
    _report(5, bad == 0, f"n <= 30 forward and inverse norms all equal 2**-n exactly, {bad} misses")


def test_criterion_06_telescoping_bound_always_holds():
    rng = random.Random(1006)
    constants = (Fraction(3, 2), Fraction(2), Fraction(4))
    failures = 0
    checks = 0
    for index in range(50):
        cp = constants[index % 3]
        system = random_decay_system(rng, min_back_ratio=cp)
        for j in (0, system.k_max + 1):
            for n_k in range(1, 65):
                result = telescoping_bound_check(system, j, n_k, 1, cp)
                checks += 1
                if not result.holds:
                    failures += 1
    _report(6, failures == 0, f"{checks} block comparisons, {failures} failures")


def test_criterion_07_menet_frozen_verdicts_exact():
    def uni(*values):
        return WeightSequence(
            p=Fraction(1), side=UNILATERAL, lo=1, hi=0, wp={},
            right_tail=tuple(Fraction(v) for v in values),
        )

    doubling = menet_unilateral(uni(2))
    constant = menet_unilateral(uni(1))
    alternating = menet_unilateral(uni(2, Fraction(1, 2)))
    ok = (
        doubling.verdict is Verdict.VIOLATED
        and constant.verdict is Verdict.SATISFIED
        and Fraction(constant.witness["bound_wp"]) == 1
        and alternating.verdict is Verdict.SATISFIED
        and Fraction(alternating.witness["bound_wp"]) == 2
        and Fraction(alternating.witness["sup_inf_wp"]) == 1
    )
    _report(
        7,
        ok,
        "w=2 Violated, w=1 Satisfied bound 1, alternating Satisfied bound 2, exact rationals",
    )


def test_criterion_08_constructive_orbit_hits_targets():
    w = derive_weights(make_dyadic("1"))
    targets = [
        SeqVector(BILATERAL, {0: 1.0}),
        SeqVector(BILATERAL, {0: 1.0, 1: 1.0}),
        SeqVector(BILATERAL, {-1: 1.0}),
    ]
    start = time.perf_counter()
    approx = construct_hc_approx(w, targets, eps=1e-2, horizon=64)
    density = orbit_density_report(w, approx.vector, targets, eps=1e-2, horizon=64)
    elapsed = time.perf_counter() - start
    ok = (
        all(d <= 1e-2 for d in approx.defects)
        and density.fraction == 1.0
        and elapsed < 1.0
    )
    _report(
        8,
        ok,
        f"defects {[f'{d:.2e}' for d in approx.defects]}, fraction {density.fraction}, {elapsed:.3f}s < 1s",
    )


def test_criterion_09_cofinite_witness_kills_functionals():
    dyadic = make_dyadic("1")
    rng = random.Random(1009)
    problems = 0
    for m in (0, 1, 2):
        functionals = [random_functional(rng, range(-10, -5)) for _ in range(m)]
        witness = cofinite_quotient_witness(dyadic, 1, functionals)
        phi = StepFunction({(k, i): a for k, a in zip(witness.levels, witness.coeffs) for i in range(len(dyadic.cells))})
        if not phi.coeffs:
            problems += 1
        if any(v != 0 for v in witness.pairings):
            problems += 1
        if not witness.quotient_pp <= 1:
            problems += 1
    _report(9, problems == 0, "m in {0, 1, 2}: nonzero kernel vectors, zero pairings, quotient <= 1")


def test_criterion_10_cli_output_is_byte_identical(tmp_path):
    config = tmp_path / "dyadic.json"
    config.write_text(make_dyadic("1").to_json() + "\n")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["report", "--config", str(config), "--seed", "123"]
    code_a = main(args + ["--out", str(out_a)])
    code_b = main(args + ["--out", str(out_b)])
    same = out_a.read_bytes() == out_b.read_bytes()
    parsed = json.loads(out_a.read_text())
    _report(
        10,
        code_a == 0 and code_b == 0 and same and parsed["parameters"]["seed"] == 123,
        "two runs with one seed produced byte-identical JSON",
    )
