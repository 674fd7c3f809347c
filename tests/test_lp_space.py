import decimal
import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import (
    MeasureSystem,
    StepFunction,
    apply_Tf,
    apply_Tf_inverse,
    gs_decay_check,
    lp_norm_step,
)
from shiftlab.criteria import weak_mixing_consistency
from shiftlab.rationals import abs_pow, fraction_pow
from shiftlab.sampling import random_step_function

from generators import random_system


def test_composition_moves_coefficients_down():
    phi = StepFunction({(0, 0): Fraction(2), (3, 1): Fraction(-1)})
    moved = apply_Tf(phi, 2)
    assert moved.coeffs == {(-2, 0): Fraction(2), (1, 1): Fraction(-1)}


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(0, 6))
def test_inverse_composition_undoes_forward(rng, n):
    phi = random_step_function(rng, random_system(rng))
    assert apply_Tf_inverse(apply_Tf(phi, n), n).coeffs == phi.coeffs


def test_zero_coefficients_are_dropped():
    phi = StepFunction({(0, 0): Fraction(0), (1, 0): Fraction(1)})
    assert list(phi.coeffs) == [(1, 0)]
    assert phi.coeffs
    assert not StepFunction({}).coeffs


def test_indicator_norm_is_exact(dyadic):
    phi = StepFunction.indicator_level(dyadic, 0)
    norm = lp_norm_step(dyadic, phi)
    assert isinstance(norm, Fraction)
    assert norm == 1


def test_iterated_norms_halve_exactly(dyadic):
    phi = StepFunction.indicator_level(dyadic, 0)
    assert lp_norm_step(dyadic, apply_Tf(phi, 3)) == Fraction(1, 8)
    assert lp_norm_step(dyadic, apply_Tf_inverse(phi, 3)) == Fraction(1, 8)


def test_gs_decay_check_returns_both_norms(dyadic):
    phi = StepFunction.indicator_level(dyadic, 0)
    fwd, bwd = gs_decay_check(dyadic, phi, 4)
    assert fwd == Fraction(1, 16)
    assert bwd == Fraction(1, 16)
    with pytest.raises(ValueError):
        gs_decay_check(dyadic, phi, -1)
    with pytest.raises(ValueError, match="^steps must be >= 0$"):
        apply_Tf_inverse(phi, -1)


def test_norm_square_root_exact_or_float(dyadic_p2):
    exact = StepFunction({(2, 0): Fraction(1)})       # mass 1/4, root exact
    assert lp_norm_step(dyadic_p2, exact) == Fraction(1, 2)
    inexact = StepFunction({(1, 0): Fraction(1)})     # mass 1/2, root irrational
    norm = lp_norm_step(dyadic_p2, inexact)
    assert isinstance(norm, float)
    assert norm == pytest.approx(math.sqrt(0.5))


def test_norm_with_float_and_complex_coefficients(dyadic_p2):
    phi = StepFunction({(0, 0): complex(3, 4), (2, 0): 2.0})
    norm = lp_norm_step(dyadic_p2, phi)
    assert isinstance(norm, float)
    assert norm == pytest.approx(math.sqrt(25.0 + 1.0))


def test_zero_function_has_zero_norm(dyadic):
    assert lp_norm_step(dyadic, StepFunction({})) == 0


def norm_pp(system, phi):
    return sum(
        (abs_pow(v, system.p) * system.mu_cell(k, i) for (k, i), v in phi.coeffs.items()),
        Fraction(0),
    )


def test_composition_is_linear():
    rng = random.Random(51)
    system = random_system(rng)
    phi = random_step_function(rng, system)
    psi = random_step_function(rng, system)
    alpha = Fraction(-3, 2)
    combo = dict(psi.coeffs)
    for key, v in phi.coeffs.items():
        combo[key] = combo.get(key, Fraction(0)) + alpha * v
    moved = apply_Tf(StepFunction(combo))
    rebuilt = {key: alpha * v for key, v in apply_Tf(phi).coeffs.items()}
    for key, v in apply_Tf(psi).coeffs.items():
        rebuilt[key] = rebuilt.get(key, Fraction(0)) + v
    assert moved.coeffs == StepFunction(rebuilt).coeffs


def test_composition_norm_bounded_by_star_constant():
    # integer exponents keep every p-th power rational, so the bound is an
    # exact comparison
    rng = random.Random(52)
    for _ in range(30):
        system = random_system(rng, p_pool=(Fraction(1), Fraction(2)))
        c = system.validate_star()
        phi = random_step_function(rng, system)
        assert norm_pp(system, apply_Tf(phi)) <= c * norm_pp(system, phi)


def test_constant_system_norms_never_decay():
    flat = MeasureSystem(
        p=Fraction(1), k_min=-1, k_max=1, cells=("B1",),
        mu={k: (Fraction(1),) for k in (-1, 0, 1)},
        left_tail=Fraction(1), right_tail=Fraction(1),
    )
    phi = StepFunction({(0, 0): Fraction(2), (1, 0): Fraction(-1)})
    base = lp_norm_step(flat, phi)
    for n in range(6):
        fwd, bwd = gs_decay_check(flat, phi, n)
        assert fwd == base
        assert bwd == base


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       kind=st.sampled_from(["fraction", "float", "complex"]),
       n=st.integers(min_value=0, max_value=12))
def test_the_norm_of_a_moved_function_is_the_root_of_its_total(seed, kind, n):
    # the norm of T^n phi and T^-n phi against norm_pp, the p-th-power total
    # of the moved function summed term by term: its exact root while every
    # power is rational, else its float root up to rounding
    rng = random.Random(seed)
    system = random_system(rng)
    phi = random_step_function(rng, system)
    if kind == "float":
        phi = StepFunction({key: float(v) for key, v in phi.coeffs.items()})
    elif kind == "complex":
        phi = StepFunction({key: complex(float(v), rng.randint(-3, 3) / 4) for key, v in phi.coeffs.items()})
    for moved in (apply_Tf(phi, n), apply_Tf_inverse(phi, n)):
        total, norm = norm_pp(system, moved), lp_norm_step(system, moved)
        if isinstance(norm, Fraction):
            assert norm == total == 0 or fraction_pow(norm, system.p) == total
        else:
            assert norm == pytest.approx(float(total) ** (1 / float(system.p)), rel=1e-12)


_DYADIC = json.loads((Path(__file__).resolve().parent.parent / "configs" / "dyadic.json").read_text())


def _dyadic_with(p, **tails):
    """configs/dyadic.json with exponent p and the given tails replaced."""
    return MeasureSystem.from_dict({**_DYADIC, "p": p, "tails": {**_DYADIC["tails"], **tails}})


def _decimal_norm(system, phi) -> Decimal:
    """(sum |v| ** p * mu) ** (1 / p) in 60-digit decimals, from exact
    masses and each coefficient's real and imaginary parts."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p = Decimal(system.p.numerator) / system.p.denominator
        total = Decimal(0)
        for (k, i), v in phi.coeffs.items():
            re, im = (Decimal(v.numerator) / v.denominator, Decimal(0)) if isinstance(v, Fraction) else (
                Decimal(complex(v).real), Decimal(complex(v).imag))
            mass = system.mu_cell(k, i)
            total += (p * (re * re + im * im).sqrt().ln()).exp() * Decimal(mass.numerator) / mass.denominator
        return (total.ln() / p).exp()


@pytest.mark.parametrize("coeffs, norm", [
    ({(-50, 0): Fraction(3), (2, 0): Fraction(1, 3)}, 3),
    ({(-60, 0): Fraction(2)}, 2),
])
def test_a_huge_exponent_gives_the_largest_coefficient(coeffs, norm):
    # p = 1e400: every power is past EXACT_POWER_BITS and p past any float,
    # so the norm is the sup norm up to mu ** (1 / p)
    assert lp_norm_step(_dyadic_with("1e400"), StepFunction(coeffs)) == pytest.approx(norm, rel=1e-12)


def test_norms_with_masses_below_the_float_range():
    # a left tail of 1e-4000: mu(-50) is about 10 ** -180000
    system = _dyadic_with("2", left="1e-4000")
    exact = StepFunction({(-50, 0): Fraction(3), (2, 0): Fraction(1, 3)})
    assert lp_norm_step(system, exact) == pytest.approx(Fraction(1, 6), rel=1e-12)
    floats = StepFunction({(-50, 0): 3.0, (-7, 0): 0.5, (-20, 0): complex(1.5, -2.0)})
    norm = lp_norm_step(system, floats)
    assert isinstance(norm, float) and math.isfinite(norm) and norm >= 0


@pytest.mark.parametrize("p, coeffs", [
    ("7/3", {(0, 0): Fraction(2), (-6, 0): Fraction(-5, 3), (7, 0): Fraction(1, 4)}),
    ("7/3", {(6, 0): Fraction(2), (-7, 0): Fraction(1, 3)}),
    ("3/2", {(0, 0): complex(3, 4), (6, 0): complex(-0.5, 0.25), (-7, 0): 2.0}),
    ("3/2", {(6, 0): complex(0, 1.5), (7, 0): complex(2, -1)}),
], ids=["p_7_3_window_and_tails", "p_7_3_tails_only", "p_3_2_complex", "p_3_2_complex_tails_only"])
def test_norms_on_tails_of_1e_minus_300_match_a_decimal_reference(p, coeffs):
    system = _dyadic_with(p, left="1e-300", right="1e-300")
    phi = StepFunction(coeffs)
    assert float(lp_norm_step(system, phi)) == pytest.approx(float(_decimal_norm(system, phi)), rel=1e-12)


def test_weak_mixing_leaves_only_the_cell_log_table_on_the_system(dyadic_p2):
    # the model keeps one table of cell logs; the tail runs and columns live for one call only
    before = dict(vars(dyadic_p2))
    weak_mixing_consistency(dyadic_p2)
    after = vars(dyadic_p2)
    assert after.keys() - before.keys() == {"_cell_logs"}
    assert {name: after[name] for name in before} == before
