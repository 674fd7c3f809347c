import math
import random
from fractions import Fraction

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
from shiftlab.lp_space import lp_powers, shifted_power_sum
from shiftlab.rationals import abs_pow, fraction_pow, log_fraction
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
        phi = random_step_function(rng, system, level_margin=1)
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


def _total_by_terms(system, phi):
    """The p-th-power total summed term by term in coefficient order: exact
    while every power is rational, else the log of the sum."""
    p = system.p
    terms = []
    for (k, i), v in phi.coeffs.items():
        exact = fraction_pow(abs(v), p) if isinstance(v, Fraction) else None
        log_power = None if exact is not None else float(p) * (
            log_fraction(abs(v)) if isinstance(v, Fraction) else math.log(abs(v)))
        terms.append((exact, log_power, system.mu_cell(k, i)))
    if all(exact is not None for exact, _, _ in terms):
        return sum((exact * m for exact, _, m in terms), Fraction(0))
    logs = [log_power + log_fraction(m) if exact is None else log_fraction(exact * m)
            for exact, log_power, m in terms]
    top = max(logs)
    return top + math.log(math.fsum(math.exp(t - top) for t in logs))


def _same_total(a, b) -> bool:
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       kind=st.sampled_from(["fraction", "float", "complex"]),
       n=st.integers(min_value=0, max_value=12))
def test_shifted_power_sum_matches_the_total_of_the_shifted_function(seed, kind, n):
    # the powers are taken once and shifted; the total of the moved step
    # function must come out the same, bit for bit, and a log total must
    # be the log of the plain float sum of the powers
    rng = random.Random(seed)
    system = random_system(rng)
    phi = random_step_function(rng, system)
    if kind == "float":
        phi = StepFunction({key: float(v) for key, v in phi.coeffs.items()})
    elif kind == "complex":
        phi = StepFunction({key: complex(float(v), rng.randint(-3, 3) / 4) for key, v in phi.coeffs.items()})
    powers = lp_powers(system, phi)
    for shift, moved in ((-n, apply_Tf(phi, n)), (n, apply_Tf_inverse(phi, n))):
        total = shifted_power_sum(system, powers, shift)
        assert _same_total(total, shifted_power_sum(system, lp_powers(system, moved)))
        assert _same_total(total, _total_by_terms(system, moved))
        if isinstance(total, float):
            plain = math.fsum(float(abs_pow(v, system.p)) * float(system.mu_cell(k, i))
                              for (k, i), v in moved.coeffs.items())
            assert total == pytest.approx(math.log(plain), rel=1e-12, abs=1e-12)


def test_weak_mixing_leaves_no_memo_on_the_system(dyadic_p2):
    # the certificate's log columns live for one call only
    before = dict(vars(dyadic_p2))
    weak_mixing_consistency(dyadic_p2)
    assert vars(dyadic_p2) == before
