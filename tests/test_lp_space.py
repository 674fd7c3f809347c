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
from shiftlab.lp_space import lp_powers, shifted_norm
from shiftlab.rationals import abs_pow, pow_maybe_exact
from shiftlab.sampling import random_step_function, random_system


def test_composition_moves_coefficients_down():
    phi = StepFunction({(0, 0): Fraction(2), (3, 1): Fraction(-1)})
    moved = apply_Tf(phi, 2)
    assert moved.coeffs == {(-2, 0): Fraction(2), (1, 1): Fraction(-1)}


def test_inverse_composition_undoes_forward():
    phi = StepFunction({(0, 0): Fraction(2), (-4, 0): Fraction(1, 3)})
    assert apply_Tf_inverse(apply_Tf(phi, 5), 5).coeffs == phi.coeffs


def test_zero_coefficients_are_dropped():
    phi = StepFunction({(0, 0): Fraction(0), (1, 0): Fraction(1)})
    assert phi.levels() == [1]
    assert not phi.is_zero()
    assert StepFunction({}).is_zero()


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


def _norm_by_terms(system, phi):
    """The norm summed term by term in coefficient order, then rooted."""
    total = Fraction(0)
    for (k, i), v in phi.coeffs.items():
        total += abs_pow(v, system.p) * system.mu_cell(k, i)
    if isinstance(total, Fraction):
        return total if total == 0 else pow_maybe_exact(total, 1 / system.p)
    return total ** (1.0 / float(system.p))


def _same_norm(a, b) -> bool:
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       kind=st.sampled_from(["fraction", "float", "complex"]),
       n=st.integers(min_value=0, max_value=12))
def test_shifted_norm_matches_the_norm_of_the_shifted_function(seed, kind, n):
    # the powers are taken once and shifted; the norm of the moved step
    # function must come out the same, bit for bit
    rng = random.Random(seed)
    system = random_system(rng)
    phi = random_step_function(rng, system)
    if kind == "float":
        phi = StepFunction({key: float(v) for key, v in phi.coeffs.items()})
    elif kind == "complex":
        phi = StepFunction({key: complex(float(v), rng.randint(-3, 3) / 4) for key, v in phi.coeffs.items()})
    powers = lp_powers(system, phi)
    for shift, moved in ((-n, apply_Tf(phi, n)), (n, apply_Tf_inverse(phi, n))):
        norm = shifted_norm(system, powers, shift)
        assert _same_norm(norm, lp_norm_step(system, moved))
        assert _same_norm(norm, _norm_by_terms(system, moved))


def test_weak_mixing_leaves_no_memo_on_the_system(dyadic_p2):
    # the cell-mass cache lives for one certificate call only
    before = dict(vars(dyadic_p2))
    weak_mixing_consistency(dyadic_p2, seed=3, samples=10)
    assert vars(dyadic_p2) == before
