import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import (
    BILATERAL,
    ExactSeqVector,
    MeasureSystem,
    StepFunction,
    apply_Tf,
    derive_weights,
    project,
    semiconjugacy_defect,
    tagged_backward,
)
from shiftlab import cli
from shiftlab.errors import InconsistentWitness
from shiftlab.rationals import abs_pow
from shiftlab.sampling import random_step_function, support_levels
from shiftlab.shift_space import wp_product

from generators import random_system


def test_projection_of_wandering_indicator(dyadic):
    image = project(dyadic, StepFunction.indicator_level(dyadic, 0))
    assert image.entries == {0: (Fraction(1), Fraction(1))}


def test_projection_averages_cells_over_the_wandering_set():
    system = MeasureSystem(
        p=Fraction(1), k_min=0, k_max=0, cells=("B1", "B2"),
        mu={0: (Fraction(1, 3), Fraction(2, 3))},
        left_tail=Fraction(1, 2), right_tail=Fraction(1, 2),
    )
    phi = StepFunction({(0, 0): Fraction(3), (0, 1): Fraction(-3)})
    image = project(system, phi)
    # 3 * 1/3 - 3 * 2/3 = -1
    assert image.entries == {0: (Fraction(-1), Fraction(1))}


def test_projection_requires_rational_coefficients(dyadic):
    with pytest.raises(TypeError):
        project(dyadic, StepFunction({(0, 0): 0.5}))


def test_tagged_values_equal_through_cross_powers():
    p = Fraction(2)
    a = (Fraction(2), Fraction(2))   # 2 * sqrt(2)
    b = (Fraction(1), Fraction(8))   # sqrt(8)
    assert ExactSeqVector.values_equal(a, b, p)
    assert not ExactSeqVector.values_equal(a, (Fraction(-1), Fraction(8)), p)
    assert not ExactSeqVector.values_equal(a, (Fraction(1), Fraction(9)), p)


def test_tagged_backward_matches_projected_composition(dyadic_p2):
    w = derive_weights(dyadic_p2)
    phi = StepFunction({(0, 0): Fraction(1), (2, 0): Fraction(-5, 3)})
    lhs = project(dyadic_p2, apply_Tf(phi))
    rhs = tagged_backward(w, project(dyadic_p2, phi))
    assert lhs.equals(rhs)


def test_collapse_roots_the_tags(dyadic_p2):
    image = project(dyadic_p2, StepFunction({(1, 0): Fraction(2)}))
    collapsed = image.collapse()
    assert collapsed.entries[1].real == pytest.approx(2 * (0.5 ** 0.5))


def test_defect_is_exactly_zero(dyadic_p2):
    phi = StepFunction({(-3, 0): Fraction(7, 2), (0, 0): Fraction(-1), (4, 0): Fraction(1, 9)})
    defect = semiconjugacy_defect(dyadic_p2, phi)
    assert isinstance(defect, Fraction)
    assert defect == 0


def test_defect_zero_over_random_systems():
    rng = random.Random(424242)
    for _ in range(30):
        system = random_system(rng)
        phi = random_step_function(rng, system)
        assert semiconjugacy_defect(system, phi) == 0


def test_defect_positive_for_wrong_weights(dyadic):
    # doubling every weight breaks the intertwining by a factor of 2
    w = derive_weights(dyadic)
    wrong = type(w)(
        p=w.p, side=w.side, lo=w.lo, hi=w.hi,
        wp={k: 2 * v for k, v in w.wp.items()},
        left_tail=tuple(2 * v for v in w.left_tail),
        right_tail=tuple(2 * v for v in w.right_tail),
    )
    phi = StepFunction.indicator_level(dyadic, 0)
    defect = semiconjugacy_defect(dyadic, phi, wrong)
    assert isinstance(defect, float)
    assert defect == pytest.approx(0.5)


def test_rho_must_be_positive():
    with pytest.raises(ValueError):
        ExactSeqVector(p=Fraction(2), entries={0: (Fraction(1), Fraction(0))})


def test_every_finite_sequence_lifts_to_a_step_function():
    # a single cell per level carries the whole mass, so the projection is
    # onto the finitely supported tagged sequences
    rng = random.Random(61)
    for _ in range(10):
        system = random_system(rng)
        target = {
            rng.randint(system.k_min - 2, system.k_max + 2):
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        }
        target = {k: q for k, q in target.items() if q != 0}
        scale = system.mu_W(0) / system.mu_cell(0, 0)
        phi = StepFunction({(k, 0): q * scale for k, q in target.items()})
        want = ExactSeqVector(
            p=system.p, side=BILATERAL,
            entries={k: (q, system.mu_W(k)) for k, q in target.items()},
        )
        assert project(system, phi).equals(want)


def test_projection_energy_bounded_by_distortion():
    rng = random.Random(62)
    for _ in range(30):
        system = random_system(rng, p_pool=(Fraction(1), Fraction(2)))
        big_k = system.distortion_constant()
        phi = random_step_function(rng, system)
        image = project(system, phi)
        lhs = sum(
            (abs_pow(q, system.p) * rho for q, rho in image.entries.values()),
            Fraction(0),
        )
        rhs = sum(
            (abs_pow(v, system.p) * system.mu_cell(k, i)
             for (k, i), v in phi.coeffs.items()),
            Fraction(0),
        )
        assert lhs <= big_k * rhs


def _project_on_the_grid(system, phi):
    """Reference image: every level of phi times every cell of the model,
    zero coefficients included, zero sums dropped."""
    mu_w = system.mu_W(0)
    entries = {}
    for k in sorted({k for k, _ in phi.coeffs}):
        q = sum(
            (Fraction(phi.coeffs.get((k, i), 0)) * system.mu_cell(0, i) for i in range(len(system.cells))),
            Fraction(0),
        ) / mu_w
        if q != 0:
            entries[k] = (q, system.mu_W(k))
    return entries


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), integral=st.booleans(), cancel=st.booleans())
def test_project_matches_the_level_by_cell_grid(seed, integral, cancel):
    rng = random.Random(seed)
    system = random_system(rng)
    coeffs = dict(random_step_function(rng, system).coeffs)
    if integral:
        coeffs = {key: int(4 * v) for key, v in coeffs.items()}
    k = rng.randint(system.k_min - 2, system.k_max + 2)
    if cancel and len(system.cells) > 1:
        # integer coefficients on cells 0 and 1 whose level sum is zero
        m0, m1 = system.mu_cell(0, 0), system.mu_cell(0, 1)
        coeffs = {key: v for key, v in coeffs.items() if key[0] != k}
        coeffs[(k, 0)] = m1.numerator * m0.denominator
        coeffs[(k, 1)] = -m0.numerator * m1.denominator
    phi = StepFunction(coeffs)
    image = project(system, phi)
    assert image.entries == _project_on_the_grid(system, phi)
    assert all(type(q) is Fraction and type(rho) is Fraction for q, rho in image.entries.values())
    if cancel and len(system.cells) > 1:
        assert k not in image.entries


def _project_reference(system, phi):
    """The image by Fraction arithmetic: each level's sum of coefficient
    times level-0 cell mass, over the mass of W, in first-appearance order."""
    sums = {}
    for (k, i), v in phi.coeffs.items():
        sums[k] = sums.get(k, 0) + v * system.mu_cell(0, i)
    return [(k, (q / system.mu_W(0), system.mu_W(k))) for k, q in sums.items() if q != 0]


def _with_masses(system, scale):
    return MeasureSystem(p=system.p, k_min=system.k_min, k_max=system.k_max, cells=system.cells,
                         mu={k: tuple(scale * v for v in row) for k, row in system.mu.items()},
                         left_tail=system.left_tail, right_tail=system.right_tail)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), integral=st.booleans(), tails=st.booleans(),
       cells=st.sampled_from([1, 4]), scale=st.sampled_from([1, Fraction(10) ** 321, Fraction(1, 10**321)]))
def test_integer_project_matches_the_fraction_reference(seed, integral, tails, cells, scale):
    rng = random.Random(seed)
    system = random_system(rng, max_cells=cells)
    if cells == 4:
        system = MeasureSystem(p=system.p, k_min=system.k_min, k_max=system.k_max, cells=("A", "B", "C", "D"),
                               mu={k: tuple(row[0] * (j + 1) / (j + 2) for j in range(4)) for k, row in system.mu.items()},
                               left_tail=system.left_tail, right_tail=system.right_tail)
    if not tails:
        system = MeasureSystem(p=system.p, k_min=system.k_min, k_max=system.k_max, cells=system.cells, mu=system.mu)
    system = _with_masses(system, scale)
    coeffs = dict(random_step_function(rng, system, max_terms=8).coeffs)
    if integral:
        coeffs = {key: int(12 * v) for key, v in coeffs.items()}
    phi = StepFunction(coeffs)
    image = project(system, phi)
    assert list(image.entries.items()) == _project_reference(system, phi)
    assert all(type(q) is Fraction for q, _ in image.entries.values())


@pytest.mark.parametrize("bad", [0.5, complex(1, 1), 1.0])
def test_project_raises_at_the_first_non_rational_coefficient(dyadic, bad):
    phi = StepFunction({(0, 0): Fraction(1, 3), (1, 0): 2, (2, 0): bad, (3, 0): 1.5})
    with pytest.raises(TypeError, match=r"coefficient at \(2, 0\) is not rational"):
        project(dyadic, phi)


def test_tags_with_one_rho_and_different_q_differ(dyadic_p2):
    rho = Fraction(3, 7)
    assert ExactSeqVector.values_equal((Fraction(2), rho), (Fraction(2), rho), Fraction(2))
    assert not ExactSeqVector.values_equal((Fraction(1), rho), (Fraction(2), rho), Fraction(2))
    assert not ExactSeqVector.values_equal((Fraction(1), rho), (Fraction(-1), rho), Fraction(2))
    phi = StepFunction({(0, 0): Fraction(1), (2, 0): Fraction(-5, 3)})
    doubled = StepFunction({key: 2 * v for key, v in phi.coeffs.items()})
    assert not project(dyadic_p2, phi).equals(project(dyadic_p2, doubled))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), data=st.data(), cancel=st.booleans())
def test_the_identity_fails_exactly_on_samples_that_meet_a_bad_level(seed, data, cancel):
    # the factor identity is linear and holds level by level: with one
    # weight 3x off, a sample's defect is nonzero exactly where its image
    # has q != 0 at that level, and semicheck's single certificate fails
    rng = random.Random(seed)
    system = random_system(rng)
    w = derive_weights(system)
    levels = support_levels(system)
    bad = data.draw(st.none() | st.sampled_from(levels))
    if bad is not None:
        # the same sequence with every sampled level explicit, one of them off
        wp = {k: wp_product(w, k, k) for k in levels}
        w = replace(w, lo=levels.start, hi=levels.stop - 1, wp={**wp, bad: 3 * wp[bad]})
    for _ in range(20):
        coeffs = dict(random_step_function(rng, system).coeffs)
        if cancel and bad is not None and len(system.cells) > 1:
            # coefficients at the bad level whose q sums to zero
            m0, m1 = system.mu_cell(0, 0), system.mu_cell(0, 1)
            coeffs[(bad, 0)] = m1.numerator * m0.denominator
            coeffs[(bad, 1)] = -m0.numerator * m1.denominator
        phi = StepFunction(coeffs)
        defect = semiconjugacy_defect(system, phi, w)
        exact_zero = isinstance(defect, Fraction) and defect == 0
        assert exact_zero == (bad not in project(system, phi).entries)
    if bad is None:
        assert cli._semicheck_section(system, w, samples=1)["exact_zero"] == 1
    else:
        with pytest.raises(InconsistentWitness, match="factor identity defect"):
            cli._semicheck_section(system, w, samples=1)
