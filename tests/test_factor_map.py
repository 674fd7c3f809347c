import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import (
    BILATERAL,
    ExactSeqVector,
    MeasureSystem,
    StepFunction,
    apply_Tf,
    apply_backward,
    derive_weights,
    project,
    semiconjugacy_defect,
    tagged_backward,
)
from shiftlab import cli
from shiftlab.errors import InconsistentWitness, TailRuleMissing
from shiftlab.rationals import abs_pow
from shiftlab.sampling import random_step_function, support_levels
from shiftlab.shift_space import UNILATERAL, WeightSequence, lp_distance, wp_product

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
    # equals reads p, side and support before any value
    one = ExactSeqVector(p=Fraction(2), side=UNILATERAL, entries={0: (Fraction(1), Fraction(1))})
    assert one.equals(ExactSeqVector(p=Fraction(2), side=UNILATERAL, entries={0: (Fraction(1), Fraction(1))}))
    assert not one.equals(ExactSeqVector(p=Fraction(3), side=UNILATERAL, entries=one.entries))
    assert not one.equals(ExactSeqVector(p=Fraction(2), side=BILATERAL, entries=one.entries))
    assert not one.equals(ExactSeqVector(p=Fraction(2), side=UNILATERAL, entries={1: (Fraction(1), Fraction(1))}))
    w = WeightSequence(p=Fraction(2), side=UNILATERAL, lo=1, hi=3, right_tail=(Fraction(1, 4),),
                       wp={1: Fraction(4), 2: Fraction(9, 4), 3: Fraction(1, 2)})
    with pytest.raises(ValueError, match="^steps must be >= 0$"):
        tagged_backward(w, one, -1)
    # an entry shifted past index 0 is dropped, as the float shift drops it
    x = ExactSeqVector(p=Fraction(2), side=UNILATERAL,
                       entries={0: (Fraction(1), Fraction(1)), 2: (Fraction(3), Fraction(2))})
    shifted = tagged_backward(w, x, 1).collapse()
    assert shifted.entries.keys() == apply_backward(w, x.collapse(), 1).entries.keys() == {1}


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


# -- the integer filter against the vector composition -------------------------


def _defect_by_vectors(system, phi, w):
    """The defect as the composition of the public wrappers: equals, else
    the float distance of the collapses."""
    lhs = project(system, apply_Tf(phi))
    rhs = tagged_backward(w, project(system, phi))
    return Fraction(0) if lhs.equals(rhs) else lp_distance(lhs.collapse(), rhs.collapse(), system.p)


def _outcome(f, *args):
    """A call's result with its type, or the type and message of what it raised."""
    try:
        value = f(*args)
    except (TypeError, ValueError, TailRuleMissing) as exc:
        return type(exc), str(exc)
    return type(value), value


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), tails=st.booleans(), cancel=st.booleans(),
       weights=st.sampled_from(["derived", "one_off", "doubled", "untailed"]), reach=st.integers(0, 2),
       edited=st.booleans())
def test_the_integer_filter_matches_the_vector_composition(seed, tails, cancel, weights, reach, edited):
    rng = random.Random(seed)
    system = random_system(rng)
    if not tails:
        system = MeasureSystem(p=system.p, k_min=system.k_min, k_max=system.k_max, cells=system.cells, mu=system.mu)
    w = derive_weights(system)
    if weights == "one_off":
        k = rng.randint(w.lo, w.hi) if w.hi >= w.lo else None
        if k is not None:
            w = replace(w, wp={**w.wp, k: 3 * w.wp[k]})
    elif weights == "doubled":
        w = replace(w, wp={k: 2 * v for k, v in w.wp.items()},
                    left_tail=w.left_tail and tuple(2 * v for v in w.left_tail),
                    right_tail=w.right_tail and tuple(2 * v for v in w.right_tail))
    elif weights == "untailed":
        w = replace(w, left_tail=None, right_tail=None)
    coeffs = dict(random_step_function(rng, system).coeffs)
    # up to `reach` levels past the window, where a model or sequence with no tail rule raises
    k = rng.randint(system.k_min - reach, system.k_max + reach)
    if cancel and len(system.cells) > 1:
        # a pair of cells whose level sum q is zero: the level's mass is still read
        m0, m1 = system.mu_cell(0, 0), system.mu_cell(0, 1)
        coeffs[(k, 0)] = m1.numerator * m0.denominator
        coeffs[(k, 1)] = -m0.numerator * m1.denominator
    else:
        coeffs[(k, rng.randrange(len(system.cells)))] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    phi = StepFunction(coeffs)
    if edited:  # a zero put into coeffs after construction, which T_f drops
        phi.coeffs[(rng.randint(system.k_min - reach, system.k_max + reach), rng.randrange(len(system.cells)))] = 0
    assert _outcome(semiconjugacy_defect, system, phi, w) == _outcome(_defect_by_vectors, system, phi, w)


def _untailed_pair():
    """A two-cell model with no tail rules on [-1, 1], and coefficients on
    level 2, past its right edge, whose sum q cancels."""
    system = MeasureSystem(p=Fraction(2), k_min=-1, k_max=1, cells=("A", "B"),
                           mu={k: (Fraction(1, 3), Fraction(2, 3)) for k in (-1, 0, 1)})
    return system, {(2, 0): 2, (2, 1): -1}


@pytest.mark.parametrize("case", ["float_coefficient", "unilateral_weights", "cancelled_level_past_the_window",
                                  "edited_zero_past_the_window"])
def test_the_defect_raises_what_the_composition_raises(dyadic, case):
    system, w = dyadic, None
    if case == "float_coefficient":
        phi = StepFunction({(0, 0): Fraction(1), (2, 0): 0.5})
        expected = TypeError, r"^coefficient at \(1, 0\) is not rational; exact projection needs Fraction data$"
    elif case == "unilateral_weights":
        phi = StepFunction({(1, 0): Fraction(1)})
        w = WeightSequence(p=dyadic.p, side=UNILATERAL, lo=1, hi=1, wp={1: Fraction(2)}, right_tail=(Fraction(2),))
        expected = ValueError, r"^weight side unilateral does not match vector side bilateral$"
    elif case == "cancelled_level_past_the_window":
        # a filter that dropped the zero level before reading its mass would return 0 here
        system, coeffs = _untailed_pair()
        phi = StepFunction({(0, 0): Fraction(1), **coeffs})
        assert project(system, apply_Tf(phi)).entries.keys() == {-1}
        expected = TailRuleMissing, r"^level 2 lies right of the window and no tail rule is set$"
    else:
        # a zero put into coeffs after construction: T_f drops it, project(phi)
        # still reads its level's mass, so phi's q-sums are not T_f phi's
        system, _ = _untailed_pair()
        phi = StepFunction({(1, 0): Fraction(1)})
        phi.coeffs[(2, 1)] = Fraction(0)
        expected = TailRuleMissing, r"^level 2 lies right of the window and no tail rule is set$"
    for f in (semiconjugacy_defect, _defect_by_vectors):
        with pytest.raises(expected[0], match=expected[1]):
            f(system, phi, w or derive_weights(system))


def _counting(counter, name, new):
    def construct(*args, **kwargs):
        counter[name] += 1
        return new(*args, **kwargs)
    return construct


def test_semicheck_builds_no_vector_and_no_fraction_per_level(monkeypatch):
    # wide100 and wide200 have 4 cells on 201 and 401 levels, with tails:
    # where the identity holds, one semicheck call builds no ExactSeqVector,
    # and its Fractions do not grow with the window: the shares of W, a power
    # and a product for each of the five tail levels read (two past each
    # edge, and one more below, where T_f moves the lowest), and the zero it
    # returns
    counts = {}
    for name in ("wide100", "wide200"):
        system = MeasureSystem.from_json((Path(__file__).parent / "golden" / f"{name}.json").read_text())
        w = derive_weights(system)
        system.mu_W(0)  # the window's mass column, read once per model by every stage that reads a mass
        counter = {"vectors": 0, "fractions": 0}
        with monkeypatch.context() as patch:
            patch.setattr(ExactSeqVector, "__post_init__",
                          _counting(counter, "vectors", ExactSeqVector.__post_init__))
            patch.setattr(Fraction, "__new__", staticmethod(_counting(counter, "fractions", Fraction.__new__)))
            if hasattr(Fraction, "_from_coprime_ints"):  # builds arithmetic results from Python 3.12 on
                from_ints = Fraction._from_coprime_ints.__func__
                patch.setattr(Fraction, "_from_coprime_ints", classmethod(_counting(counter, "fractions", from_ints)))
            assert cli._semicheck_section(system, w, samples=100)["exact_zero"] == 100
        counts[name] = counter
    assert counts["wide100"] == counts["wide200"]
    assert counts["wide100"]["vectors"] == 0
    assert counts["wide100"]["fractions"] <= len(system.cells) + 2 * 5 + 1
