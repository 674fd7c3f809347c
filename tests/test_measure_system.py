import dataclasses
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import MeasureSystem
from shiftlab.errors import ConfigError, EmptyWindow, NonPositiveMeasure, TailRuleMissing
from shiftlab.sampling import random_system
from shiftlab.shift_space import UNILATERAL, WeightSequence

from conftest import make_dyadic


def test_dyadic_star_constant(dyadic):
    assert dyadic.validate_star() == 2


def test_dyadic_distortion_is_trivial(dyadic):
    # one cell: every level is proportional to the wandering set
    assert dyadic.distortion_constant() == 1


def test_two_cell_distortion_constant():
    system = MeasureSystem(
        p=Fraction(1),
        k_min=0,
        k_max=1,
        cells=("B1", "B2"),
        mu={0: (Fraction(1, 2), Fraction(1, 2)), 1: (Fraction(1, 2), Fraction(1, 4))},
        left_tail=Fraction(1, 2),
        right_tail=Fraction(1, 2),
    )
    assert system.distortion_constant() == Fraction(3, 2)


def test_mass_inside_and_beyond_window(dyadic):
    assert dyadic.mu_W(0) == 1
    assert dyadic.mu_W(-5) == Fraction(1, 32)
    assert dyadic.mu_W(7) == Fraction(1, 128)
    assert dyadic.mu_W(-9) == Fraction(1, 512)
    assert dyadic.mu_cell(7, 0) == dyadic.mu_W(7)


def test_tail_levels_scale_cells_proportionally():
    system = MeasureSystem(
        p=Fraction(2),
        k_min=0,
        k_max=0,
        cells=("B1", "B2"),
        mu={0: (Fraction(1, 3), Fraction(2, 3))},
        left_tail=Fraction(1, 2),
        right_tail=Fraction(1, 4),
    )
    assert system.mu_cell(2, 0) == Fraction(1, 3) * Fraction(1, 16)
    assert system.mu_cell(2, 1) == Fraction(2, 3) * Fraction(1, 16)
    assert system.mu_cell(-1, 1) == Fraction(2, 3) * Fraction(1, 2)


def test_missing_tail_rule_raises():
    system = MeasureSystem(
        p=Fraction(2), k_min=0, k_max=0, cells=("B1",), mu={0: (Fraction(1),)}
    )
    with pytest.raises(TailRuleMissing):
        system.mu_W(1)
    with pytest.raises(TailRuleMissing):
        system.mu_cell(-1, 0)


def test_zero_measure_is_caught_by_validation():
    with pytest.raises(NonPositiveMeasure):
        MeasureSystem(
            p=Fraction(2),
            k_min=0,
            k_max=1,
            cells=("B1", "B2"),
            mu={0: (Fraction(1, 2), Fraction(0)), 1: (Fraction(1, 2), Fraction(1, 4))},
        )


def test_nonpositive_tail_is_caught_by_validation():
    with pytest.raises(NonPositiveMeasure):
        MeasureSystem(
            p=Fraction(2), k_min=0, k_max=0, cells=("B1",), mu={0: (Fraction(1),)},
            left_tail=Fraction(0), right_tail=Fraction(1, 2),
        )


def test_empty_window():
    with pytest.raises(EmptyWindow):
        MeasureSystem(p=Fraction(2), k_min=1, k_max=0, cells=("B1",), mu={})


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k_min=1, k_max=3),                      # window misses level 0
        dict(cells=()),                              # no cells
        dict(cells=("B1", "B1")),                    # duplicate names
        dict(left_tail=Fraction(1, 2)),              # one-sided tails
        dict(p=Fraction(1, 2)),                      # p < 1
    ],
)
def test_constructor_rejects_malformed_systems(kwargs):
    base = dict(
        p=Fraction(2), k_min=0, k_max=0, cells=("B1",), mu={0: (Fraction(1),)}
    )
    base.update(kwargs)
    if "k_max" in kwargs:
        base["mu"] = {k: (Fraction(1),) for k in range(base["k_min"], base["k_max"] + 1)}
    with pytest.raises(ConfigError):
        MeasureSystem(**base)


def test_mu_must_cover_window_exactly():
    with pytest.raises(ConfigError):
        MeasureSystem(
            p=Fraction(2), k_min=0, k_max=1, cells=("B1",), mu={0: (Fraction(1),)}
        )
    with pytest.raises(ConfigError):
        MeasureSystem(
            p=Fraction(2), k_min=0, k_max=0, cells=("B1", "B2"), mu={0: (Fraction(1),)}
        )


def test_json_round_trip_is_stable(dyadic):
    text = dyadic.to_json()
    again = MeasureSystem.from_json(text)
    assert again == dyadic
    assert again.to_json() == text


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_json_round_trip_on_generated_systems(seed):
    system = random_system(random.Random(seed), max_half_span=8, max_cells=4)
    assert MeasureSystem.from_json(system.to_json()) == system


def test_from_dict_validation_messages():
    with pytest.raises(ConfigError):
        MeasureSystem.from_json("not json")
    with pytest.raises(ConfigError):
        MeasureSystem.from_dict({"window": {"min": 0, "max": 0}, "cells": ["B1"]})
    with pytest.raises(ConfigError):
        MeasureSystem.from_dict(
            {"window": {"min": 0, "max": 0}, "cells": ["B1"], "mu": {"x": ["1"]}}
        )
    with pytest.raises(ConfigError):
        MeasureSystem.from_dict(
            {"window": {"min": 0, "max": 0}, "cells": ["B1"], "mu": {"0": ["1"]},
             "tails": {"left": "1/2"}}
        )
    for bounds in ({"min": False, "max": True}, {"min": 0, "max": True}, {"min": 0.0, "max": 0}):
        with pytest.raises(ConfigError, match="window"):
            MeasureSystem.from_dict({"window": bounds, "cells": ["B1"], "mu": {"0": ["1"]}})


def test_a_name_given_twice_in_one_object_is_rejected():
    # json.loads alone keeps the last value: this config used to pass with star_c 4
    text = '{"window": {"min": 0, "max": 1}, "cells": ["B1"], "mu": {"0": ["1"], "1": ["1/2"], "1": ["1/4"]}}'
    with pytest.raises(ConfigError, match="the name '1' appears twice"):
        MeasureSystem.from_json(text)
    with pytest.raises(ConfigError, match="the name 'cells' appears twice"):
        MeasureSystem.from_json('{"cells": ["B1"], "window": {"min": 0, "max": 0}, "cells": ["B1"], "mu": {"0": ["1"]}}')
    assert MeasureSystem.from_json(text.replace('"1": ["1/4"]', '"-1": ["1/4"]').replace('"min": 0', '"min": -1'))


def test_window_coverage_is_checked_in_the_row_count():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="cover the window"):
            MeasureSystem.from_dict({"window": {"min": 0, "max": 10**6}, "cells": ["B1"], "mu": {"0": ["1"]}})
        with pytest.raises(ConfigError, match="cover"):
            WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=10**6, wp={1: Fraction(1)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    for mu in ({0: (Fraction(1),), 2: (Fraction(1),)}, {-1: (Fraction(1),), 0: (Fraction(1),)}):
        with pytest.raises(ConfigError, match="cover the window"):
            MeasureSystem(p=Fraction(1), k_min=0, k_max=1, cells=("B1",), mu=mu)


def test_star_constant_bounds_every_adjacent_ratio():
    rng = random.Random(20240817)
    for _ in range(25):
        system = random_system(rng)
        c = system.validate_star()
        assert c >= 1
        for k in range(system.k_min - 3, system.k_max + 3):
            for i in range(len(system.cells)):
                ratio = system.mu_cell(k, i) / system.mu_cell(k + 1, i)
                assert 1 / c <= ratio <= c


def test_distortion_definition_holds():
    rng = random.Random(99)
    for _ in range(25):
        system = random_system(rng)
        K = system.distortion_constant()
        mu_w = system.mu_W(0)
        for k in range(system.k_min - 2, system.k_max + 3):
            level = system.mu_W(k)
            for i in range(len(system.cells)):
                lhs = system.mu_cell(k, i) * mu_w
                rhs = level * system.mu_cell(0, i)
                assert lhs * K >= rhs
                assert rhs * K >= lhs


def _star_reference(system):
    """The least one-step constant, one Fraction ratio at a time."""
    ratios = [system.left_tail, system.right_tail] if system.has_tails else []
    for k in range(system.k_min, system.k_max):
        ratios += [a / b for a, b in zip(system.mu[k], system.mu[k + 1])]
    return max([Fraction(1)] + ratios + [1 / t for t in ratios])


def _distortion_reference(system):
    """The least distortion constant, one Fraction ratio at a time."""
    mu_w0 = sum(system.mu[0])
    ratios = [
        (a * mu_w0) / (sum(row) * b)
        for row in system.mu.values()
        for a, b in zip(row, system.mu[0])
    ]
    return max([Fraction(1)] + ratios + [1 / t for t in ratios])


def _two_level(row0, row1, tails=(None, None)):
    return MeasureSystem(
        p=Fraction(2), k_min=0, k_max=1, cells=tuple(f"B{i + 1}" for i in range(len(row0))),
        mu={0: tuple(map(Fraction, row0)), 1: tuple(map(Fraction, row1))},
        left_tail=tails[0], right_tail=tails[1],
    )


def _one_level(row, tails=(None, None)):
    return MeasureSystem(
        p=Fraction(2), k_min=0, k_max=0, cells=tuple(f"B{i + 1}" for i in range(len(row))),
        mu={0: tuple(map(Fraction, row))}, left_tail=tails[0], right_tail=tails[1],
    )


BIG = 10**3799 + 3  # 3,800 digits
CONSTANT_CASES = {
    "huge_and_tiny_masses": MeasureSystem(
        p=Fraction(2), k_min=-1, k_max=1, cells=("B1", "B2"),
        mu={-1: (Fraction(10**321), Fraction(1, 10**321)), 0: (Fraction(1), Fraction(1)),
            1: (Fraction(1, 10**321), Fraction(10**321, 7))},
        left_tail=Fraction(1, 10**321), right_tail=Fraction(10**321),
    ),
    "digits_3800": _two_level([Fraction(BIG, BIG - 2)], [Fraction(BIG - 4, BIG + 6)]),
    "digits_3800_tails": _two_level(
        [Fraction(BIG, 7)], [Fraction(3, BIG)], (Fraction(BIG, BIG + 1), Fraction(BIG + 1, BIG))
    ),
    "one_level": _one_level([Fraction(1, 3), Fraction(2, 3)]),
    "one_level_tails": _one_level([Fraction(1, 3), Fraction(2, 3)], (Fraction(1, 5), Fraction(3, 2))),
    "tails_widest": _two_level([1, 2], [2, 3], (Fraction(7), Fraction(1, 2))),
    "no_tails_growing": _two_level([1, 1], [1, 3]),  # both maxima come from y/x
    "no_tails_shrinking": _two_level([3, 1], [1, 1]),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_CASES))
def test_constants_are_the_least_ones_on_edge_windows(name):
    system = CONSTANT_CASES[name]
    assert system.validate_star() == _star_reference(system)
    assert system.distortion_constant() == _distortion_reference(system)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), tails=st.booleans())
def test_constants_are_the_least_ones_on_generated_systems(seed, tails):
    system = random_system(random.Random(seed), max_half_span=6, max_cells=4)
    if not tails:
        system = dataclasses.replace(system, left_tail=None, right_tail=None)
    assert system.validate_star() == _star_reference(system)
    assert system.distortion_constant() == _distortion_reference(system)


def test_window_accessors_return_the_stored_values():
    system = random_system(random.Random(7), max_half_span=4, max_cells=3)
    for k, row in system.mu.items():
        assert system.mu_W(k) == sum(row)
        for i, v in enumerate(row):
            assert system.mu_cell(k, i) is v


def test_dyadic_helper_extends_window_consistently():
    wide = MeasureSystem(
        p=Fraction(1),
        k_min=-8,
        k_max=8,
        cells=("B1",),
        mu={k: (Fraction(1, 2 ** abs(k)),) for k in range(-8, 9)},
        left_tail=Fraction(1, 2),
        right_tail=Fraction(1, 2),
    )
    narrow = make_dyadic()
    for k in range(-12, 13):
        assert wide.mu_W(k) == narrow.mu_W(k)
