import dataclasses
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import MeasureSystem, measure_system
from shiftlab.cli import main, run_command
from shiftlab.errors import ConfigError, EmptyWindow, NonPositiveMeasure, TailRuleMissing
from shiftlab.rationals import as_fraction
from shiftlab.shift_space import UNILATERAL, WeightSequence

from conftest import make_dyadic
from generators import random_system


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


def test_sign_checks_keep_their_messages():
    # the checks read each sign off a numerator
    with pytest.raises(NonPositiveMeasure, match=r"^mu\[1\]\[B2\] = -1/4 is not positive$"):
        MeasureSystem(p=Fraction(2), k_min=0, k_max=1, cells=("B1", "B2"),
                      mu={0: (Fraction(1, 2), Fraction(1, 2)), 1: (Fraction(1, 2), Fraction(-1, 4))})
    with pytest.raises(NonPositiveMeasure, match="^tail ratios must be positive$"):
        MeasureSystem(p=Fraction(2), k_min=0, k_max=0, cells=("B1",), mu={0: (Fraction(1),)},
                      left_tail=Fraction(1, 2), right_tail=Fraction(-1, 2))


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2**80), st.integers(1, 2**80)), max_size=12),
       st.integers(1, 2**40))
def test_widest_ratio_matches_the_unreduced_rule(pairs, scale):
    # the best kept in lowest terms picks the same ratio as the best kept as
    # drawn; common factors (scale) only move the unreduced operands
    pairs = [(x * scale, y * scale) if j % 2 else (x, y) for j, (x, y) in enumerate(pairs)]
    top, bottom = 1, 1
    for x, y in pairs:
        x, y = max(x, y), min(x, y)
        if x * bottom > top * y:
            top, bottom = x, y
    assert measure_system._widest_ratio(iter(pairs)) == Fraction(top, bottom)


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


def _hand_doc(mu, tails=None):
    doc = {"window": {"min": min(map(int, mu)), "max": max(map(int, mu))},
           "cells": [f"B{i + 1}" for i in range(len(next(iter(mu.values()))))], "mu": mu}
    return doc if tails is None else {**doc, "tails": {"left": tails[0], "right": tails[1]}}


@st.composite
def config_docs(draw):
    """A config whose masses take each form the parse reads: unreduced
    ratios, integer strings, JSON integers, over mixed and coprime
    denominators; its levels listed in any order, with or without tails."""
    k_min, k_max, n_cells = -draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(1, 4))

    def mass():
        num, scale = draw(st.integers(1, 10**6)), draw(st.integers(1, 4))
        den = draw(st.sampled_from((1, 2, 3, 7, 12, 101, 1009, 2**20, 10**9 + 7)))
        form = draw(st.sampled_from(("ratio", "text", "int")))
        if den == 1 and form != "ratio":
            return num if form == "int" else str(num)
        return f"{num * scale}/{den * scale}"

    mu = {str(k): [mass() for _ in range(n_cells)] for k in draw(st.permutations(range(k_min, k_max + 1)))}
    tails = draw(st.none() | st.tuples(*[st.sampled_from(("1/2", "2/3", "1", "3", "5/7"))] * 2))
    return _hand_doc(mu, tails)


def _generated_doc(seed):
    return random_system(random.Random(seed), max_half_span=6, max_cells=4).to_dict()


@settings(max_examples=150, deadline=None)
@given(doc=config_docs() | st.integers(0, 2**32).map(_generated_doc))
@example(doc=_hand_doc({"0": ["2/4", "6/3", "4"], "1": ["3/9", "10/100", "2"]}, ("2/4", "4/2")))  # unreduced
@example(doc=_hand_doc({"-1": [3, "5"], "0": [1, 2], "1": ["7", 9]}))  # integers
@example(doc=_hand_doc({"0": ["1/2", "2/3", "3/4"], "1": ["5/6", "1/12", "7/10"]}))  # mixed denominators
@example(doc=_hand_doc({"0": ["1/7", "2/11", "3/13"], "1": ["5/17", "4/19", "9/23"]}, ("1/29", "31")))  # coprime
@example(doc=_hand_doc({"2": ["1/8", "3/8"], "-1": ["1", "1/3"], "0": ["1/2", "1/5"], "1": ["1/4", "1"]}))  # order
def test_table_readers_match_fraction_arithmetic(doc):
    # the parse's integer pairs against the public constructor on as_fraction
    # of each value, and the common-denominator table against one Fraction at
    # a time
    system = MeasureSystem.from_json(json.dumps(doc))
    left, right = [as_fraction(doc["tails"][side]) for side in ("left", "right")] if "tails" in doc else [None, None]
    built = MeasureSystem(
        p=as_fraction(doc.get("p", "2")), k_min=doc["window"]["min"], k_max=doc["window"]["max"],
        cells=tuple(doc["cells"]), mu={int(k): tuple(map(as_fraction, row)) for k, row in doc["mu"].items()},
        left_tail=left, right_tail=right,
    )
    assert "mu" not in vars(system)
    assert system._table == built._table
    assert system.validate_star() == built.validate_star()
    assert system.distortion_constant() == built.distortion_constant()
    assert "mu" not in vars(system)
    assert list(system.mu.items()) == list(built.mu.items()) and system == built
    assert all(type(v) is Fraction for row in system.mu.values() for v in row)
    for k, (den, total, nums) in enumerate(system._table, system.k_min):
        assert den == math.lcm(*(v.denominator for v in system.mu[k]))
        assert [Fraction(n, den) for n in nums] == list(system.mu[k]) and total == sum(nums)
    assert system.validate_star() == _star_reference(system)
    assert system.distortion_constant() == _distortion_reference(system)
    mass_0 = sum(system.mu[0])
    assert system._w_shares == tuple((b / mass_0).as_integer_ratio() for b in system.mu[0])
    for k, row in system.mu.items():
        assert system.mu_W(k) == sum(row)
    if system.has_tails:
        for d in (1, 2, 5):
            assert system.mu_W(system.k_min - d) == sum(system.mu[system.k_min]) * system.left_tail**d
            assert system.mu_W(system.k_max + d) == sum(system.mu[system.k_max]) * system.right_tail**d


MALFORMED_MASSES = [
    ("1/0", 2, "mu[0][1]: cannot parse '1/0' as a rational"),
    ("0/3", 2, "mu[0][B2] = 0 is not positive"),
    ("-0", 2, "mu[0][B2] = 0 is not positive"),
    ("+1", 0, None),
    (" 1", 0, None),
    ("1/-2", 2, "mu[0][1]: cannot parse '1/-2' as a rational"),
    ("1.5", 0, None),
    ("1e3", 0, None),
    ("\u0661", 0, None),
    (True, 2, "mu[0][1]: expected a rational, got a bool"),
    (1.5, 2, "mu[0][1]: expected a rational string, got float"),
    (None, 2, "mu[0][1]: expected a rational string, got NoneType"),
    ([], 2, "mu[0][1]: expected a rational string, got list"),
    ("1e5000", 2, "mu[0][1]: the exponent of '1e5000' passes the 4300-digit limit"),
    ("1" * 4301, 2, f"mu[0][1]: cannot parse '{'1' * 4301}' as a rational"),
    ("1/" + "3" * 4301, 2, f"mu[0][1]: cannot parse '1/{'3' * 4301}' as a rational"),
]


@pytest.mark.parametrize("value, code, message", MALFORMED_MASSES, ids=[repr(v)[:12] for v, _, _ in MALFORMED_MASSES])
def test_validate_keeps_its_verdict_on_each_mass_form(tmp_path, capsys, value, code, message):
    config = tmp_path / "mass.json"
    config.write_text(json.dumps(_hand_doc({"0": ["1/2", value], "1": ["1/4", "1/4"]})))
    assert main(["validate", "--config", str(config)]) == code
    assert capsys.readouterr().err == ("" if message is None else f"shiftlab: invalid config: {message}\n")


@pytest.mark.parametrize("mu, message", [
    ({"1": ["-1/4", "1/4"], "0": ["1/2", "0"]}, "mu[0][B2] = 0 is not positive"),
    ({"1": ["1/4", "-1/4"], "0": ["1/2", "1/2"]}, "mu[1][B2] = -1/4 is not positive"),
], ids=["earlier_level_wins", "later_level_listed_first"])
def test_the_first_non_positive_cell_is_named_in_level_order(tmp_path, capsys, mu, message):
    config = tmp_path / "mass.json"
    config.write_text(json.dumps(_hand_doc(mu)))
    assert main(["validate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"shiftlab: invalid config: {message}\n"


def test_star_multiplies_cell_pairs_not_common_denominator_numerators():
    # 32 pairwise coprime 1000-digit denominators, N * i + 1 with every
    # prime below 32 in N: over one common denominator per level the
    # numerators would have some 16,000 digits; star stays on the cells'
    # own 1000-digit pairs
    n = math.factorial(32) * 10**1000
    system = MeasureSystem(p=Fraction(2), k_min=0, k_max=1, cells=tuple(f"B{i}" for i in range(16)),
                           mu={0: tuple(Fraction(n + i, n * i + 1) for i in range(1, 17)),
                               1: tuple(Fraction(n - i, n * (i + 16) + 1) for i in range(1, 17))})
    start = time.perf_counter()
    c = system.validate_star()
    assert time.perf_counter() - start < 0.1
    assert c == _star_reference(system)


def test_validate_and_weights_build_no_fraction_per_cell(monkeypatch):
    # wide100 has 804 cells; the same window with every cell written three
    # times has 2412: the parse builds p and the two tails, validate its two
    # constants and weights one more Fraction per window weight and one for
    # the right tail's reciprocal, whatever the cells
    doc = json.loads((Path(__file__).parent / "golden" / "wide100.json").read_text())
    tripled = {**doc, "cells": [f"{name}{copy}" for copy in "abc" for name in doc["cells"]],
               "mu": {k: row * 3 for k, row in doc["mu"].items()}}
    built = [0]

    def counting(new):
        def construct(*args, **kwargs):
            built[0] += 1
            return new(*args, **kwargs)
        return construct

    counts = {}
    for name, config in (("wide100", doc), ("tripled", tripled)):
        for command in ("validate", "weights"):
            text = json.dumps(config)
            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__new__", staticmethod(counting(Fraction.__new__)))
                if hasattr(Fraction, "_from_coprime_ints"):  # builds arithmetic results from Python 3.12 on
                    from_ints = Fraction._from_coprime_ints.__func__
                    patch.setattr(Fraction, "_from_coprime_ints", classmethod(counting(from_ints)))
                built[0] = 0
                system = MeasureSystem.from_json(text)
                run_command(command, system, horizon=64, samples=0, eps=1e-2)
            counts[name, command] = built[0]
            assert "mu" not in vars(system)
    levels = doc["window"]["max"] - doc["window"]["min"]
    assert counts["wide100", "validate"] == counts["tripled", "validate"] <= 3 + 2
    assert counts["wide100", "weights"] == counts["tripled", "weights"] <= 3 + 2 + levels + 1
    system = MeasureSystem.from_json(json.dumps(doc))
    run_command("report", system, horizon=64, samples=100, eps=1e-2)
    assert "mu" not in vars(system)


def test_report_computes_each_structural_constant_once(monkeypatch, capsys):
    # validate_star and distortion_constant take one _widest_ratio each;
    # the telescoping check reads the cached star constant
    calls, widest = [], measure_system._widest_ratio
    monkeypatch.setattr(measure_system, "_widest_ratio", lambda pairs: calls.append(1) or widest(pairs))
    assert main(["report", "--config", str(Path(__file__).parents[1] / "configs" / "dyadic.json")]) == 0
    capsys.readouterr()
    assert len(calls) == 2


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


def test_tail_level_masses_are_kept_only_near_the_window():
    # a level at most 3 past an edge, as far as semicheck reads, is built
    # once; a farther one each time, so a scan far out leaves the memo as it
    # was; equality and repr ignore it
    system = make_dyadic()
    text, size = repr(system), len(system._level_mass)

    def extended(k):
        if k < system.k_min:
            return system.mu_W(system.k_min) * system.left_tail ** (system.k_min - k)
        return system.mu_W(system.k_max) * system.right_tail ** (k - system.k_max)

    near = [system.k_min - 3, system.k_min - 1, system.k_max + 1, system.k_max + 3]
    for k in near:
        assert system.mu_W(k) is system.mu_W(k) and system.mu_W(k) == extended(k)
    for k in (system.k_min - 4, system.k_max + 4, system.k_max + 8, system.k_max + 10**4):
        assert system.mu_W(k) is not system.mu_W(k) and system.mu_W(k) == extended(k)
    assert len(system._level_mass) == size + len(near)
    assert repr(system) == text and system == make_dyadic()
