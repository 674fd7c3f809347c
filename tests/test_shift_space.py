import dataclasses
import math
import random
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import (
    BILATERAL,
    UNILATERAL,
    MeasureSystem,
    SeqVector,
    WeightSequence,
    apply_backward,
    apply_forward_inverse,
    derive_weights,
    lp_distance,
    weight_product,
    wp_product,
)
from shiftlab.errors import ConfigError, TailRuleMissing
from shiftlab.rationals import pow_maybe_exact
from shiftlab.shift_space import _one_steps, _split
from shiftlab.sampling import P_POOL

from generators import random_system


def test_derived_dyadic_weights(dyadic):
    w = derive_weights(dyadic)
    assert w.side == BILATERAL
    assert (w.lo, w.hi) == (-4, 5)
    for k in range(1, 30):
        assert w.wp_at(k) == 2
    for k in range(-30, 1):
        assert w.wp_at(k) == Fraction(1, 2)


def test_derived_weights_match_mass_ratios(dyadic_p2):
    w = derive_weights(dyadic_p2)
    for k in range(-12, 13):
        assert w.wp_at(k) == dyadic_p2.mu_W(k - 1) / dyadic_p2.mu_W(k)


def test_weight_root_exact_when_possible():
    w = WeightSequence(
        p=Fraction(2), side=UNILATERAL, lo=1, hi=2,
        wp={1: Fraction(4), 2: Fraction(2)}, right_tail=(Fraction(9, 4),),
    )
    assert weight_product(w, 1, 1) == Fraction(2)
    assert isinstance(weight_product(w, 2, 2), float)
    assert weight_product(w, 3, 3) == Fraction(3, 2)


def test_tail_indexing_is_periodic():
    w = WeightSequence(
        p=Fraction(1), side=BILATERAL, lo=0, hi=-1, wp={},
        left_tail=(Fraction(3), Fraction(5)), right_tail=(Fraction(2), Fraction(7)),
    )
    assert [w.wp_at(k) for k in range(0, 4)] == [2, 7, 2, 7]
    assert [w.wp_at(k) for k in range(-1, -5, -1)] == [3, 5, 3, 5]


def test_missing_tail_rule():
    w = WeightSequence(p=Fraction(1), side=BILATERAL, lo=0, hi=1,
                       wp={0: Fraction(1), 1: Fraction(2)})
    with pytest.raises(TailRuleMissing):
        w.wp_at(2)
    with pytest.raises(TailRuleMissing):
        w.wp_at(-1)


def test_weight_sequence_validation():
    with pytest.raises(ConfigError):
        WeightSequence(p=Fraction(1), side="diagonal", lo=1, hi=0, wp={})
    with pytest.raises(ConfigError):
        WeightSequence(p=Fraction(1), side=BILATERAL, lo=0, hi=1, wp={0: Fraction(1)})
    with pytest.raises(ConfigError):
        WeightSequence(p=Fraction(1), side=BILATERAL, lo=0, hi=0, wp={0: Fraction(0)})
    with pytest.raises(ConfigError):
        WeightSequence(p=Fraction(1), side=UNILATERAL, lo=0, hi=0, wp={0: Fraction(1)})
    with pytest.raises(ConfigError):
        WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=0, wp={},
                       left_tail=(Fraction(2),), right_tail=(Fraction(2),))
    with pytest.raises(ValueError):
        WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=0, wp={},
                       right_tail=(Fraction(2),)).wp_at(0)
    with pytest.raises(ConfigError, match="^p: must be >= 1, got 1/2$"):
        WeightSequence(p=Fraction(1, 2), side=BILATERAL, lo=1, hi=0, wp={})
    with pytest.raises(ConfigError, match="^weights: hi may not drop below lo - 1$"):
        WeightSequence(p=Fraction(1), side=BILATERAL, lo=1, hi=-1, wp={})
    with pytest.raises(ConfigError, match="^weights: left tail must be nonempty$"):
        WeightSequence(p=Fraction(1), side=BILATERAL, lo=1, hi=0, wp={}, left_tail=(), right_tail=(Fraction(2),))


def test_weight_sign_checks_keep_their_messages():
    # the checks read each sign off a numerator
    with pytest.raises(ConfigError, match="^weights: power at 1 must be positive, got 0$"):
        WeightSequence(p=Fraction(1), side=BILATERAL, lo=0, hi=1, wp={0: Fraction(1), 1: Fraction(0)})
    with pytest.raises(ConfigError, match="^weights: right tail values must be positive$"):
        WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=0, wp={},
                       right_tail=(Fraction(2), Fraction(-1, 3)))


def test_products_inclusive_and_empty(dyadic):
    w = derive_weights(dyadic)
    assert wp_product(w, 5, 4) == 1
    assert wp_product(w, 1, 3) == 8
    assert wp_product(w, -2, 1) == Fraction(1, 4)  # three halves and one two
    assert weight_product(w, 1, 3) == 8  # p = 1


def test_backward_shift_moves_and_scales(dyadic):
    w = derive_weights(dyadic)
    x = SeqVector(BILATERAL, {0: 1.0, 2: -0.5})
    y = apply_backward(w, x)
    assert y.entries == {-1: complex(0.5), 1: complex(-1.0)}
    z = apply_backward(w, x, 2)
    assert z.entries == {-2: complex(0.25), 0: complex(-2.0)}


def test_forward_inverse_is_right_inverse(dyadic):
    w = derive_weights(dyadic)
    rng = random.Random(5)
    for _ in range(20):
        x = SeqVector(
            BILATERAL,
            {rng.randint(-6, 6): rng.uniform(-2, 2) for _ in range(4)},
        )
        m = rng.randint(0, 10)
        back = apply_backward(w, apply_forward_inverse(w, x, m), m)
        assert set(back.entries) == set(x.entries)
        for n, v in x.entries.items():
            assert back.entries[n].real == pytest.approx(v.real, rel=1e-12)


def test_unilateral_backward_discards_shifted_out_mass():
    w = WeightSequence(p=Fraction(1), side=UNILATERAL, lo=1, hi=0, wp={},
                       right_tail=(Fraction(2),))
    x = SeqVector(UNILATERAL, {0: 1.0, 1: 1.0, 3: 1.0})
    y = apply_backward(w, x, 2)
    assert y.entries == {1: complex(4.0)}


def test_seq_vector_round_trip_and_cleanup():
    doc = {
        "side": "bilateral",
        "entries": [{"n": -1, "re": 0.5, "im": 0.0}, {"n": 3, "re": 0.0, "im": -1.0}],
    }
    x = SeqVector(BILATERAL, {-1: 0.5, 3: complex(0, -1)})
    assert x.to_dict() == doc
    assert SeqVector(BILATERAL, {0: 0.0}).entries == {}
    with pytest.raises(ConfigError):
        SeqVector(UNILATERAL, {-1: 1.0})


def test_lp_distance_from_the_zero_vector_values():
    x, zero = SeqVector(BILATERAL, {0: 3.0, 1: -4.0}), SeqVector(BILATERAL)
    assert lp_distance(x, zero, Fraction(1)) == pytest.approx(7.0)
    assert lp_distance(x, zero, Fraction(2)) == pytest.approx(5.0)
    assert lp_distance(zero, zero, Fraction(2)) == 0.0


_entry = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _norm_of_difference(a: SeqVector, b: SeqVector, p: Fraction) -> float:
    """The norm of a - b built the old way: b negated entry by entry, then
    added to a."""
    diff = a.plus(SeqVector(a.side, {n: -1 * v for n, v in b.entries.items()}))
    return sum(abs(v) ** float(p) for v in diff.entries.values()) ** (1.0 / float(p))


@settings(max_examples=300, deadline=None)
@given(
    x=st.dictionaries(st.integers(-6, 6), _entry, max_size=6),
    y=st.dictionaries(st.integers(-6, 6), _entry, max_size=6),
    support=st.sampled_from(["as drawn", "disjoint", "equal", "equal values"]),
    p=st.sampled_from(P_POOL),
    others=st.lists(st.dictionaries(st.integers(-6, 26), _entry, max_size=4), max_size=4),
)
def test_lp_distance_matches_the_norm_of_the_difference(x, y, support, p, others):
    """Bit for bit against the norm of x - y built the old way, for each
    target: the drawn y, then targets that share some, all or none of x's
    support."""
    if support == "disjoint":
        y = {n + 20: v for n, v in y.items()}
    elif support == "equal":
        y = {n: y.get(n, 1 + 1j) for n in x}
    elif support == "equal values":
        y = {**y, **x}
    a, b = SeqVector(BILATERAL, x), SeqVector(BILATERAL, y)
    old = _norm_of_difference(a, b, p)
    assert lp_distance(a.plus(SeqVector(BILATERAL, {n: -1 * v for n, v in y.items()})),
                       SeqVector(BILATERAL), p).hex() == old.hex()
    assert lp_distance(a, b, p).hex() == old.hex()
    ys = [b, *(SeqVector(BILATERAL, o) for o in others), SeqVector(BILATERAL, {n: 2 * v for n, v in x.items()})]
    assert [lp_distance(a, t, p).hex() for t in ys] == [_norm_of_difference(a, t, p).hex() for t in ys]


def test_lp_distance_rejects_mixed_sides():
    with pytest.raises(ValueError):
        lp_distance(SeqVector(BILATERAL, {0: 1.0}), SeqVector(UNILATERAL, {0: 1.0}), 1)
    with pytest.raises(ValueError, match="^cannot add vectors of different sides$"):
        SeqVector(BILATERAL, {0: 1.0}).plus(SeqVector(UNILATERAL, {0: 1.0}))
    with pytest.raises(ConfigError, match="^side: expected bilateral or unilateral, got 'diagonal'$"):
        SeqVector("diagonal", {0: 1.0})


def test_side_mismatch_rejected(dyadic):
    w = derive_weights(dyadic)
    with pytest.raises(ValueError):
        apply_backward(w, SeqVector(UNILATERAL, {0: 1.0}))
    for shift in (apply_backward, apply_forward_inverse):
        with pytest.raises(ValueError, match="^steps must be >= 0$"):
            shift(w, SeqVector(BILATERAL, {0: 1.0}), -1)


def test_constant_system_has_unit_weights():
    flat = MeasureSystem(
        p=Fraction(1), k_min=-2, k_max=2, cells=("B1",),
        mu={k: (Fraction(1),) for k in range(-2, 3)},
        left_tail=Fraction(1), right_tail=Fraction(1),
    )
    w = derive_weights(flat)
    for k in range(-10, 11):
        assert w.wp_at(k) == 1
        assert weight_product(w, k, k) == 1


def test_quartic_growth_gives_constant_half_weights():
    quartic = MeasureSystem(
        p=Fraction(2), k_min=-2, k_max=2, cells=("B1",),
        mu={k: (Fraction(4) ** k,) for k in range(-2, 3)},
        left_tail=Fraction(1, 4), right_tail=Fraction(4),
    )
    w = derive_weights(quartic)
    for k in range(-6, 7):
        assert w.wp_at(k) == Fraction(1, 4)
        assert weight_product(w, k, k) == Fraction(1, 2)


def test_backward_shift_norm_bounded_by_sup_weight():
    rng = random.Random(41)
    for _ in range(25):
        system = random_system(rng)
        w = derive_weights(system)
        x = SeqVector(BILATERAL, {
            rng.randint(-8, 8): complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for _ in range(rng.randint(1, 5))
        })
        if not x.entries:
            continue
        sup_w = max(float(weight_product(w, j, j)) for j in x.entries)
        zero = SeqVector(BILATERAL)
        lhs = lp_distance(apply_backward(w, x), zero, w.p)
        rhs = sup_w * lp_distance(x, zero, w.p)
        assert lhs <= rhs * (1 + 1e-9)


def test_weight_product_telescopes_to_measure_ratio():
    rng = random.Random(42)
    for _ in range(25):
        system = random_system(rng)
        w = derive_weights(system)
        for _ in range(6):
            j = rng.randint(-6, 6)
            n = rng.randint(1, 5)
            assert wp_product(w, j - n + 1, j) == system.mu_W(j - n) / system.mu_W(j)


def _loop_product(w, i, j):
    """Reference block product: one wp_at per term."""
    return math.prod((w.wp_at(k) for k in range(i, j + 1)), start=Fraction(1))


_power = st.builds(Fraction, st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
_tail = st.one_of(st.none(), st.lists(_power, min_size=1, max_size=3).map(tuple))


@st.composite
def _weight_sequences(draw):
    side = draw(st.sampled_from([BILATERAL, UNILATERAL]))
    lo = 1 if side == UNILATERAL else draw(st.integers(min_value=-4, max_value=4))
    hi = draw(st.integers(min_value=lo - 1, max_value=lo + 5))
    return WeightSequence(
        p=Fraction(draw(st.sampled_from(["1", "3/2", "2"]))),
        side=side,
        lo=lo,
        hi=hi,
        wp={k: draw(_power) for k in range(lo, hi + 1)},
        left_tail=None if side == UNILATERAL else draw(_tail),
        right_tail=draw(_tail),
    )


@settings(max_examples=200, deadline=None)
@given(
    w=_weight_sequences(),
    picks=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=8),
)
def test_wp_product_matches_the_per_term_loop(w, picks):
    """Blocks [i, j] with lo - 8 <= i <= hi + 12 and i - 1 <= j <= hi + 12,
    the empty block included; an error must be the one the loop raises.
    The float memo, which folds the block's parts into an integer pair,
    gives the float of their product's root and the same errors."""
    for a, b in picks:
        i = w.lo - 8 + a % (w.hi - w.lo + 21)
        j = i - 1 + b % (w.hi + 14 - i)
        try:
            expected = _loop_product(w, i, j)
        except (ValueError, TailRuleMissing) as exc:
            for read in (wp_product, lambda w, i, j: w._floats(i, j)):
                with pytest.raises(type(exc)) as raised:
                    read(w, i, j)
                assert type(raised.value) is type(exc)
        else:
            assert wp_product(w, i, j) == expected
            assert w._floats(i, j).hex() == float(pow_maybe_exact(expected, 1 / w.p)).hex()


def _reads(floats):
    out = []
    try:
        out.extend(f.hex() for f in floats)
    except TailRuleMissing:
        out.append("TailRuleMissing")
    return out


@settings(max_examples=200, deadline=None)
@given(w=_weight_sequences(), j=st.integers(-30, 30), length=st.integers(0, 40))
def test_one_step_reads_along_a_path_match_the_memo_at_each_index(w, j, length):
    """A tail index read at its phase's index in the first period gives the
    index's own float, and a missing tail fails at the same step; however
    long the path, the memo keeps the window and one entry per phase."""
    j = abs(j) if w.side == UNILATERAL else j
    stop = max(j - length, 0) if w.side == UNILATERAL else j - length
    twin = dataclasses.replace(w)  # the same weights, its own memo
    assert _reads(_one_steps(w, j, stop)) == _reads(twin._floats(k, k) for k in range(j, stop, -1))
    assert w._floats.cache_info().currsize <= len(w.wp) + len(w.left_tail or ()) + len(w.right_tail or ())


def test_a_one_part_block_is_its_part():
    w = WeightSequence(p=Fraction(2), side=BILATERAL, lo=0, hi=2, wp={k: Fraction(k + 1, 3) for k in range(3)},
                       left_tail=(Fraction(1, 2), Fraction(3)), right_tail=(Fraction(5),))
    assert all(wp_product(w, k, k) is w.wp[k] for k in range(3))
    assert all(wp_product(w, k, k) is t for k, t in zip((-1, -2, 3), (*w.left_tail, *w.right_tail)))
    # whole periods only: the cached power, here (1/2 * 3)**3 and 5**6
    assert wp_product(w, -7, -2) is w._powers(Fraction(3, 2), 3)
    assert wp_product(w, 4, 9) is w._powers(Fraction(5), 6)


def test_deriving_weights_leaves_the_prefix_table_unbuilt(dyadic):
    w = derive_weights(dyadic)
    assert "_prefix" not in vars(w)
    assert wp_product(w, -3, 2) == dyadic.mu_W(-4) / dyadic.mu_W(2)
    assert "_prefix" in vars(w)


# -- tail runs: whole periods as one power, built once per sequence ------------


def test_tail_blocks_read_by_their_run_match_the_block_product():
    # periods 2 and 3, so every phase of both tails, two periods deep, at
    # every length up to 300: the split's terms multiply to the per-term
    # product of wp_at, as wp_product and the memo, read cold and then warm
    w = WeightSequence(
        p=Fraction(3, 2), side=BILATERAL, lo=-1, hi=2,
        wp={-1: Fraction(3), 0: Fraction(1, 5), 1: Fraction(2), 2: Fraction(1, 2)},
        left_tail=(Fraction(1, 2), Fraction(3)), right_tail=(Fraction(2), Fraction(1, 3), Fraction(3, 2)),
    )
    runs = [range(j, j - 300, -1) for j in range(w.lo - 1, w.lo - 1 - 2 * len(w.left_tail), -1)]
    runs += [range(i, i + 300) for i in range(w.hi + 1, w.hi + 1 + 2 * len(w.right_tail))]
    for _ in range(2):
        for run in runs:
            for k, expected in zip(run, accumulate(map(w.wp_at, run), mul)):
                i, j = sorted((run[0], k))
                assert math.prod(q**e for q, e in _split(w, i, j)) == wp_product(w, i, j) == expected
                assert w._floats(i, j).hex() == float(pow_maybe_exact(expected, 1 / w.p)).hex()
    # one power per side and count of whole periods: 2 to 150 of 2, 2 to 100 of 3
    assert w._powers.cache_info().currsize == 149 + 99


def test_tail_blocks_past_a_side_with_no_tail_raise_as_wp_product():
    left_only = WeightSequence(p=Fraction(2), side=BILATERAL, lo=0, hi=1, wp={0: Fraction(1), 1: Fraction(2)},
                               left_tail=(Fraction(1, 2),))
    right_only = WeightSequence(p=Fraction(2), side=BILATERAL, lo=0, hi=1, wp={0: Fraction(1), 1: Fraction(2)},
                                right_tail=(Fraction(1, 2),))
    unilateral = WeightSequence(p=Fraction(2), side=UNILATERAL, lo=1, hi=1, wp={1: Fraction(2)},
                                right_tail=(Fraction(1, 2),))
    for w, (i, j), error, message in [
        (left_only, (3, 5), TailRuleMissing, "weight index 3 lies beyond hi and no tail rule is set"),
        (left_only, (-3, 4), TailRuleMissing, "weight index 2 lies beyond hi and no tail rule is set"),
        (right_only, (-5, -3), TailRuleMissing, "weight index -5 lies below lo and no tail rule is set"),
        (unilateral, (0, 0), ValueError, "unilateral weights are indexed from 1, got 0"),
        (unilateral, (-4, -2), ValueError, "unilateral weights are indexed from 1, got -4"),
    ]:
        for read in (w._floats, lambda i, j: wp_product(w, i, j)):
            with pytest.raises(error) as raised:
                read(i, j)
            assert type(raised.value) is error and str(raised.value) == message
