import math
import random
import time
from fractions import Fraction
from pathlib import Path

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
    cli,
    construct_hc_approx,
    derive_weights,
    hc_lab,
    lp_distance,
    orbit_density_report,
    shift_space,
    weight_product,
)
from shiftlab.errors import HorizonExhausted
from shiftlab.rationals import pow_maybe_exact

from generators import TAIL_POOL, random_system


def canonical_targets():
    return [
        SeqVector(BILATERAL, {0: 1.0}),
        SeqVector(BILATERAL, {0: 1.0, 1: 1.0}),
        SeqVector(BILATERAL, {-1: 1.0}),
    ]


def test_approx_on_dyadic_weights(dyadic):
    w = derive_weights(dyadic)
    result = construct_hc_approx(w, canonical_targets(), eps=1e-2, horizon=64)
    assert result.gap == 16
    assert result.schedule == (16, 32, 48)
    assert all(d <= 1e-2 for d in result.defects)
    # the defects really are the iterated-shift distances
    for m, y, d in zip(result.schedule, canonical_targets(), result.defects):
        minus_y = SeqVector(y.side, {n: -v for n, v in y.entries.items()})
        direct = lp_distance(apply_backward(w, result.vector, m).plus(minus_y), SeqVector(BILATERAL), w.p)
        assert direct == pytest.approx(d)


def test_approx_trivial_for_zero_targets(dyadic):
    w = derive_weights(dyadic)
    result = construct_hc_approx(w, [SeqVector(BILATERAL, {})], eps=1e-2)
    assert result.gap == 0
    assert result.schedule == (0,)
    assert result.defects == (0.0,)
    assert not result.vector.entries


def test_single_target_is_hit_exactly(dyadic):
    # one target needs one pullback: x = (1/2) e_1 and the shift puts it
    # back on e_0 with no cross terms at all
    w = derive_weights(dyadic)
    result = construct_hc_approx(w, [SeqVector(BILATERAL, {0: 1.0})], eps=1e-2)
    assert result.schedule == (1,)
    assert result.vector.entries == {1: (0.5 + 0j)}
    assert result.defects == (0.0,)


def test_approx_horizon_exhausted(dyadic):
    w = derive_weights(dyadic)
    with pytest.raises(HorizonExhausted):
        construct_hc_approx(w, canonical_targets(), eps=1e-9, horizon=64)


def test_eps_must_be_positive(dyadic):
    w = derive_weights(dyadic)
    with pytest.raises(ValueError):
        construct_hc_approx(w, canonical_targets(), eps=0.0)
    x = SeqVector(BILATERAL, {0: 1.0})
    with pytest.raises(ValueError, match="^eps must be positive$"):
        orbit_density_report(w, x, canonical_targets(), eps=0.0)
    with pytest.raises(ValueError, match="^cannot compare vectors of different sides$"):
        orbit_density_report(w, x, [SeqVector(UNILATERAL, {0: 1.0})])


def test_orbit_density_full_hit(dyadic):
    w = derive_weights(dyadic)
    targets = canonical_targets()
    result = construct_hc_approx(w, targets, eps=1e-2, horizon=64)
    density = orbit_density_report(w, result.vector, targets, eps=1e-2, horizon=64)
    assert density.fraction == 1.0
    assert [h.best_step for h in density.hits] == [16, 32, 48]


def test_orbit_density_counts_misses(dyadic):
    w = derive_weights(dyadic)
    x = SeqVector(BILATERAL, {0: 1.0})
    targets = [SeqVector(BILATERAL, {0: 100.0}), SeqVector(BILATERAL, {0: 1.0})]
    density = orbit_density_report(w, x, targets, eps=1e-2, horizon=8)
    assert density.fraction == 0.5
    assert not density.hits[0].hit
    assert density.hits[1].hit and density.hits[1].best_step == 0


def test_orbit_density_with_zero_horizon(dyadic):
    w = derive_weights(dyadic)
    x = SeqVector(BILATERAL, {0: 1.0})
    same = orbit_density_report(w, x, [x], eps=1e-2, horizon=0)
    assert same.fraction == 1.0
    far = orbit_density_report(w, x, [SeqVector(BILATERAL, {0: 5.0})],
                               eps=1e-2, horizon=0)
    assert far.fraction == 0.0


# -- reference equivalence ---------------------------------------------------
#
# The experiment as it was written before its weight memo and shared distance
# terms: the shift, sum and distance loops copied here, every weight taken
# through an uncached weight_product.  Both sides must print the same floats.


def _ref_forward_inverse(w, x, steps):
    out = {}
    for j, v in x.entries.items():
        n = j + steps
        out[n] = v / float(weight_product(w, j + 1, n))
    return SeqVector(x.side, out)


def _ref_plus(a, b):
    merged = dict(a.entries)
    for n, v in b.entries.items():
        merged[n] = merged.get(n, 0j) + v
    return SeqVector(a.side, merged)


def _ref_backward(w, x, steps):
    out = {}
    for j, v in x.entries.items():
        n = j - steps
        if w.side == UNILATERAL and n < 0:
            continue
        out[n] = v * float(weight_product(w, n + 1, j))
    return SeqVector(x.side, out)


def _ref_distance(x, y, p):
    pf, ys = float(p), y.entries
    gaps = [abs(v - ys.get(n, 0)) for n, v in x.entries.items()]
    gaps += [abs(v) for n, v in ys.items() if n not in x.entries]
    return sum(g**pf for g in gaps) ** (1.0 / pf)


def _ref_approx(w, targets, eps, horizon):
    count, gap = len(targets), 1
    while gap * count <= horizon:
        schedule = tuple(gap * (j + 1) for j in range(count))
        x = SeqVector(w.side, {})
        for m, y in zip(schedule, targets):
            x = _ref_plus(x, _ref_forward_inverse(w, y, m))
        defects = tuple(_ref_distance(_ref_backward(w, x, m), y, w.p) for m, y in zip(schedule, targets))
        if all(d <= eps for d in defects):
            return gap, schedule, x, defects
        gap *= 2
    raise HorizonExhausted(f"no gap with {count} targets fits within {horizon} steps at eps={eps}")


def _ref_orbit(w, x, targets, horizon):
    best = [(0, float("inf"))] * len(targets)
    current = x
    for t in range(horizon + 1):
        for idx, y in enumerate(targets):
            d = _ref_distance(current, y, w.p)
            if d < best[idx][1]:
                best[idx] = (t, d)
        if t < horizon:
            current = _ref_backward(w, current, 1)
    return best


def _hex_vector(x):
    return [(n, v.real.hex(), v.imag.hex()) for n, v in x.entries.items()]


_FAILURES = (HorizonExhausted, OverflowError, ZeroDivisionError)


def _outcome(run):
    try:
        return run()
    except _FAILURES as exc:
        return type(exc).__name__, str(exc)


def _experiment(w, targets, horizon, x=None, eps=1e-2):
    """Both experiments through the library, floats as hex; x given skips
    the construction."""
    def run():
        out = []
        vector = x
        if vector is None:
            approx = construct_hc_approx(w, targets, eps=eps, horizon=horizon)
            vector = approx.vector
            out = [approx.gap, approx.schedule, _hex_vector(vector), [d.hex() for d in approx.defects]]
        hits = orbit_density_report(w, vector, targets, eps=eps, horizon=horizon).hits
        return out + [[(h.best_step, h.best_distance.hex()) for h in hits]]
    return _outcome(run)


def _reference(w, targets, horizon, x=None, eps=1e-2):
    def run():
        out = []
        vector = x
        if vector is None:
            gap, schedule, vector, defects = _ref_approx(w, targets, eps, horizon)
            out = [gap, schedule, _hex_vector(vector), [d.hex() for d in defects]]
        return out + [[(t, d.hex()) for t, d in _ref_orbit(w, vector, targets, horizon)]]
    return _outcome(run)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.sampled_from([0, 1, 64, 300]), steep=st.booleans())
def test_experiment_matches_the_reference_loops(seed, horizon, steep):
    """Bit for bit on random systems, the orbit also on its own from a
    vector on both sides (most draws exhaust the horizon before it); steep
    tails push weight products out of the float range, and the same error
    must come out of both sides."""
    pool = TAIL_POOL + (Fraction(1, 64), Fraction(64)) if steep else TAIL_POOL
    w = derive_weights(random_system(random.Random(seed), tail_pool=pool))
    assert _experiment(w, canonical_targets(), horizon) == _reference(w, canonical_targets(), horizon)
    x = SeqVector(BILATERAL, {-3: 0.5, 0: 1.0, 1: -1j, 4: 2.0})
    assert _experiment(w, canonical_targets(), horizon, x) == _reference(w, canonical_targets(), horizon, x)


@pytest.mark.parametrize("horizon", [0, 1, 64, 300])
def test_experiment_matches_the_reference_with_periodic_tails(horizon):
    w = WeightSequence(
        p=Fraction(3, 2), side=BILATERAL, lo=-1, hi=2,
        wp={-1: Fraction(3), 0: Fraction(1, 5), 1: Fraction(2), 2: Fraction(1, 2)},
        left_tail=(Fraction(1, 2), Fraction(3)), right_tail=(Fraction(2), Fraction(1, 3), Fraction(3, 2)),
    )
    assert _experiment(w, canonical_targets(), horizon) == _reference(w, canonical_targets(), horizon)


@pytest.mark.parametrize("horizon", [0, 1, 64, 300])
def test_experiment_matches_the_reference_on_a_unilateral_sequence(horizon):
    w = WeightSequence(
        p=Fraction(2), side=UNILATERAL, lo=1, hi=3,
        wp={1: Fraction(4), 2: Fraction(9, 4), 3: Fraction(1, 2)}, right_tail=(Fraction(1, 4), Fraction(9)),
    )
    targets = [SeqVector(UNILATERAL, {0: 1.0}), SeqVector(UNILATERAL, {0: 1.0, 1: 1.0}),
               SeqVector(UNILATERAL, {2: 1.0})]
    result = _experiment(w, targets, horizon)
    assert result == _reference(w, targets, horizon)
    # the orbit alone, from a vector whose mass is shifted past index 0
    x = SeqVector(UNILATERAL, {0: 0.5, 3: 2.0, 7: 1.0})
    assert _experiment(w, targets, horizon, x) == _reference(w, targets, horizon, x)


def test_experiment_matches_the_reference_when_a_weight_underflows():
    # the weight at index 0 is 10**-400, whose float is exactly 0: an entry
    # shifted from 0 to -1 becomes 0 and SeqVector drops it mid-orbit, which
    # changes the distance's term order; the pullback divides by it
    wp = {k: Fraction(1) for k in range(-3, 4)}
    wp[0] = Fraction(1, 10**400)
    w = WeightSequence(p=Fraction(1), side=BILATERAL, lo=-3, hi=3, wp=wp,
                       left_tail=(Fraction(1),), right_tail=(Fraction(1),))
    x = SeqVector(BILATERAL, {5: 1.0, 2: 0.5, -2: 0.25})
    for horizon in (1, 3, 64):
        assert _experiment(w, canonical_targets(), horizon, x) == _reference(w, canonical_targets(), horizon, x)
    assert apply_backward(w, x, 3).entries.keys() == {2, -5}  # the entry from 2 is gone
    outcome = _experiment(w, canonical_targets(), 64)
    assert outcome == _reference(w, canonical_targets(), 64)
    assert outcome[0] == "ZeroDivisionError"


def test_experiment_matches_the_reference_on_a_target_with_imaginary_minus_zero(dyadic):
    # the sum adds each image to 0j at a new index, which turns the image's
    # imaginary -0.0 into +0.0 in the vector that is printed
    w = derive_weights(dyadic)
    targets = [SeqVector(BILATERAL, {0: complex(1.0, -0.0)}), *canonical_targets()[1:]]
    for horizon in (1, 64, 300):
        assert _experiment(w, targets, horizon) == _reference(w, targets, horizon)
    vector = construct_hc_approx(w, targets, eps=1e-2, horizon=64).vector
    assert math.copysign(1.0, vector.entries[16].imag) == 1.0


def test_experiment_matches_the_reference_where_two_images_cancel():
    # unit weights, gap 1: the images of the first two targets meet at index
    # 1 and cancel, so the entry is dropped, and the third target's image
    # puts index 1 back at the end of the vector; that order is the order of
    # the distance terms, which with 1e16 among them changes their float sum
    w = WeightSequence(p=Fraction(1), side=BILATERAL, lo=0, hi=-1, wp={},
                       left_tail=(Fraction(1),), right_tail=(Fraction(1),))
    targets = [SeqVector(BILATERAL, {0: 1.0, 3: 1.0, 1: 1.0}), SeqVector(BILATERAL, {-1: -1.0}),
               SeqVector(BILATERAL, {-2: 1e16})]
    for horizon in (3, 6, 64):
        assert _experiment(w, targets, horizon, eps=1e17) == _reference(w, targets, horizon, eps=1e17)
    approx = construct_hc_approx(w, targets, eps=1e17, horizon=6)
    assert approx.schedule == (1, 2, 3)
    assert list(approx.vector.entries.items()) == [(4, 1.0), (2, 1.0), (1, 1e16)]


# -- the sequence's float memo -------------------------------------------------
#
# Both shifts read every weight through one memo that lives on the sequence,
# so what a call leaves in it must not change what a later call computes.

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path, distinct", [("configs/dyadic.json", 13), ("tests/golden/decay2.json", 16)])
def test_the_experiment_roots_each_distinct_power_once(monkeypatch, path, distinct):
    # counted where shift_space binds pow_maybe_exact, the memo's root of
    # each distinct pair: the two stages share the sequence's memo, so
    # neither roots a power again
    calls = []

    def counting(q, expo):
        calls.append(q)
        return pow_maybe_exact(q, expo)

    monkeypatch.setattr(shift_space, "pow_maybe_exact", counting)
    system = MeasureSystem.from_json((ROOT / path).read_text())
    assert "error" not in cli._experiment(system, derive_weights(system), eps=1e-2, horizon=64)
    assert len(calls) == len(set(calls)) == distinct


def test_the_experiment_builds_each_tail_run_once(monkeypatch):
    # every block the memo reads goes through the split that wp_product
    # shares, one-step and tail-only blocks too, and a tail run's whole
    # periods are one power from the sequence's cache: each distinct power
    # is built once, and the experiment on dyadic splits each of its 45
    # blocks once
    powers, products = [], []
    power, split = Fraction.__pow__, shift_space._split

    def counting_power(q, e, *rest):
        powers.append((q, e))
        return power(q, e, *rest)

    def counting_split(w, i, j):
        products.append((i, j))
        return split(w, i, j)

    monkeypatch.setattr(Fraction, "__pow__", counting_power)
    monkeypatch.setattr(shift_space, "_split", counting_split)
    system = MeasureSystem.from_json((ROOT / "configs/dyadic.json").read_text())
    assert "error" not in cli._experiment(system, derive_weights(system), eps=1e-2, horizon=64)
    assert len(powers) == len(set(powers)) == 16
    assert len(products) == len(set(products)) == 45


# the sequences of the periodic-tail and unilateral reference tests above,
# built once so that their memos carry over from one example to the next
_PERIODIC = WeightSequence(
    p=Fraction(3, 2), side=BILATERAL, lo=-1, hi=2,
    wp={-1: Fraction(3), 0: Fraction(1, 5), 1: Fraction(2), 2: Fraction(1, 2)},
    left_tail=(Fraction(1, 2), Fraction(3)), right_tail=(Fraction(2), Fraction(1, 3), Fraction(3, 2)),
)
_UNILATERAL = WeightSequence(
    p=Fraction(2), side=UNILATERAL, lo=1, hi=3,
    wp={1: Fraction(4), 2: Fraction(9, 4), 3: Fraction(1, 2)}, right_tail=(Fraction(1, 4), Fraction(9)),
)


@settings(max_examples=80, deadline=None)
@given(
    which=st.sampled_from(["derived", "steep", "periodic", "unilateral"]),
    seed=st.integers(0, 2**32 - 1),
    calls=st.lists(st.tuples(st.booleans(), st.integers(0, 6) | st.integers(7, 300)), min_size=1, max_size=12),
)
def test_a_series_of_shifts_on_one_sequence_matches_the_reference(which, seed, calls):
    """Backward and forward-inverse calls with mixed steps, chained on one
    sequence, each bit for bit the uncached reference's; steep tails push
    some products out of the float range, with the same error both ways."""
    rng = random.Random(seed)
    if which in ("derived", "steep"):
        pool = TAIL_POOL + (Fraction(1, 64), Fraction(64)) if which == "steep" else TAIL_POOL
        w = derive_weights(random_system(rng, tail_pool=pool))
    else:
        w = _PERIODIC if which == "periodic" else _UNILATERAL
    low = 0 if w.side == UNILATERAL else -8
    x = SeqVector(w.side, {rng.randint(low, 8): complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                           for _ in range(rng.randint(1, 4))})
    for backward, steps in calls:
        shift, ref = (apply_backward, _ref_backward) if backward else (apply_forward_inverse, _ref_forward_inverse)
        expected = _outcome(lambda: _hex_vector(ref(w, x, steps)))
        assert _outcome(lambda: _hex_vector(shift(w, x, steps))) == expected
        if isinstance(expected, tuple):  # the same error on both sides ends the series
            break
        x = ref(w, x, steps)


# -- the orbit's trajectory scan -----------------------------------------------
#
# The orbit is scanned as per-entry trajectories, 256 steps at a time
# (hc_lab._CHUNK); an entry stops at its first exact 0 or past index 0, and
# the scan at the first step with no live entry.  A weight of power
# 10**-400 has the float 0.0, so at p = 1 an entry at j dies at step j + 1,
# when it crosses that weight at index 0.

def _unit_weights(p):
    return WeightSequence(p=p, side=BILATERAL, lo=0, hi=-1, wp={},
                          left_tail=(Fraction(1),), right_tail=(Fraction(1),))


def _underflow_at_0():
    wp = {k: Fraction(1) for k in range(-3, 4)}
    wp[0] = Fraction(1, 10**400)
    return WeightSequence(p=Fraction(1), side=BILATERAL, lo=-3, hi=3, wp=wp,
                          left_tail=(Fraction(1),), right_tail=(Fraction(1),))


def _random_vector(rng, side, low, high, most=4, scale=1.0):
    return SeqVector(side, {rng.randint(low, high): complex(rng.uniform(-2, 2) * scale, rng.uniform(-2, 2) * scale)
                            for _ in range(rng.randint(0, most))})


@settings(max_examples=80, deadline=None)
@given(
    which=st.sampled_from(["derived", "steep", "underflow", "periodic", "unilateral"]),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.sampled_from([0, 1, 64, 255, 256, 257, 513]),
    edge=st.booleans(),
)
def test_the_scan_matches_the_reference_on_random_vectors_and_targets(which, seed, horizon, edge):
    """Random vectors and targets whose supports the entries cross at
    several steps, on sequences where entries die (underflow, the
    unilateral side) and where products leave the float range (steep
    tails), with the same error both ways.  Near the float edge the
    entries are about 1e154, whose squares sit at the top of the range,
    and a target's parts may reach 1.5e308, whose abs may overflow, so
    abs and p-th powers overflow at different steps and in different
    chunks."""
    rng = random.Random(seed)
    if which in ("derived", "steep"):
        pool = TAIL_POOL + (Fraction(1, 64), Fraction(64)) if which == "steep" else TAIL_POOL
        w = derive_weights(random_system(rng, tail_pool=pool))
    else:
        w = {"underflow": _underflow_at_0(), "periodic": _PERIODIC, "unilateral": _UNILATERAL}[which]
    low = 0 if w.side == UNILATERAL else -300
    x = _random_vector(rng, w.side, low, 300, scale=1e154 if edge else 1.0)
    targets = [_random_vector(rng, w.side, low, 300, most=3, scale=rng.choice([1.0, 0.75e308]) if edge else 1.0)
               for _ in range(rng.randint(1, 3))]
    assert _experiment(w, targets, horizon, x) == _reference(w, targets, horizon, x)


@pytest.mark.parametrize("horizon", [255, 256, 257, 513])
def test_the_scan_matches_the_reference_where_entries_die_mid_chunk_and_on_a_chunk_boundary(horizon):
    # the entries at 100 and 254 die at steps 101 and 255, inside the first
    # chunk; those at 255 and 511 at steps 256 and 512, the first steps of
    # the second and third; the targets sit on their paths before and after
    w = _underflow_at_0()
    x = SeqVector(BILATERAL, {255: 1.0, 100: 0.5j, 511: -2.0, 254: 1 + 1j})
    targets = [SeqVector(BILATERAL, {0: 1.0}), SeqVector(BILATERAL, {-1: 2.0, 200: 0.5}),
               SeqVector(BILATERAL, {-300: 1.0})]
    assert _experiment(w, targets, horizon, x) == _reference(w, targets, horizon, x)


@pytest.mark.parametrize("horizon", [255, 256, 257, 513])
def test_the_scan_matches_the_reference_where_unilateral_entries_pass_index_0(horizon):
    x = SeqVector(UNILATERAL, {255: 1.0, 10: 1j, 256: 0.5, 300: -1e-3})
    targets = [SeqVector(UNILATERAL, {0: 1.0}), SeqVector(UNILATERAL, {0: 1.0, 1: 1.0}),
               SeqVector(UNILATERAL, {45: 1.0})]
    assert _experiment(_UNILATERAL, targets, horizon, x) == _reference(_UNILATERAL, targets, horizon, x)


@pytest.mark.parametrize("p", [Fraction(1), Fraction(3, 2)])
def test_the_scan_matches_the_reference_on_unit_tails_where_no_entry_dies(p):
    rng = random.Random(1000)
    w = _unit_weights(p)
    for _ in range(3):
        x = _random_vector(rng, BILATERAL, -8, 8)
        targets = [_random_vector(rng, BILATERAL, -1000, 8, most=3) for _ in range(3)]
        assert _experiment(w, targets, 1000, x) == _reference(w, targets, 1000, x)


def test_a_stopped_entry_reads_no_later_weight():
    # each distinct block read is one entry of the sequence's float memo, a
    # tail index read at the index of its phase in the first period: the
    # entry at 5 reads the weights at 5 and 4 (both at 4, the right tail's
    # period being 1) and 3, ..., 0, and stops at 0.0; on the unilateral
    # side the entry at 5 reads those at 5, ..., 1 and stops past index 0,
    # whatever the horizon
    w = _underflow_at_0()
    orbit_density_report(w, SeqVector(BILATERAL, {5: 1.0}), canonical_targets(), horizon=600)
    assert w._floats.cache_info().currsize == 5
    w = WeightSequence(p=Fraction(2), side=UNILATERAL, lo=1, hi=3, wp=dict(_UNILATERAL.wp),
                       right_tail=_UNILATERAL.right_tail)
    orbit_density_report(w, SeqVector(UNILATERAL, {5: 1.0}), [SeqVector(UNILATERAL, {0: 1.0})], horizon=600)
    assert w._floats.cache_info().currsize == 5


@pytest.mark.parametrize("j, horizon", [(3, 64), (300, 297), (300, 298), (300, 600)])
def test_the_replay_raises_the_first_error_in_step_order(j, horizon):
    # no left tail: the scan reads the chunk's weights first and meets the
    # missing rule at index -4, the weight of step j + 5, but the step loop
    # stops at step j - 2, where |v|**2 of 10**160 leaves the float range; at
    # j = 300 that is in chunk 1, which alone is replayed, and at horizon 297
    # no step reaches it
    wp = {k: Fraction(1) for k in range(-3, 4)}
    wp[3] = Fraction(10**20)
    w = WeightSequence(p=Fraction(2), side=BILATERAL, lo=-3, hi=3, wp=wp, right_tail=(Fraction(1),))
    x = SeqVector(BILATERAL, {j: 1e150})
    outcome = _experiment(w, canonical_targets(), horizon, x)
    assert outcome == _reference(w, canonical_targets(), horizon, x)
    assert (outcome[0] == "OverflowError") == (horizon >= j - 2)


@pytest.mark.parametrize("horizon", [300, 301, 302])
def test_the_replay_returns_where_only_the_scan_overflows(horizon):
    # at step 301 the entry sits on the target at 0 with 1.5e154, whose
    # square the scan takes and which leaves the float range, but the step
    # loop squares the gap 0.5e154; at step 302 the entry has left the
    # target and the step loop overflows too
    wp = {k: Fraction(1) for k in range(-3, 4)}
    wp[1] = Fraction(9, 4)
    w = WeightSequence(p=Fraction(2), side=BILATERAL, lo=-3, hi=3, wp=wp,
                       left_tail=(Fraction(1),), right_tail=(Fraction(1),))
    x, targets = SeqVector(BILATERAL, {301: 1e154}), [SeqVector(BILATERAL, {0: 1e154})]
    outcome = _experiment(w, targets, horizon, x)
    assert outcome == _reference(w, targets, horizon, x)
    assert (outcome[0] == "OverflowError") == (horizon == 302)


def _scan_only_overflow():
    # weight 3/2 at index 1 and 1/2 at index 0: the entry from 301 at 0.9e154
    # reaches 0 at step 301 as 1.35e154, whose square leaves the float range,
    # and leaves it at 0.675e154; every target has an entry at 0, where the
    # step loop squares only the gaps, and no other square of it overflows
    wp = {k: Fraction(1) for k in range(-3, 4)}
    wp[1], wp[0] = Fraction(9, 4), Fraction(1, 4)
    return WeightSequence(p=Fraction(2), side=BILATERAL, lo=-3, hi=3, wp=wp,
                          left_tail=(Fraction(1),), right_tail=(Fraction(1),))


@pytest.mark.parametrize("horizon", [301, 511, 512, 600, 1000])
def test_the_scan_goes_on_after_a_replayed_chunk(horizon):
    # only the scan overflows, at steps 301 and 600, where the entries from
    # 301 and 600 reach 0: the step loop replays chunks 1 and 2 alone, the
    # second from the entries the first replay left, and the scan goes on
    # with chunk 3; the second target's best, at horizon 1000, is at step
    # 701, where the first entry meets its other entry
    x = SeqVector(BILATERAL, {301: 0.9e154, 600: 0.9e154})
    targets = [SeqVector(BILATERAL, {0: 0.9e154}), SeqVector(BILATERAL, {0: 0.5e154, -400: 1e153})]
    outcome = _experiment(_scan_only_overflow(), targets, horizon, x)
    assert outcome == _reference(_scan_only_overflow(), targets, horizon, x)
    assert outcome[0][0][0] == (301 if horizon < 600 else 600)


def test_a_replayed_chunk_leaves_the_rest_of_the_orbit_to_the_scan(monkeypatch):
    # a million steps past a replay of chunk 1: every distance past step 701
    # repeats one before it, so the hits are those of horizon 1000; the step
    # loop calls _distances once a step, and the scan only where an entry
    # sits on a target's support, so a replay that ran on to the horizon
    # would call it a million times
    x = SeqVector(BILATERAL, {301: 0.9e154})
    targets = [SeqVector(BILATERAL, {0: 0.9e154}), SeqVector(BILATERAL, {0: 0.5e154, -400: 1e153})]
    expected = orbit_density_report(_scan_only_overflow(), x, targets, horizon=1000).hits
    calls, distances = [], hc_lab._distances
    monkeypatch.setattr(hc_lab, "_distances", lambda *args: calls.append(1) or distances(*args))
    assert orbit_density_report(_scan_only_overflow(), x, targets, horizon=10**6).hits == expected
    assert len(calls) <= 2 * hc_lab._CHUNK


def test_the_distance_takes_every_abs_before_a_power():
    # |1e200|**2 overflows, but the target's abs overflows first, as in the
    # reference, which takes every abs before the powers
    w = _unit_weights(Fraction(2))
    x, targets = SeqVector(BILATERAL, {0: 1e200}), [SeqVector(BILATERAL, {5: 1.5e308 + 1.5e308j})]
    outcome = _experiment(w, targets, 64, x)
    assert outcome == _reference(w, targets, 64, x)
    assert outcome == ("OverflowError", "absolute value too large")


def _counted(monkeypatch, name):
    """The calls of hc_lab's binding of name, each recorded as it is made."""
    calls, real = [], getattr(hc_lab, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hc_lab, name, counting)
    return calls


def test_a_late_error_replays_only_its_chunk(monkeypatch):
    # under a left tail of weight 1.001 at p = 2, |v|**2 of the entry from 0
    # leaves the float range near step 355,000; the whole step loop takes
    # over a second on a 2-core VM, the scan up to the error about 0.2 s.
    # The count pins the same without the clock: the step loop's shifts
    # cover the failing chunk and no more
    w = WeightSequence(p=Fraction(2), side=BILATERAL, lo=0, hi=-1, wp={},
                       left_tail=(Fraction(1002001, 1000000),), right_tail=(Fraction(1),))
    shifts = _counted(monkeypatch, "_backward")
    start = time.perf_counter()
    with pytest.raises(OverflowError) as raised:
        orbit_density_report(w, SeqVector(BILATERAL, {0: 1.0}), canonical_targets(), horizon=400_000)
    assert time.perf_counter() - start < 0.5
    assert str(raised.value) == "(34, 'Numerical result out of range')"
    assert 0 < len(shifts) <= hc_lab._CHUNK + 1


def _no_replay(*args):
    raise AssertionError("the step loop ran")


@pytest.mark.parametrize("horizon", [64, 2000])
def test_the_scan_needs_no_replay_on_dyadic(monkeypatch, dyadic, horizon):
    # only the step-by-step replay calls _backward
    w = derive_weights(dyadic)
    x = construct_hc_approx(w, canonical_targets(), eps=1e-2, horizon=64).vector
    expected = _reference(w, canonical_targets(), horizon, x)
    monkeypatch.setattr(hc_lab, "_backward", _no_replay)
    assert _experiment(w, canonical_targets(), horizon, x) == expected


def test_a_million_steps_on_dyadic_stop_with_the_last_live_entry(monkeypatch, dyadic):
    # every entry underflows to 0 within about 1100 steps, after which each
    # step repeats the same distances; the step loop took about 1.7 s on a
    # 2-core VM.  The counts pin the same without the clock: no step loop,
    # and the scan sums 5 of its 3,907 chunks, steps 0 to 1279, once each
    w = derive_weights(dyadic)
    x = construct_hc_approx(w, canonical_targets(), eps=1e-2, horizon=64).vector
    monkeypatch.setattr(hc_lab, "_backward", _no_replay)
    chunks = _counted(monkeypatch, "zip_longest")
    start = time.perf_counter()
    report = orbit_density_report(w, x, canonical_targets(), eps=1e-2, horizon=10**6)
    assert time.perf_counter() - start < 0.2
    assert len(chunks) == 5
    assert report.fraction == 1.0
    assert [(h.best_step, h.best_distance.hex()) for h in report.hits] == [
        (16, "0x1.0002000000000p-15"), (32, "0x1.4000000000000p-14"), (48, "0x1.4000400000000p-14")]
