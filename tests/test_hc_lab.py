from fractions import Fraction

import pytest

from shiftlab import (
    BILATERAL,
    SeqVector,
    apply_backward,
    construct_hc_approx,
    derive_weights,
    lp_distance,
    orbit_density_report,
)
from shiftlab.errors import HorizonExhausted


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
