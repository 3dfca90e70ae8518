import numpy as np
import pytest

from qozcp.sequences import (
    SequencePair,
    WeightProfile,
    auto_correlation,
    complementary_sum,
    cross_correlation,
    objective,
    papr,
    reverse_conjugate,
)
from qozcp.waveform import golay_pair

from oracles import random_pair


def test_cross_correlation_two_term():
    out = cross_correlation([1, 1], [1, -1])
    assert np.allclose(out, [1, 0, -1])


def test_cross_correlation_all_ones():
    out = cross_correlation([1, 1], [1, 1])
    assert np.allclose(out, [1, 2, 1])


def test_cross_correlation_length_mismatch():
    with pytest.raises(ValueError):
        cross_correlation([1, 1], [1, 1, 1])


def test_auto_correlation_triangle():
    assert np.allclose(auto_correlation([1, 1, 1]), [1, 2, 3, 2, 1])


def test_auto_correlation_zero_lag_is_energy():
    rng = np.random.default_rng(1)
    x, _ = random_pair(rng, 17)
    acf = auto_correlation(x)
    assert acf[16] == pytest.approx(np.sum(np.abs(x) ** 2))
    assert np.argmax(np.abs(acf)) == 16
    assert abs(acf[16].imag) < 1e-12


def test_auto_correlation_hermitian_symmetry():
    rng = np.random.default_rng(2)
    x, _ = random_pair(rng, 9)
    acf = auto_correlation(x)
    assert np.allclose(acf, np.conj(acf[::-1]), atol=1e-12)


def test_cross_correlation_reflection_identity():
    # C_yx(-k) == conj(C_xy(k)) lag-wise
    rng = np.random.default_rng(3)
    x, y = random_pair(rng, 12)
    cxy = cross_correlation(x, y)
    cyx = cross_correlation(y, x)
    assert np.max(np.abs(cyx[::-1] - np.conj(cxy))) < 1e-12


def test_complementary_sum_golay_small():
    pair = SequencePair([1, 1], [1, -1])
    assert np.allclose(complementary_sum(pair), [0, 4, 0])


def test_complementary_sum_golay_64():
    pair = golay_pair(64)
    s = complementary_sum(pair)
    assert abs(s[63] - 128) < 1e-12
    off = np.delete(s, 63)
    assert np.max(np.abs(off)) <= 1e-12


def test_reverse_conjugate_basic():
    assert np.allclose(reverse_conjugate([1, 1j]), [-1j, 1])


def test_reverse_conjugate_involution():
    rng = np.random.default_rng(4)
    x, _ = random_pair(rng, 8)
    assert np.allclose(reverse_conjugate(reverse_conjugate(x)), x)


def test_reverse_conjugate_preserves_autocorrelation():
    rng = np.random.default_rng(5)
    x, _ = random_pair(rng, 16)
    assert np.allclose(auto_correlation(reverse_conjugate(x)), auto_correlation(x))


def test_papr_unimodular_is_one():
    phases = np.exp(1j * np.linspace(0, 5, 64))
    assert papr(phases) == pytest.approx(1.0)


def test_papr_spike():
    assert papr([2, 0, 0, 0]) == pytest.approx(4.0)


def test_papr_zero_energy_rejected():
    with pytest.raises(ValueError):
        papr([0, 0, 0])


def test_objective_golay_hand_value():
    pair = SequencePair([1, 1], [1, -1])
    wp = WeightProfile(Z=2, w=[0.0, 1.0], w_tilde=[1.0, 1.0], alpha=0.5)
    # complementary half vanishes; cross lags are (1, 0, -1)
    assert objective(pair, wp) == pytest.approx(1.0)


def test_objective_orthogonal_cross_only():
    pair = SequencePair([1, 0, 0, 0], [0, 1, 0, 0])
    wp = WeightProfile(Z=2, w=[0, 0, 0, 0], w_tilde=[1, 0, 0, 0], alpha=0.5)
    # only w~_0 is active and x is orthogonal to y
    assert objective(pair, wp) == pytest.approx(0.0, abs=1e-15)


def test_objective_nonnegative_and_phase_invariant():
    rng = np.random.default_rng(6)
    wp = WeightProfile.indicator(10, 4)
    for _ in range(20):
        x, y = random_pair(rng, 10)
        pair = SequencePair(x, y)
        val = objective(pair, wp)
        assert val >= 0.0
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = SequencePair(phase * x, phase * y)
        assert objective(rotated, wp) == pytest.approx(val, rel=1e-10)


def test_weight_profile_validation():
    with pytest.raises(ValueError):
        WeightProfile(Z=2, w=[1.0, 1.0], w_tilde=[1.0, 1.0])  # w[0] != 0
    with pytest.raises(ValueError):
        WeightProfile(Z=2, w=[0.0, -1.0], w_tilde=[1.0, 1.0])
    with pytest.raises(ValueError):
        WeightProfile(Z=2, w=[0.0, 0.0], w_tilde=[0.0, 0.0])


def test_weight_profile_symmetric_is_built_once_and_read_only():
    w = np.array([0.0, 2.0, 1.0, 0.0])
    wp = WeightProfile(Z=2, w=w, w_tilde=[1.0, 0.5, 0.0, 0.0])
    full_w, full_wt = wp.symmetric()
    assert all(a is b for a, b in zip(wp.symmetric(), (full_w, full_wt)))
    assert np.array_equal(full_w, [0, 1, 2, 0, 2, 1, 0])
    assert np.array_equal(full_wt, [0, 0, 0.5, 1, 0.5, 0, 0])
    for arr in (full_w, full_wt, wp.w, wp.w_tilde):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # the caller's array is copied, not frozen
    w[1] = 5.0
    assert wp.w[1] == 2.0
    # lag 2 carries weight beyond the zone, so the plan covers |k| < 3
    assert wp.reach == 3 and wp.band == slice(1, 6)


def _objective_concatenating_weights(pair, wp):
    """objective() with the even weight extension rebuilt on every call."""
    full_w = np.concatenate([wp.w[:0:-1], wp.w])
    full_wt = np.concatenate([wp.w_tilde[:0:-1], wp.w_tilde])
    r = complementary_sum(pair)
    c = cross_correlation(pair.x, pair.y)
    auto_term = float(np.sum(full_w * np.abs(r) ** 2))
    cross_term = float(np.sum(full_wt * np.abs(c) ** 2))
    return wp.alpha * auto_term + (1.0 - wp.alpha) * cross_term


def test_objective_bits_with_cached_weights():
    rng = np.random.default_rng(6)
    cases = [
        (SequencePair([1, 1], [1, -1]), WeightProfile(Z=2, w=[0.0, 1.0], w_tilde=[1.0, 1.0])),
        (SequencePair([1, 0, 0, 0], [0, 1, 0, 0]),
         WeightProfile(Z=2, w=[0, 0, 0, 0], w_tilde=[1, 0, 0, 0])),
    ]
    wp = WeightProfile.indicator(10, 4)
    cases += [(SequencePair(*random_pair(rng, 10)), wp) for _ in range(20)]
    for pair, wp in cases:
        assert objective(pair, wp) == _objective_concatenating_weights(pair, wp)


def test_sequence_pair_validation():
    with pytest.raises(ValueError):
        SequencePair([1, 1, 1], [1, 1])
    with pytest.raises(ValueError):
        SequencePair([1, np.nan], [1, 1])
    with pytest.raises(ValueError):
        SequencePair([1], [1])
