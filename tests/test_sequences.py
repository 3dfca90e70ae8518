import numpy as np
import pytest

from qozcp.sequences import (
    SequencePair,
    WeightProfile,
    auto_correlation,
    check_zone,
    complementary_sum,
    cross_correlation,
    objective,
    objective_from_correlations,
    papr,
    reverse_conjugate,
    zone_maxima,
)
from qozcp.waveform import golay_pair

from oracles import cross_correlation_per_lag, random_pair


def test_cross_correlation_two_term():
    out = cross_correlation([1, 1], [1, -1])
    assert np.allclose(out, [1, 0, -1])


def test_cross_correlation_all_ones():
    out = cross_correlation([1, 1], [1, 1])
    assert np.allclose(out, [1, 2, 1])


def _test_input(kind, rng, L):
    if kind == "gaussian":
        return rng.normal(size=L) + 1j * rng.normal(size=L)
    if kind == "unit-modulus-1e150":
        return np.exp(2j * np.pi * rng.random(L)) * 1e150
    return rng.integers(-3, 4, size=L) + 1j * rng.integers(-3, 4, size=L)


@pytest.mark.parametrize("kind", ["gaussian", "unit-modulus-1e150", "small-integer"])
@pytest.mark.parametrize("L", [2, 3, 8, 64, 257, 4096])
def test_cross_correlation_matches_per_lag_sum_exactly(L, kind):
    rng = np.random.default_rng(L)
    x, y = _test_input(kind, rng, L), _test_input(kind, rng, L)
    assert np.array_equal(cross_correlation(x, y), cross_correlation_per_lag(x, y))


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
    with pytest.raises(ValueError, match="zero-energy"):
        papr([0, 0, 0])


@pytest.mark.parametrize("x, expected", [
    ([1e200, 1e200], 1.0),              # the squares overflow
    ([1e-200, 1e-200], 1.0),            # the squares underflow to 0
    ([1e-170, 2e-170, 0, 0], 3.2),      # 4 / (1/4 + 1)
    ([1e-170, 0, 0, 0], 4.0),
])
def test_papr_at_both_ends_of_the_float_range(x, expected):
    assert papr(x) == expected


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


def test_objective_of_a_finite_pair_is_never_nan():
    # |C(k)|^2 overflows at zero-weight lags; their terms are 0, not 0 * inf
    g = golay_pair(16)
    big = SequencePair(1e150 * g.x, 1e150 * g.y)
    x = [1e160, 0, 0, 0]
    lag_one = WeightProfile(Z=2, w=[0, 1, 0, 0], w_tilde=[0, 1, 0, 0])
    with np.errstate(over="ignore"):
        # an in-zone cross lag overflows too, so inf is the honest value
        assert objective(big, WeightProfile.indicator(16, 8)) == np.inf
        # only the zero-weight lag 0 overflows
        assert objective(SequencePair(x, x), lag_one) == 0.0


def test_objective_rejects_profile_of_another_length():
    with pytest.raises(ValueError, match="does not match"):
        objective(golay_pair(8), WeightProfile.indicator(16, 4))


def test_weight_profile_validation():
    with pytest.raises(ValueError):
        WeightProfile(Z=2, w=[1.0, 1.0], w_tilde=[1.0, 1.0])  # w[0] != 0
    with pytest.raises(ValueError):
        WeightProfile(Z=2, w=[0.0, -1.0], w_tilde=[1.0, 1.0])
    with pytest.raises(ValueError):
        WeightProfile(Z=2, w=[0.0, 0.0], w_tilde=[0.0, 0.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        WeightProfile(Z=2, w=[[0.0, 1.0]], w_tilde=[1.0, 1.0])
    with pytest.raises(ValueError, match="equal length"):
        WeightProfile(Z=2, w=[0.0, 1.0], w_tilde=[1.0, 1.0, 0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            WeightProfile(Z=2, w=[0.0, 1.0, bad], w_tilde=[1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            WeightProfile(Z=2, w=[0.0, 1.0, 0.0], w_tilde=[1.0, bad, 0.0])


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


def test_objective_from_band_matches_full_vectors():
    # The band |k| < reach holds every weighted lag; only the summation order
    # differs from the full 2L - 1 vectors, and not at all for a full zone.
    rng = np.random.default_rng(9)
    wide = np.zeros(20)
    wide[1:7] = rng.uniform(0.1, 2.0, size=6)
    profiles = [WeightProfile.indicator(L, Z, 0.3) for L, Z in ((10, 4), (64, 10), (257, 40))]
    profiles += [WeightProfile(Z=3, w=wide, w_tilde=np.roll(wide, -1), alpha=0.6)]
    full_zone = [WeightProfile.indicator(L, L) for L in (5, 32)]
    for wp in profiles + full_zone:
        for _ in range(5):
            pair = SequencePair(*random_pair(rng, wp.L))
            r = complementary_sum(pair)
            c = cross_correlation(pair.x, pair.y)
            full = objective_from_correlations(r, c, wp)
            band = objective_from_correlations(r[wp.band], c[wp.band], wp)
            if wp.reach == wp.L:
                assert band == full
            else:
                assert band == pytest.approx(full, rel=1e-14, abs=0.0)


def test_sequence_pair_validation():
    with pytest.raises(ValueError):
        SequencePair([1, 1, 1], [1, 1])
    with pytest.raises(ValueError):
        SequencePair([1, np.nan], [1, 1])
    with pytest.raises(ValueError):
        SequencePair([1], [1])
    with pytest.raises(ValueError, match="one-dimensional"):
        SequencePair([[1, 1], [1, 1]], [1, 1])


def test_check_zone_accepts_exactly_1_lt_z_le_l():
    for L in (2, 3, 16):
        for Z in range(2, L + 1):
            check_zone(Z, L)
        for Z in (-1, 0, 1, L + 1):
            with pytest.raises(ValueError, match=f"1 < Z <= L, got Z={Z}, L={L}"):
                check_zone(Z, L)


@pytest.mark.parametrize("Z", [2, 3, 30])
def test_zone_maxima_match_masked_maxima(Z):
    rng = np.random.default_rng(Z)
    lags = np.arange(1 - Z, Z)
    for _ in range(5):
        r, c = rng.normal(size=(2, 2 * Z - 1)) + 1j * rng.normal(size=(2, 2 * Z - 1))
        r[Z - 1] = 1e9      # the zero-lag peak is never a sidelobe
        r_before, c_before = r.copy(), c.copy()
        side, cross = zone_maxima(r, c)
        assert side == np.max(np.abs(r[lags != 0]))
        assert cross == np.max(np.abs(c))
        assert type(side) is float and type(cross) is float
        assert np.array_equal(r, r_before) and np.array_equal(c, c_before)
    # A NaN at a sidelobe or in c reaches the maxima; one at the peak does not.
    r = np.ones(2 * Z - 1, dtype=complex)
    r[0] = np.nan
    assert np.isnan(zone_maxima(r, np.ones(2 * Z - 1))[0])
    assert np.isnan(zone_maxima(np.ones(2 * Z - 1), r)[1])
    r = np.ones(2 * Z - 1, dtype=complex)
    r[Z - 1] = np.nan
    assert zone_maxima(r, np.ones(2 * Z - 1)) == (1.0, 1.0)
