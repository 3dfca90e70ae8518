import numpy as np
import pytest

from qozcp.sequences import (
    SequencePair,
    WeightProfile,
    auto_correlation,
    cross_correlation,
    lag_index,
)
from qozcp.spectral import (
    correlations_via_fft,
    cross_correlation_fft,
    fft_to_lag_order,
    forward_spectrum,
    gram_product,
    lag_to_fft_order,
    weighted_spectra,
)

from oracles import dense_q, gram_product_per_row, random_pair


@pytest.mark.parametrize("L", [2, 3, 8, 16, 64, 127])
def test_fft_cross_correlation_matches_direct(L):
    rng = np.random.default_rng(L)
    x, y = random_pair(rng, L)
    direct = cross_correlation(x, y)
    fast = cross_correlation_fft(x, y)
    assert np.max(np.abs(fast - direct)) < 1e-10 * L


@pytest.mark.parametrize("L", [2, 8, 64])
def test_correlations_via_fft_matches_direct(L):
    rng = np.random.default_rng(100 + L)
    x, y = random_pair(rng, L)
    pair = SequencePair(x, y)
    r, c = correlations_via_fft(pair)
    r_ref = auto_correlation(x) + auto_correlation(y)
    c_ref = cross_correlation(x, y)
    assert np.max(np.abs(r - r_ref)) < 1e-10 * L
    assert np.max(np.abs(c - c_ref)) < 1e-10 * L


def test_lag_order_round_trip():
    rng = np.random.default_rng(7)
    for L in (2, 5, 9):
        v = rng.normal(size=2 * L - 1) + 1j * rng.normal(size=2 * L - 1)
        w = lag_to_fft_order(v)
        assert w[L] == 0.0
        assert np.allclose(fft_to_lag_order(w), v)
        # lag k lands at index k mod 2L
        for k in range(-(L - 1), L):
            assert w[k % (2 * L)] == v[lag_index(k, L)]


def test_forward_spectrum_zero_pads():
    x = np.array([1.0, -1.0, 1.0])
    f = forward_spectrum(x)
    assert f.size == 6
    assert np.allclose(f, np.fft.fft(np.concatenate([x, np.zeros(3)])))
    # stacked rows: each row is exactly its own 1-D transform
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    f2 = forward_spectrum(rows)
    assert f2.shape == (2, 10)
    for row, f_row in zip(rows, f2):
        assert np.array_equal(f_row, forward_spectrum(row))


def test_forward_spectrum_rejects_non_finite_rows():
    rows = np.ones((2, 4), dtype=complex)
    rows[1, 2] = np.nan
    with pytest.raises(ValueError):
        forward_spectrum(rows)
    with pytest.raises(ValueError):
        forward_spectrum(rows[1])


@pytest.mark.parametrize("L", [3, 4, 8])
@pytest.mark.parametrize("alpha", [0.5, 0.3])
def test_gram_product_matches_dense(L, alpha):
    rng = np.random.default_rng(10 * L)
    wp = WeightProfile.indicator(L, min(3, L), alpha)
    for _ in range(5):
        x, y = random_pair(rng, L)
        z = np.concatenate([x, y])
        r, c = correlations_via_fft(SequencePair(x, y))
        mu = weighted_spectra(r, c, wp)
        fast = gram_product(mu, forward_spectrum(np.stack([x, y])), alpha)
        Q = dense_q(z, wp)
        dense = (Q + Q.conj().T) @ z
        assert np.max(np.abs(fast - dense)) < 1e-9


@pytest.mark.parametrize("L", [8, 4096])
def test_gram_product_bits_match_per_row_oracle(L):
    # At L = 4096 the stacked kernels form a 256 KiB temporary, the size at
    # which numpy starts evaluating operators in place in a temporary operand.
    rng = np.random.default_rng(L)
    x, y = random_pair(rng, L)
    wp = WeightProfile.indicator(L, min(256, L), 0.5)
    r, c = correlations_via_fft(SequencePair(x, y))
    mu = weighted_spectra(r, c, wp)
    f = forward_spectrum(np.stack([x, y]))
    assert np.array_equal(gram_product(mu, f, wp.alpha), gram_product_per_row(mu, f, wp.alpha))


def test_gram_product_nonindicator_weights():
    L = 6
    rng = np.random.default_rng(42)
    w = np.concatenate([[0.0], rng.uniform(0.1, 2.0, size=L - 1)])
    wt = rng.uniform(0.1, 2.0, size=L)
    wp = WeightProfile(Z=L, w=w, w_tilde=wt, alpha=0.4)
    x, y = random_pair(rng, L)
    z = np.concatenate([x, y])
    r, c = correlations_via_fft(SequencePair(x, y))
    mu = weighted_spectra(r, c, wp)
    fast = gram_product(mu, forward_spectrum(np.stack([x, y])), wp.alpha)
    Q = dense_q(z, wp)
    assert np.max(np.abs(fast - (Q + Q.conj().T) @ z)) < 1e-9


def test_quadratic_form_reproduces_objective_terms():
    # z^H Q z equals the weighted sum of squared lag magnitudes.
    L = 5
    rng = np.random.default_rng(9)
    wp = WeightProfile.indicator(L, 4, 0.5)
    x, y = random_pair(rng, L)
    z = np.concatenate([x, y])
    Q = dense_q(z, wp)
    quad = float(np.vdot(z, Q @ z).real)
    full_w, full_wt = wp.symmetric()
    r = auto_correlation(x) + auto_correlation(y)
    c = cross_correlation(x, y)
    ref = wp.alpha * np.sum(full_w * np.abs(r) ** 2)
    ref += (1.0 - wp.alpha) * np.sum(full_wt * np.abs(c) ** 2)
    assert quad == pytest.approx(ref, rel=1e-12)
