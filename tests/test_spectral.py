import numpy as np
import pytest

from qozcp.sequences import (
    SequencePair,
    WeightProfile,
    auto_correlation,
    cross_correlation,
    transform_length,
)
from qozcp.spectral import (
    correlations_from_spectra,
    correlations_via_fft,
    cross_correlation_fft,
    fft_to_lag_order,
    forward_spectrum,
    gram_product,
    linearized_correlations,
    weighted_spectra,
)

from oracles import (
    dense_jacobian,
    dense_q,
    gram_product_per_row,
    lag_to_fft_order,
    random_pair,
    weighted_spectra_stacked,
)


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
            assert w[k % (2 * L)] == v[k + L - 1]


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
        mu = weighted_spectra(r[wp.band], c[wp.band], wp)
        fast = gram_product(mu, forward_spectrum(np.stack([x, y]), wp.n_fft), wp)
        Q = dense_q(z, wp)
        dense = (Q + Q.conj().T) @ z
        assert np.max(np.abs(fast - dense)) < 1e-9


@pytest.mark.parametrize("L", [8, 4096])
def test_gram_product_matches_per_row_oracle(L):
    # The product mixes the spectra before one (2, n) inverse transform; the
    # oracle transforms each of the four kernel products apart and mixes
    # after.  They agree to round-off at the zone's short n (4374 for
    # Z = 256) and at the full zone's n = 2L.
    rng = np.random.default_rng(L)
    x, y = random_pair(rng, L)
    r, c = correlations_via_fft(SequencePair(x, y))
    for Z in sorted({min(256, L), L}):
        wp = WeightProfile.indicator(L, Z, 0.5)
        mu = weighted_spectra(r[wp.band], c[wp.band], wp)
        f = forward_spectrum(np.stack([x, y]), wp.n_fft)
        ref = gram_product_per_row(mu, f, wp.alpha, L)
        assert np.max(np.abs(gram_product(mu, f, wp) - ref)) <= 2e-15 * np.max(np.abs(ref))


def test_gram_product_nonindicator_weights():
    # The second profile's support (5) is wider than its zone (3) and
    # shorter than L, so it sets a transform length below 2L.
    rng = np.random.default_rng(42)
    for L, Z, support in ((6, 6, 6), (12, 3, 5)):
        w = np.zeros(L)
        w[1:support] = rng.uniform(0.1, 2.0, size=support - 1)
        wt = np.zeros(L)
        wt[:support] = rng.uniform(0.1, 2.0, size=support)
        wp = WeightProfile(Z=Z, w=w, w_tilde=wt, alpha=0.4)
        assert wp.reach == support
        assert (wp.n_fft < 2 * L) == (support < L)
        x, y = random_pair(rng, L)
        z = np.concatenate([x, y])
        r, c = correlations_via_fft(SequencePair(x, y))
        mu = weighted_spectra(r[wp.band], c[wp.band], wp)
        fast = gram_product(mu, forward_spectrum(np.stack([x, y]), wp.n_fft), wp)
        Q = dense_q(z, wp)
        assert np.max(np.abs(fast - (Q + Q.conj().T) @ z)) < 1e-9


@pytest.mark.parametrize("L, Z", [(8, 8), (12, 3), (64, 30), (64, 10), (4096, 256)])
def test_weighted_spectra_equal_the_stacked_reference(L, Z):
    # The band lags are weighted straight into FFT order; the reference
    # stacks them, reorders the stack and transforms it: the same bits.
    rng = np.random.default_rng(L + Z)
    x, y = random_pair(rng, L)
    r, c = correlations_via_fft(SequencePair(x, y))
    for wp in (WeightProfile.indicator(L, Z, 0.3),
               WeightProfile(Z=Z, w=np.r_[0.0, rng.uniform(0.1, 2.0, L - 1)],
                             w_tilde=rng.uniform(0.1, 2.0, L), alpha=0.6)):
        band_r, band_c = r[wp.band], c[wp.band]
        assert np.array_equal(weighted_spectra(band_r, band_c, wp),
                              weighted_spectra_stacked(band_r, band_c, wp))


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


def _smooth_below(limit: int) -> np.ndarray:
    """below[m] = how many 2^a 3^b numbers are smaller than m, m <= limit."""
    is_smooth = np.zeros(limit + 1, dtype=np.int64)
    for a in range(limit.bit_length()):
        p = 2 ** a
        while p <= limit:
            is_smooth[p] = 1
            p *= 3
    return np.concatenate([[0], np.cumsum(is_smooth)[:-1]])


def _check_transform_length(L: int, ks, below: np.ndarray) -> None:
    for K in ks:
        n = transform_length(L, K)
        need = L + K - 1
        assert need <= n <= 2 * L
        if n == 2 * L:
            # no 2^a 3^b length in [need, 2L - 1) would do
            assert below[2 * L - 1] == below[need]
        else:
            # n is the smallest 2^a 3^b length >= need
            assert below[n + 1] - below[n] == 1 and below[n] == below[need]


def test_transform_length_exhaustive_small():
    below = _smooth_below(1024)
    for L in range(1, 513):
        _check_transform_length(L, range(1, L + 1), below)


def test_transform_length_at_every_step_up_to_4096():
    # For fixed L the answer changes only where L + K - 1 passes a
    # 2^a 3^b number, so K on both sides of each of those, and the ends,
    # cover every answer that the other K give.
    below = _smooth_below(8192)
    smooth = np.flatnonzero(np.diff(below)).tolist()
    for L in range(513, 4097):
        ks = {1, L}
        for m in smooth:
            ks.update(K for K in (m - L, m - L + 1, m - L + 2) if 1 <= K <= L)
        _check_transform_length(L, ks, below)


def test_transform_length_values():
    assert transform_length(4096, 256) == 4374
    assert transform_length(64, 30) == 96
    assert transform_length(64, 10) == 81
    # full zone, and a 2^a 3^b length of exactly 2L - 1: the public 2L
    assert transform_length(8, 8) == 16
    assert transform_length(5, 5) == 10
    for bad in ((8, 0), (8, 9)):
        with pytest.raises(ValueError):
            transform_length(*bad)


def test_forward_spectrum_length_and_lag_orders_at_n():
    rng = np.random.default_rng(4)
    x = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert np.array_equal(forward_spectrum(x, 7), np.fft.fft(x, n=7))
    # a (2K-1)-lag vector at n points: lag k at index k mod n
    v = np.arange(1, 8, dtype=complex)          # lags -3 .. 3
    out = lag_to_fft_order(v, 9)
    assert np.array_equal(out, [4, 5, 6, 7, 0, 0, 1, 2, 3])
    # back to lag order: the lags |k| < K, and nothing else, are read
    assert np.array_equal(fft_to_lag_order(out, 4), v)
    assert np.array_equal(fft_to_lag_order(np.arange(7.0), 3), [5, 6, 0, 1, 2])


@pytest.mark.parametrize("K", [1, 2, 5, 30])
def test_fft_to_lag_order_round_trips_at_n_points(K):
    rng = np.random.default_rng(K)
    for n in sorted({2 * K - 1, 2 * K, 2 * K + 1, transform_length(64, K), 3 * K + 7}):
        v = rng.normal(size=(2, 2 * K - 1)) + 1j * rng.normal(size=(2, 2 * K - 1))
        u = lag_to_fft_order(v, n)
        assert u.shape == (2, n)
        assert np.array_equal(fft_to_lag_order(u, K), v)
        assert np.array_equal(fft_to_lag_order(u[1], K), v[1])


def test_results_survive_later_calls_at_the_same_length():
    # The solver keeps returned spectra, correlations and products across
    # later calls at one transform length, so no call may overwrite them.
    rng = np.random.default_rng(11)
    L = 64
    wp = WeightProfile.indicator(L, 20)
    results = []
    for _ in range(2):
        x, y = random_pair(rng, L)
        f = forward_spectrum(np.stack([x, y]), wp.n_fft)
        r, c = correlations_from_spectra(f, wp.reach)
        q = gram_product(weighted_spectra(r, c, wp), f, wp)
        out = (r, c, q, cross_correlation_fft(x, y), *correlations_via_fft(SequencePair(x, y)))
        results.append((out, [a.copy() for a in out]))
    for out, kept in results:
        for a, b in zip(out, kept):
            assert np.array_equal(a, b)



@pytest.mark.parametrize("L, Z", [(16, 5), (64, 20), (257, 40)])
def test_output_buffers_keep_the_allocating_bits(L, Z):
    # Buffers full of NaN, as a reused buffer holds stale values: every
    # entry of the result must be written, and the bits match a fresh result.
    rng = np.random.default_rng(L)
    wp = WeightProfile.indicator(L, Z)
    K, n = wp.reach, wp.n_fft
    z, dz = (np.concatenate(random_pair(rng, L)).reshape(2, L) for _ in range(2))
    f = forward_spectrum(z, n)
    dirty = lambda *shape: np.full(shape, np.nan, dtype=np.complex128)

    out = dirty(2, n)
    df = forward_spectrum(dz, n, out=out)
    assert df is out and np.array_equal(df, forward_spectrum(dz, n))
    out = dirty(2, n)
    lags = linearized_correlations(f, df, K, out=out)
    assert np.array_equal(lags, linearized_correlations(f, df, K))
    a, b = (rng.normal(size=2 * K - 1) + 1j * rng.normal(size=2 * K - 1) for _ in range(2))
    out = dirty(2, n)
    mu = weighted_spectra(a, b, wp, out=out)
    assert mu is out and np.array_equal(mu, weighted_spectra(a, b, wp))
    out, work = dirty(2 * L), dirty(4, n)
    q = gram_product(mu, f, wp, out=out, work=work)
    assert q is out and np.array_equal(q, gram_product(mu, f, wp))


def _random_profile(rng, L, Z):
    """A non-indicator profile: random weights on the lags below Z, some of them zero."""
    w = rng.uniform(0.0, 2.0, L) * (np.arange(L) < Z) * (rng.random(L) < 0.8)
    wt = rng.uniform(0.0, 2.0, L) * (np.arange(L) < Z)
    w[0] = 0.0
    wt[0] = 1.0
    return WeightProfile(Z=Z, w=w, w_tilde=wt, alpha=float(rng.uniform(0.1, 0.9)))


def _hermitian(rng, K):
    """A lag vector a with a_{-k} = conj(a_k), as every r and dr is."""
    a = rng.normal(size=2 * K - 1) + 1j * rng.normal(size=2 * K - 1)
    return 0.5 * (a + np.conj(a[::-1]))


@pytest.mark.parametrize("L, Z", [(2, 2), (7, 4), (16, 16), (33, 9)])
def test_linearized_correlations_match_the_dense_jacobian(L, Z):
    rng = np.random.default_rng(L)
    wp = WeightProfile.indicator(L, Z)
    K, n = wp.reach, wp.n_fft
    z = np.concatenate(random_pair(rng, L))
    dz = np.concatenate(random_pair(rng, L))
    dr, dc = linearized_correlations(forward_spectrum(z.reshape(2, L), n),
                                     forward_spectrum(dz.reshape(2, L), n), K)
    dense = dense_jacobian(z, K) @ np.concatenate([dz.real, dz.imag])
    assert np.max(np.abs(np.concatenate([dr, dc]) - dense)) < 1e-12 * L * np.max(np.abs(dense))
    # The correlations are quadratic in z, so central differences are exact
    # up to round-off.
    h = 1e-3
    ahead = correlations_from_spectra(forward_spectrum((z + h * dz).reshape(2, L), n), K)
    behind = correlations_from_spectra(forward_spectrum((z - h * dz).reshape(2, L), n), K)
    for got, a, b in zip((dr, dc), ahead, behind):
        assert np.max(np.abs(got - (a - b) / (2.0 * h))) < 1e-9 * L


@pytest.mark.parametrize("mode", ["papr", "unimodular"])
@pytest.mark.parametrize("L, Z", [(8, 5), (64, 20), (257, 40)])
def test_gram_product_is_the_jacobian_adjoint(mode, L, Z):
    # <w, J dz> = <J^T w, dz> in the objective's weighted inner product, with
    # J^T w = gram_product(weighted_spectra(a, b, wp), f, wp).  PAPR unknowns
    # are dz in C^2L; unimodular unknowns are the phases delta, dz = i z delta,
    # whose adjoint is Re(conj(i z) J^T w).
    rng = np.random.default_rng(L + Z)
    for _ in range(3):
        wp = _random_profile(rng, L, Z)
        K, n = wp.reach, wp.n_fft
        z = np.concatenate(random_pair(rng, L))
        if mode == "unimodular":
            z = np.exp(1j * np.angle(z))
            delta = rng.normal(size=2 * L)
            dz = 1j * z * delta
        else:
            dz = np.concatenate(random_pair(rng, L))
        f = forward_spectrum(z.reshape(2, L), n)
        dr, dc = linearized_correlations(f, forward_spectrum(dz.reshape(2, L), n), K)
        a, b = _hermitian(rng, K), rng.normal(size=2 * K - 1) + 1j * rng.normal(size=2 * K - 1)
        full_w, full_wt = wp.symmetric()
        lhs = (wp.alpha * np.vdot(full_w[wp.band] * a, dr).real
               + (1.0 - wp.alpha) * np.vdot(full_wt[wp.band] * b, dc).real)
        adjoint = gram_product(weighted_spectra(a, b, wp), f, wp)
        if mode == "unimodular":
            rhs = float(np.dot((np.conj(1j * z) * adjoint).real, delta))
        else:
            rhs = np.vdot(adjoint, dz).real
        assert rhs == pytest.approx(lhs, rel=1e-10, abs=1e-12 * L * np.abs(a).sum())
