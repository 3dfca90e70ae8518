"""Fourier engine for correlations and the fast matrix-vector product.

The public correlation paths (:func:`correlations_via_fft`,
:func:`cross_correlation_fft`) work on zero-padded length-2L transforms, which
hold every lag without aliasing.  The solver needs only the lags inside its
weighted zone, |k| < K, and transforms at the shorter length n of
:func:`~qozcp.sequences.transform_length`: a circular correlation of length
n >= L + K - 1 holds every lag |k| <= n - L exactly.  The forward transform
is unnormalized, the inverse carries the 1/n factor (numpy's convention),
which matches the explicit scalars in the fast product below.

Every transform and reordering acts on the last axis, so the solver keeps
the two sequences of a pair as the rows of one array: the padded spectra of
(x, y) are a (2, n) array ``f``, and the weighted spectra that feed
:func:`gram_product` are a (2, n) array ``mu``.  Each stage is then one
numpy call for both rows.

The (2, n) and (4, n) intermediates of the correlation and product stages
live in scratch arrays kept per thread between calls (:func:`_scratch`): a
loop that calls them at one length allocates none of them after its first
call, so the process heap does not grow and shrink by their size on every
solver step (which cost hundreds of page faults per step at L = 4096).  The
arrays of the last length used stay allocated; nothing these functions
return is a view of one.

Lag vectors hold the lags |k| < K in increasing order: K = L on the public
paths and the profile's reach in the solver.  FFT index order puts lag k at
index k mod n; at n = 2L it is [v_0, ..., v_{L-1}, 0, v_{1-L}, ..., v_{-1}].
"""

import threading

import numpy as np

from .sequences import SequencePair, WeightProfile, as_sequence

__all__ = [
    "forward_spectrum",
    "correlations_via_fft",
    "correlations_from_spectra",
    "weighted_spectra",
    "gram_product",
    "lag_to_fft_order",
    "fft_to_lag_order",
]


_SCRATCH = threading.local()
# numpy 2.0 gave the transforms an ``out`` argument; before it they write a
# new array, which _in_place copies back.
_FFT_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


def _scratch(role: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
    """Uninitialized array for one intermediate, reused while its shape holds.

    Each ``role`` keeps one array per thread; a call with another shape
    replaces it.
    """
    buf = getattr(_SCRATCH, role, None)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = np.empty(shape, dtype=dtype)
        setattr(_SCRATCH, role, buf)
    return buf


def _in_place(transform, a: np.ndarray) -> np.ndarray:
    """``transform(a)`` along the last axis (np.fft.fft or ifft), written over ``a``."""
    if _FFT_OUT:
        return transform(a, out=a)
    a[...] = transform(a)
    return a


def forward_spectrum(x, n: int | None = None) -> np.ndarray:
    """n-point DFT of the zero-padded rows [x, 0] along the last axis.

    ``n`` defaults to 2L.  A 1-D ``x`` is validated as a sequence; stacked
    rows of shape (..., L) are checked for finite entries.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim <= 1:
        x = as_sequence(x)
    elif not np.all(np.isfinite(x)):
        raise ValueError("sequence entries must be finite")
    return np.fft.fft(x, n=2 * x.shape[-1] if n is None else n)


def lag_to_fft_order(v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Place lag vectors (k = -(K-1)..K-1) at index k mod n, zeros elsewhere.

    ``n`` defaults to 2K and must be at least 2K - 1.
    """
    K = (v.shape[-1] + 1) // 2
    if n is None:
        n = 2 * K
    out = np.zeros(v.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :K] = v[..., K - 1:]              # k = 0 .. K-1
    out[..., n - K + 1:] = v[..., :K - 1]      # k = 1-K .. -1
    return out


def fft_to_lag_order(v: np.ndarray, K: int | None = None) -> np.ndarray:
    """Lag vectors (k = -(K-1)..K-1) read from n-point FFT-order vectors.

    Lag k is read at index k mod n, so ``n`` must be at least 2K - 1.  ``K``
    defaults to n // 2, which makes this the inverse of
    :func:`lag_to_fft_order` and drops the zero padding slot.
    """
    n = v.shape[-1]
    if K is None:
        K = n // 2
    return np.concatenate([v[..., n - K + 1:], v[..., :K]], axis=-1)


def _rev(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Circular index reversal along the last axis, out[j] = a[-j mod n]."""
    out[..., :1] = a[..., :1]
    out[..., 1:] = a[..., :0:-1]
    return out


def _lag_correlation(product: np.ndarray, K: int | None = None) -> np.ndarray:
    """Lag-order correlations from spectral products conj(F a) . F b (last axis).

    ifft(conj(F a) . F b)[m] = sum_l b[l+m] a*[l] = conj(C_ab(m)); the
    conjugate restores the direct-sum oracle's convention.  ``K`` is as in
    :func:`fft_to_lag_order`.  ``product`` is transformed in place.
    """
    _in_place(np.fft.ifft, product)
    return fft_to_lag_order(np.conjugate(product, out=product), K)


def cross_correlation_fft(a, b) -> np.ndarray:
    """Aperiodic cross-correlation of two length-L sequences via 2L-point FFTs.

    Same lag-order layout and convention as the direct-sum oracle.
    """
    fa = forward_spectrum(a)
    product = _scratch("products", fa.shape)
    np.conjugate(fa, out=product)
    return _lag_correlation(np.multiply(product, forward_spectrum(b), out=product))


def correlations_via_fft(pair: SequencePair) -> tuple[np.ndarray, np.ndarray]:
    """Complementary sum and cross-correlation lag vectors via 2L-point FFTs.

    Returns ``(r, c)`` in lag order, where r_k = C_x(k) + C_y(k) and
    c_k = C_xy(k), matching the direct-sum oracle in :mod:`qozcp.sequences`.
    """
    return correlations_from_spectra(forward_spectrum(np.stack([pair.x, pair.y])), pair.length)


def correlations_from_spectra(f: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Lags |k| < K of ``(r, c)`` from the (2, n) padded transforms of x and y.

    Callers that keep the spectra for :func:`gram_product` compute them once
    with :func:`forward_spectrum` and pass them here.  Both correlations come
    from one inverse transform of the two stacked products.  For length-L
    rows they are exact when n >= L + K - 1, as at n = 2L for every K <= L.
    """
    power = _scratch("power", f.shape, np.float64)
    np.square(np.abs(f, out=power), out=power)
    product = _scratch("products", f.shape)
    np.add(power[0], power[1], out=product[0])
    np.multiply(np.conjugate(f[0], out=product[1]), f[1], out=product[1])
    return tuple(_lag_correlation(product, K))


def weighted_spectra(r: np.ndarray, c: np.ndarray, wp: WeightProfile) -> np.ndarray:
    """DFTs ``mu`` (2, n) of t_r = w .* r and t_c = wt .* c in FFT order.

    ``r`` and ``c`` hold the lags |k| < ``wp.reach``, as
    :func:`correlations_from_spectra` returns them for K = ``wp.reach``;
    ``mu[0]`` is the spectrum of t_r and ``mu[1]`` that of t_c.  The
    transform length is the profile's ``n_fft``.
    """
    full_w, full_wt = wp.symmetric()
    band = wp.band
    mu = lag_to_fft_order(np.stack([full_w[band] * r, full_wt[band] * c]), wp.n_fft)
    return _in_place(np.fft.fft, mu)


def gram_product(mu: np.ndarray, f: np.ndarray, wp: WeightProfile) -> np.ndarray:
    """Apply (Q + Q^H) to the stacked length-2L iterate z in O(L log L).

    ``mu`` is the (2, n) output of :func:`weighted_spectra` for z and the
    profile ``wp``, ``f`` the (2, n) padded transforms of its rows x and y
    (z enters only through them); ``wp`` also supplies the mix ``alpha`` and
    the length L.  The product of any banded-Toeplitz block with a vector is
    a circular correlation, evaluated here as ifft(f_v . rev(mu)); with the
    band |k| < K it is exact for n >= L + K - 1.  The alpha mix is applied to
    the spectra, so one (2, n) inverse transform yields both output rows.
    The test-only dense construction of Q pins every sign and conjugation.
    """
    # Rows 0-1 hold the kernels (mu_r_rev, nu_c) = rev(mu), scaled by the
    # mix; rows 2-3 the cross products f_y nu_c and f_x conj(nu_c).  Each
    # output row is its autocorrelation product plus its cross product:
    # 2 alpha f rev(mu_r) + (1 - alpha) [f_y nu_c, f_x conj(nu_c)].
    # Diagonal blocks of Q and Q^H coincide, hence the factor 2 on the
    # autocorrelation kernel.
    rows = _scratch("kernels", (4, f.shape[-1]))
    kernels, cross = rows[:2], rows[2:]
    _rev(mu, out=kernels)
    np.multiply(kernels, [[2.0 * wp.alpha], [1.0 - wp.alpha]], out=kernels)
    np.multiply(f[1], kernels[1], out=cross[0])
    np.conjugate(kernels[1], out=cross[1])
    np.multiply(f[0], cross[1], out=cross[1])
    np.multiply(f[1], kernels[0], out=kernels[1])
    np.multiply(f[0], kernels[0], out=kernels[0])
    corr = _in_place(np.fft.ifft, np.add(kernels, cross, out=kernels))
    return corr[:, :wp.L].flatten()
