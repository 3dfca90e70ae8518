"""2L-point Fourier engine for correlations and the fast matrix-vector product.

All correlation identities work on zero-padded length-2L transforms.  The
forward transform is unnormalized, the inverse carries the 1/(2L) factor
(numpy's convention), which matches the explicit 1/(2L) scalars in the fast
product below.

Every transform and reordering acts on the last axis, so the solver keeps
the two sequences of a pair as the rows of one array: the padded spectra of
(x, y) are a (2, 2L) array ``f``, and the weighted spectra that feed
:func:`gram_product` are a (2, 2L) array ``mu``.  Each stage is then one
numpy call for both rows.

FFT index order for lag vectors is [v_0, v_1, ..., v_{L-1}, 0, v_{1-L}, ...,
v_{-1}]: lag k sits at index k mod 2L and the padding slot L is structurally
zero.
"""

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


def forward_spectrum(x) -> np.ndarray:
    """2L-point DFT of the zero-padded rows [x, 0_L] along the last axis.

    A 1-D ``x`` is validated as a sequence; stacked rows of shape (..., L)
    are checked for finite entries.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim <= 1:
        x = as_sequence(x)
    elif not np.all(np.isfinite(x)):
        raise ValueError("sequence entries must be finite")
    return np.fft.fft(x, n=2 * x.shape[-1])


def lag_to_fft_order(v: np.ndarray) -> np.ndarray:
    """Reorder 2L-1 lag vectors (k = -(L-1)..L-1) into FFT index order."""
    L = (v.shape[-1] + 1) // 2
    out = np.zeros(v.shape[:-1] + (2 * L,), dtype=np.complex128)
    out[..., :L] = v[..., L - 1:]          # k = 0 .. L-1
    out[..., L + 1:] = v[..., : L - 1]     # k = 1-L .. -1
    return out


def fft_to_lag_order(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`lag_to_fft_order`; drops the zero padding slot."""
    L = v.shape[-1] // 2
    return np.concatenate([v[..., L + 1:], v[..., :L]], axis=-1)


def _rev(a: np.ndarray) -> np.ndarray:
    """Circular index reversal along the last axis, rev(a)[j] = a[-j mod n]."""
    return np.roll(a[..., ::-1], 1, axis=-1)


def _lag_correlation(product: np.ndarray) -> np.ndarray:
    """Lag-order correlations from spectral products conj(F a) . F b (last axis).

    ifft(conj(F a) . F b)[m] = sum_l b[l+m] a*[l] = conj(C_ab(m)); the
    conjugate restores the direct-sum oracle's convention.
    """
    return fft_to_lag_order(np.conj(np.fft.ifft(product)))


def cross_correlation_fft(a, b) -> np.ndarray:
    """Aperiodic cross-correlation of two length-L sequences via 2L-point FFTs.

    Same lag-order layout and convention as the direct-sum oracle.
    """
    return _lag_correlation(np.conj(forward_spectrum(a)) * forward_spectrum(b))


def correlations_via_fft(pair: SequencePair) -> tuple[np.ndarray, np.ndarray]:
    """Complementary sum and cross-correlation lag vectors via 2L-point FFTs.

    Returns ``(r, c)`` in lag order, where r_k = C_x(k) + C_y(k) and
    c_k = C_xy(k), matching the direct-sum oracle in :mod:`qozcp.sequences`.
    """
    return correlations_from_spectra(forward_spectrum(np.stack([pair.x, pair.y])))


def correlations_from_spectra(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag-order ``(r, c)`` from the (2, 2L) padded transforms of x and y.

    Callers that keep the spectra for :func:`gram_product` compute them once
    with :func:`forward_spectrum` and pass them here.  Both correlations come
    from one inverse transform of the two stacked products.
    """
    power = np.abs(f) ** 2
    return tuple(_lag_correlation(np.stack([power[0] + power[1], np.conj(f[0]) * f[1]])))


def weighted_spectra(r: np.ndarray, c: np.ndarray, wp: WeightProfile) -> np.ndarray:
    """DFTs ``mu`` (2, 2L) of t_r = w .* r and t_c = wt .* c in FFT order.

    ``r`` and ``c`` are lag-order vectors as returned by
    :func:`correlations_via_fft`; ``mu[0]`` is the spectrum of t_r and
    ``mu[1]`` that of t_c.
    """
    full_w, full_wt = wp.symmetric()
    return np.fft.fft(lag_to_fft_order(np.stack([full_w * r, full_wt * c])))


def gram_product(mu: np.ndarray, f: np.ndarray, alpha: float) -> np.ndarray:
    """Apply (Q + Q^H) to the stacked iterate z in O(L log L).

    ``mu`` is the (2, 2L) output of :func:`weighted_spectra` for z, ``f`` the
    (2, 2L) padded transforms of its rows x and y (z enters only through
    them) and ``alpha`` the weight profile's mix.  The product of any
    banded-Toeplitz block with a vector is a circular correlation, evaluated
    here as ifft(f_v . rev(mu)); the four kernel products go through one
    inverse transform.  The test-only dense construction of Q pins every sign
    and conjugation.
    """
    L = f.shape[-1] // 2
    # Diagonal blocks of Q and Q^H coincide, hence the factor 2 on the
    # autocorrelation kernel.
    mu_r_rev, nu_c = _rev(mu)
    # Rows: (x, mu_r_rev), (y, mu_r_rev), (y, nu_c), (x, conj(nu_c)).  The
    # ufunc call keeps the operand order: for a large temporary right operand
    # the `*` operator may compute kernel * f in place, which rounds
    # differently from f * kernel.
    corr = np.fft.ifft(np.concatenate([
        f * mu_r_rev,
        np.multiply(f[::-1], np.stack([nu_c, np.conj(nu_c)])),
    ]))[:, :L]
    return (2.0 * alpha * corr[:2] + (1.0 - alpha) * corr[2:]).ravel()
