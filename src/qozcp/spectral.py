"""2L-point Fourier engine for correlations and the fast matrix-vector product.

All correlation identities work on zero-padded length-2L transforms.  The
forward transform is unnormalized, the inverse carries the 1/(2L) factor
(numpy's convention), which matches the explicit 1/(2L) scalars in the fast
product below.

FFT index order for lag vectors is [v_0, v_1, ..., v_{L-1}, 0, v_{1-L}, ...,
v_{-1}]: lag k sits at index k mod 2L and the padding slot L is structurally
zero.
"""

from dataclasses import dataclass

import numpy as np

from .sequences import SequencePair, WeightProfile, as_sequence

__all__ = [
    "forward_spectrum",
    "correlations_via_fft",
    "correlations_from_spectra",
    "WeightedSpectra",
    "weighted_spectra",
    "gram_product",
    "lag_to_fft_order",
    "fft_to_lag_order",
]


def forward_spectrum(x) -> np.ndarray:
    """2L-point DFT of the zero-padded sequence [x, 0_L]."""
    x = as_sequence(x)
    return np.fft.fft(x, n=2 * x.size)


def lag_to_fft_order(v: np.ndarray) -> np.ndarray:
    """Reorder a 2L-1 lag vector (k = -(L-1)..L-1) into FFT index order."""
    L = (v.size + 1) // 2
    out = np.zeros(2 * L, dtype=np.complex128)
    out[:L] = v[L - 1:]          # k = 0 .. L-1
    out[L + 1:] = v[: L - 1]     # k = 1-L .. -1
    return out


def fft_to_lag_order(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`lag_to_fft_order`; drops the zero padding slot."""
    L = v.size // 2
    return np.concatenate([v[L + 1:], v[:L]])


def _rev(a: np.ndarray) -> np.ndarray:
    """Circular index reversal, rev(a)[j] = a[-j mod n]."""
    return np.roll(a[::-1], 1)


def _lag_correlation(product: np.ndarray) -> np.ndarray:
    """Lag-order correlation from a spectral product conj(F a) . F b.

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
    return correlations_from_spectra(forward_spectrum(pair.x), forward_spectrum(pair.y))


def correlations_from_spectra(f_x: np.ndarray,
                              f_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag-order ``(r, c)`` from the padded transforms of x and y.

    Callers that keep the spectra for :func:`gram_product` compute them once
    with :func:`forward_spectrum` and pass them here.
    """
    return (_lag_correlation(np.abs(f_x) ** 2 + np.abs(f_y) ** 2),
            _lag_correlation(np.conj(f_x) * f_y))


@dataclass
class WeightedSpectra:
    """Spectra of the weighted lag vectors t_r, t_c feeding the fast product."""

    mu_r: np.ndarray
    mu_c: np.ndarray
    alpha: float


def weighted_spectra(r: np.ndarray, c: np.ndarray, wp: WeightProfile) -> WeightedSpectra:
    """Build t_r = w .* r and t_c = wt .* c (FFT order) and return their DFTs.

    ``r`` and ``c`` are lag-order vectors as returned by
    :func:`correlations_via_fft`.
    """
    full_w, full_wt = wp.symmetric()
    t_r = lag_to_fft_order(full_w * r)
    t_c = lag_to_fft_order(full_wt * c)
    return WeightedSpectra(mu_r=np.fft.fft(t_r), mu_c=np.fft.fft(t_c), alpha=wp.alpha)


def gram_product(ws: WeightedSpectra, spectra: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Apply (Q + Q^H) to the stacked iterate z in O(L log L).

    ``spectra`` holds the padded transforms (f_x, f_y) of the iterate z that
    produced ``ws``; z enters only through them.  The product of any
    banded-Toeplitz block with a vector is a circular correlation, evaluated
    here as ifft(f_v . rev(mu)); the test-only dense construction of Q pins
    every sign and conjugation.
    """
    f_x, f_y = spectra
    L = f_x.size // 2
    a = ws.alpha
    # Diagonal blocks of Q and Q^H coincide, hence the factor 2 on the
    # autocorrelation kernel.
    mu_r_rev = _rev(ws.mu_r)
    nu_c = _rev(ws.mu_c)

    def corr(f_v: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        return np.fft.ifft(f_v * kernel)[:L]

    top = 2.0 * a * corr(f_x, mu_r_rev) + (1.0 - a) * corr(f_y, nu_c)
    bottom = 2.0 * a * corr(f_y, mu_r_rev) + (1.0 - a) * corr(f_x, np.conj(nu_c))
    return np.concatenate([top, bottom])
