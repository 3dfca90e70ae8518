"""Complex sequence primitives: aperiodic correlations, PAPR and the design objective.

Sequences are plain 1-D complex numpy arrays of length L >= 2.  Correlation
vectors hold the 2L-1 lags k = -(L-1) ... L-1 in increasing-lag order, so the
zero lag sits at index L-1.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "as_sequence",
    "SequencePair",
    "WeightProfile",
    "cross_correlation",
    "auto_correlation",
    "complementary_sum",
    "reverse_conjugate",
    "papr",
    "objective",
    "lag_index",
    "transform_length",
]


def as_sequence(x) -> np.ndarray:
    """Validate and return ``x`` as a 1-D complex array of length >= 2."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError("sequence must be one-dimensional")
    if arr.size < 2:
        raise ValueError("sequence length must be at least 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sequence entries must be finite")
    return arr


def lag_index(k: int, L: int) -> int:
    """Index of lag ``k`` inside a length 2L-1 correlation vector."""
    if abs(k) > L - 1:
        raise ValueError(f"lag {k} out of range for length {L}")
    return k + L - 1


def transform_length(L: int, K: int) -> int:
    """Transform length n for the lags |k| < K of length-L sequences.

    The smallest 2^a 3^b >= L + K - 1, at which circular correlations of
    length-L rows hold every lag |k| < K without aliasing and pocketfft runs
    fast.  When that is 2L - 1 or more, which a full zone K = L always gives,
    the answer is the 2L of the public paths, so such runs keep their bits.
    """
    if not 1 <= K <= L:
        raise ValueError("need 1 <= K <= L")
    need = L + K - 1
    best = 2 * L
    p3 = 1
    while p3 < best:
        p = p3
        while p < need:
            p *= 2
        best = min(best, p)
        p3 *= 3
    return best if best < 2 * L - 1 else 2 * L


@dataclass
class SequencePair:
    """A candidate or final pair (x, y) with free-form provenance metadata."""

    x: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = as_sequence(self.x)
        self.y = as_sequence(self.y)
        if self.x.size != self.y.size:
            raise ValueError("x and y must have equal length")

    @property
    def length(self) -> int:
        return self.x.size


@dataclass
class WeightProfile:
    """Zone weights for the two halves of the objective.

    ``w[k]`` weights the complementary-sum lag k (``w[0]`` must be zero, the
    zero lag of an autocorrelation sum is the fixed peak), ``w_tilde[k]``
    weights the cross-correlation lag k.  Both extend to negative lags by
    symmetry.  ``alpha`` mixes the two halves.

    The profile is fixed once built: ``w``, ``w_tilde`` and the arrays of
    :meth:`symmetric` are read-only copies made at construction.  It also
    carries the solver's transform plan: ``reach`` is K = max(Z, 1 + the
    largest lag with a nonzero weight), so every lag the objective or the
    zone reads has |k| < K; ``band`` selects those lags from a lag-order
    vector, and ``n_fft`` is :func:`transform_length` (L, K).
    """

    Z: int
    w: np.ndarray
    w_tilde: np.ndarray
    alpha: float = 0.5

    def __post_init__(self):
        self.w = np.array(self.w, dtype=np.float64)
        self.w_tilde = np.array(self.w_tilde, dtype=np.float64)
        if self.w.ndim != 1 or self.w_tilde.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if self.w.size != self.w_tilde.size:
            raise ValueError("w and w_tilde must have equal length")
        if self.w[0] != 0.0:
            raise ValueError("w[0] must be zero")
        if np.any(self.w < 0) or np.any(self.w_tilde < 0):
            raise ValueError("weights must be nonnegative")
        if not (np.any(self.w > 0) or np.any(self.w_tilde > 0)):
            raise ValueError("at least one weight must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 1 < self.Z <= self.w.size:
            raise ValueError("zone width must satisfy 1 < Z <= L")
        full_w = np.concatenate([self.w[:0:-1], self.w])
        full_wt = np.concatenate([self.w_tilde[:0:-1], self.w_tilde])
        for arr in (self.w, self.w_tilde, full_w, full_wt):
            arr.setflags(write=False)
        self._symmetric = (full_w, full_wt)
        weighted = np.flatnonzero((self.w > 0) | (self.w_tilde > 0))
        self.reach = max(self.Z, int(weighted[-1]) + 1)
        self.band = slice(self.L - self.reach, self.L - 1 + self.reach)
        self.n_fft = transform_length(self.L, self.reach)

    @property
    def L(self) -> int:
        return self.w.size

    @classmethod
    def indicator(cls, L: int, Z: int, alpha: float = 0.5) -> "WeightProfile":
        """Unit weights on the zone: w_k = 1 for 1 <= k < Z, wt_k = 1 for 0 <= k < Z."""
        w = np.zeros(L)
        w[1:Z] = 1.0
        wt = np.zeros(L)
        wt[:Z] = 1.0
        return cls(Z=Z, w=w, w_tilde=wt, alpha=alpha)

    def symmetric(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights over lags -(L-1) ... L-1 (even extension), read-only.

        The same two arrays are returned on every call.
        """
        return self._symmetric


def cross_correlation(x, y) -> np.ndarray:
    """Aperiodic cross-correlation C_xy(k) = sum_l x[l] * conj(y[l+k]).

    Direct O(L^2) sum; this is the oracle against which the FFT path is
    checked.  Returns lags -(L-1) ... L-1.
    """
    x = as_sequence(x)
    y = as_sequence(y)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    L = x.size
    out = np.zeros(2 * L - 1, dtype=np.complex128)
    for k in range(-(L - 1), L):
        if k >= 0:
            out[lag_index(k, L)] = np.dot(x[: L - k], np.conj(y[k:]))
        else:
            out[lag_index(k, L)] = np.dot(x[-k:], np.conj(y[: L + k]))
    return out


def auto_correlation(x) -> np.ndarray:
    """Aperiodic autocorrelation C_x(k); Hermitian-symmetric in the lag."""
    return cross_correlation(x, x)


def complementary_sum(pair: SequencePair) -> np.ndarray:
    """Lag-wise sum of the two autocorrelations, C_x(k) + C_y(k)."""
    return auto_correlation(pair.x) + auto_correlation(pair.y)


def reverse_conjugate(x) -> np.ndarray:
    """Reversed complex conjugate: out[l] = conj(x[L-1-l])."""
    return np.conj(as_sequence(x))[::-1]


def papr(x) -> float:
    """Peak-to-average power ratio, in [1, L]."""
    x = as_sequence(x)
    energy = float(np.sum(np.abs(x) ** 2))
    if energy <= 0.0:
        raise ValueError("papr undefined for zero-energy input")
    return x.size * float(np.max(np.abs(x) ** 2)) / energy


def objective(pair: SequencePair, wp: WeightProfile) -> float:
    """Weighted in-zone sidelobe energy of the pair.

    alpha * sum_k w_|k| |C_x(k)+C_y(k)|^2 over k != 0 plus
    (1-alpha) * sum_k wt_|k| |C_xy(k)|^2, both sums over the symmetric lag
    range -(L-1) ... L-1.
    """
    if wp.L != pair.length:
        raise ValueError("weight profile length does not match the pair")
    r = complementary_sum(pair)
    c = cross_correlation(pair.x, pair.y)
    return objective_from_correlations(r, c, wp)


def objective_from_correlations(r: np.ndarray, c: np.ndarray, wp: WeightProfile) -> float:
    """Objective evaluated from precomputed lag vectors (same layout as above)."""
    full_w, full_wt = wp.symmetric()
    # w[0] == 0 removes the k = 0 peak from the complementary half.
    auto_term = float(np.sum(full_w * np.abs(r) ** 2))
    cross_term = float(np.sum(full_wt * np.abs(c) ** 2))
    return wp.alpha * auto_term + (1.0 - wp.alpha) * cross_term
