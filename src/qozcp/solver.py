"""Majorization-minimization engine for the pair-design problem.

Each iteration majorizes the quartic sidelobe objective twice (first with the
largest eigenvalue of the lifted quadratic form, then with an entry bound on
the banded matrix Q), leaving two independent per-sequence linear problems
whose maximizers are closed-form projections: a phase alignment for unit
modulus, and water-filling (one sort plus suffix sums) for the energy and
per-entry cap of PAPR mode.  The fixed-point map is accelerated with an
extrapolated step and objective-guarded backtracking.

A run stops for one of four reasons, kept in ``SolverState.stop_reason``:
``target`` (both in-zone correlation maxima at or below the target),
``floor`` (no step lowers the objective, so the iterate is kept), ``stalled``
(one step's relative objective change below ``tol``) or ``max_iter``.

Evaluation budget: an evaluation (:func:`_evaluate`) is the padded forward
transform of both rows, the correlations and the objective of one iterate, and
its :class:`Iterate` record feeds the next descent vector.  A step evaluates
z1, the extrapolated point and its projection, so 3 evaluations, plus 2 per
backtrack; the current iterate's record comes from the previous step.

Every transform in the loop has the weight profile's length ``n_fft``, which
is shorter than 2L when the zone is: the objective, the entry bound, the
kernels and the target stop read only lags inside the zone.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .sequences import (
    SequencePair,
    WeightProfile,
    objective_from_correlations,
)
from .spectral import (
    correlations_from_spectra,
    correlations_via_fft,
    forward_spectrum,
    gram_product,
    weighted_spectra,
)

__all__ = [
    "SolverConfig",
    "SolverState",
    "Iterate",
    "lambda_j",
    "lambda_u",
    "descent_vector",
    "proj_unimodular",
    "proj_papr",
    "sdamm_step",
    "solve",
]


@dataclass
class SolverConfig:
    """All knobs of the design run."""

    L: int
    Z: int
    alpha: float = 0.5
    mode: str = "papr"            # "papr" or "unimodular"
    p_e: float | None = None      # energy budget, defaults to L
    p_r: float = 5.0              # PAPR cap, papr mode only
    max_iter: int = 200_000
    tol: float = 1e-14
    target: float | None = None   # in-zone maxima bound, defaults to 1e-11 * 2 p_e
    seed: int = 0
    weights: WeightProfile | None = None

    def __post_init__(self):
        if self.mode not in ("papr", "unimodular"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 < self.Z <= self.L:
            raise ValueError("zone must satisfy 1 < Z <= L")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.max_iter < 0 or not 0.0 <= self.tol < np.inf:
            raise ValueError("max_iter must be nonnegative and tol finite and nonnegative")
        if self.target is not None and not 0.0 <= self.target < np.inf:
            raise ValueError("target must be finite and nonnegative")
        if self.mode == "unimodular":
            # |z_l| = 1 forces the energy budget to L.
            self.p_e = float(self.L)
        elif self.p_e is None:
            self.p_e = float(self.L)
        if self.p_e > self.L:
            raise ValueError("p_e must not exceed L")
        if self.target is None:
            # 1e-11 of the zero-lag peak 2 p_e of C_x + C_y.
            self.target = 1e-11 * 2.0 * self.p_e
        if self.mode == "papr" and not 1.0 <= self.p_r <= self.L:
            raise ValueError("p_r must lie in [1, L]")
        if self.weights is None:
            self.weights = WeightProfile.indicator(self.L, self.Z, self.alpha)
        if self.weights.L != self.L:
            raise ValueError("weight profile length does not match L")
        if self.weights.reach < self.Z:
            # The target stop reads lags |k| < Z, which the transforms hold
            # without aliasing only up to the profile's reach.  Widening the
            # profile's zone keeps its weights, so the objective is the same.
            self.weights = replace(self.weights, Z=self.Z)

    @property
    def p_c(self) -> float:
        """Per-entry magnitude cap sqrt(p_r * p_e / L)."""
        if self.mode == "unimodular":
            return 1.0
        return float(np.sqrt(self.p_r * self.p_e / self.L))


class Iterate(NamedTuple):
    """Everything one evaluation of a stacked iterate ``z`` produces.

    ``r`` and ``c`` are the lag-order correlations and ``spectra`` the (2, n)
    padded transforms of the rows x and y of ``z.reshape(2, L)``, which
    :func:`gram_product` consumes; n is the weight profile's ``n_fft``.
    ``r`` and ``c`` are exact on the lags |k| <= n - L, which include every
    weighted and in-zone lag, and zero on the others, which alias.
    """

    r: np.ndarray
    c: np.ndarray
    objective: float
    spectra: np.ndarray
    z: np.ndarray


@dataclass
class SolverState:
    """Iterate plus bookkeeping; `z` stacks x on top of y.

    ``record`` is the evaluation of ``z`` left by the step that produced it.
    It is trusted only while ``record.z is z``; a state built from a bare
    ``z`` is evaluated on its first step.
    """

    z: np.ndarray
    iteration: int = 0
    objective_history: list = field(default_factory=list)
    last_step: dict = field(default_factory=dict)
    record: Iterate | None = field(default=None, repr=False)
    stop_reason: str | None = None

    @property
    def pair(self) -> SequencePair:
        return SequencePair(*self.z.reshape(2, -1))


def lambda_j(wp: WeightProfile, L: int) -> float:
    """Largest eigenvalue of the lifted quadratic form, in closed form.

    The lifted rank-one terms have mutually orthogonal supports, so the
    spectrum is exactly {w_|k| * alpha * (2L - 2|k|)} union
    {wt_|k| * (1 - alpha) * (L - |k|)}.
    """
    k = np.abs(np.arange(-(L - 1), L))
    full_w, full_wt = wp.symmetric()
    lam_a = full_w * wp.alpha * (2 * L - 2 * k)
    lam_b = full_wt * (1.0 - wp.alpha) * (L - k)
    return float(max(lam_a.max(), lam_b.max()))


def lambda_u(r: np.ndarray, c: np.ndarray, wp: WeightProfile) -> float:
    """Entry bound 4L * max|Q_ij| from the weighted lag magnitudes.

    Q is banded Toeplitz in both blocks, so its largest entry modulus is the
    largest weighted lag magnitude; the dense matrix is never formed.  Only
    the weighted band ``wp.band`` (|k| < ``wp.reach``) is read.
    """
    L = wp.L
    full_w, full_wt = wp.symmetric()
    band = wp.band
    auto_max = wp.alpha * float(np.max(full_w[band] * np.abs(r[band])))
    cross_max = (1.0 - wp.alpha) * float(np.max(full_wt[band] * np.abs(c[band])))
    return 4.0 * L * max(auto_max, cross_max)


def _evaluate(z: np.ndarray, wp: WeightProfile) -> Iterate:
    """Correlations, objective and padded spectra of a stacked iterate."""
    L = z.size // 2
    f = forward_spectrum(z.reshape(2, L), wp.n_fft)
    r, c = correlations_from_spectra(f, L)
    return Iterate(r, c, objective_from_correlations(r, c, wp), f, z)


def descent_vector(rec: Iterate, wp: WeightProfile, lam_j: float) -> np.ndarray:
    """Direction P(z) = (2*lam_j*||z||^2 + lam_u) z - (Q + Q^H) z at z = rec.z.

    The scalar generalizes the energy-specific constant so budgets below L
    stay correct; maximizing Re{x^H P} over the feasible set is one
    majorization-minimization update.
    """
    z = rec.z
    lam_u = lambda_u(rec.r, rec.c, wp)
    qz = gram_product(weighted_spectra(rec.r, rec.c, wp), rec.spectra, wp.alpha, wp.L)
    scale = 2.0 * lam_j * float(np.vdot(z, z).real) + lam_u
    return scale * z - qz


def proj_unimodular(v: np.ndarray) -> np.ndarray:
    """Entry-wise unit-modulus maximizer of Re{x^H v}; zeros map to 1."""
    v = np.asarray(v, dtype=np.complex128)
    out = np.exp(1j * np.angle(v))
    out[v == 0] = 1.0
    return out


def proj_papr(v: np.ndarray, p_e: float, p_c: float) -> np.ndarray:
    """Maximizer of Re{x^H v} under ||x||^2 = p_e and |x_l| <= p_c, in closed form.

    Phases copy v and magnitudes are min(delta*|v_l|, p_c): water-filling,
    the PAPR-constrained nearest-vector step of Tropp, Dhillon, Heath and
    Strohmer (IEEE T-IT 2005).  With a_0 >= a_1 >= ... the sorted nonzero
    magnitudes and tail(s) = sum_{j>=s} a_j^2, saturating the s largest
    entries leaves delta_s^2 = (p_e - s*p_c^2) / tail(s); the answer is the
    first s with delta_s * a_s <= p_c, which exists whenever the nonzero
    entries can carry the budget.  If they cannot, they all saturate and the
    residual energy spreads uniformly over the zero entries with phase 0.
    Cost is one sort, O(L log L).
    """
    v = np.asarray(v, dtype=np.complex128)
    L = v.size
    if p_c ** 2 * L < p_e * (1.0 - 1e-12):
        raise ValueError("infeasible: p_c^2 * L < p_e")
    mags = np.abs(v)
    nonzero = mags > 0.0
    m = int(np.count_nonzero(nonzero))
    # Entry l saturates once its gain reaches p_c / |v_l|.
    cap = np.divide(p_c, mags, out=np.full(L, np.inf), where=nonzero)
    if m * p_c ** 2 <= p_e:
        # Every nonzero entry saturates; remaining energy fills the zeros.
        fill = np.sqrt(max(p_e - m * p_c ** 2, 0.0) / (L - m)) if m < L else 0.0
        return np.multiply(v, cap, out=np.full(L, fill, dtype=np.complex128), where=nonzero)
    # Magnitudes scaled by the peak so that their squares stay finite.
    peak = float(mags.max())
    ascending = (np.sort(mags[nonzero]) / peak) ** 2
    a2 = ascending[::-1]
    tail = np.cumsum(ascending)[::-1]             # tail[s] = sum(a2[s:])
    delta2 = (p_e - np.arange(m) * p_c ** 2) / tail
    s = int(np.argmax(delta2 * a2 <= p_c ** 2))
    return v * np.minimum(np.sqrt(delta2[s]) / peak, cap)


def _project(v: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Mode projection applied independently to the x and y rows of ``v``.

    The unit-modulus projection is element-wise, so it takes the stacked
    vector in one call.
    """
    if config.mode == "unimodular":
        return proj_unimodular(v)
    p_c = config.p_c
    return np.concatenate([proj_papr(row, config.p_e, p_c) for row in v.reshape(2, config.L)])


def _mm_update(rec: Iterate, config: SolverConfig, lam_j: float) -> np.ndarray:
    """One plain majorization step Proj(P(z)) from the evaluation of z."""
    return _project(descent_vector(rec, config.weights, lam_j), config)


def sdamm_step(state: SolverState, config: SolverConfig,
               lam_j: float | None = None) -> SolverState:
    """Accelerated fixed-point update with objective-guarded backtracking.

    Appends the new objective to ``state.objective_history`` in place and
    hands the same list to the returned state.  When no candidate lowers the
    objective, which only round-off allows, the step keeps the current
    iterate and its record, so the history never rises.
    """
    wp = config.weights
    if lam_j is None:
        lam_j = lambda_j(wp, config.L)
    z_t = state.z
    rec_t = state.record
    if rec_t is None or rec_t.z is not z_t:
        rec_t = _evaluate(z_t, wp)
    obj_t = rec_t.objective
    if not np.isfinite(obj_t):
        raise FloatingPointError("non-finite objective at current iterate")

    z1 = _mm_update(rec_t, config, lam_j)
    rec1 = _evaluate(z1, wp)
    z2 = _mm_update(rec1, config, lam_j)
    v1 = z1 - z_t
    v2 = z2 - z1 - v1
    norm_v2 = float(np.linalg.norm(v2))
    backtracks = 0

    def accelerated(a: float) -> Iterate:
        z_a = z_t - 2.0 * a * v1 + a ** 2 * v2
        return _evaluate(_mm_update(_evaluate(z_a, wp), config, lam_j), wp)

    if norm_v2 == 0.0:
        # Fixed point of the plain map; nothing left to extrapolate.
        rec_next = rec1
        alpha_sl = -1.0
    else:
        alpha_sl = min(-float(np.linalg.norm(v1)) / norm_v2, -1.0)
        rec_next = accelerated(alpha_sl)
        while rec_next.objective > obj_t:
            backtracks += 1
            if alpha_sl >= -1.0 or backtracks > 100:
                # alpha_sl = -1 reduces the step to a plain update from z2,
                # which the majorization guarantee makes non-increasing.
                rec_next = min((rec1, _evaluate(z2, wp)), key=lambda rec: rec.objective)
                break
            alpha_sl = (alpha_sl - 1.0) / 2.0
            rec_next = accelerated(alpha_sl)
    if rec_next.objective > obj_t:
        rec_next = rec_t

    history = state.objective_history
    history.append(rec_next.objective)
    return SolverState(
        z=rec_next.z,
        iteration=state.iteration + 1,
        objective_history=history,
        last_step={"alpha_sl": alpha_sl, "backtracks": backtracks},
        record=rec_next,
    )


def _initial_z(config: SolverConfig) -> np.ndarray:
    rng = np.random.default_rng(config.seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=2 * config.L)
    return np.sqrt(config.p_e / config.L) * np.exp(1j * phases)


def solve(config: SolverConfig) -> tuple[SequencePair, SolverState]:
    """Run the accelerated fixed-point loop from a seeded random start.

    Stops at the first of: both in-zone maxima at or below ``config.target``
    (read from the step's record, so no extra transform), a step that keeps
    its iterate, a relative change below ``config.tol``, or ``max_iter``
    steps; ``state.stop_reason`` names which.
    """
    wp = config.weights
    lam_j = lambda_j(wp, config.L)
    record = _evaluate(_initial_z(config), wp)
    state = SolverState(z=record.z, objective_history=[record.objective], record=record)
    lags = np.abs(np.arange(-(config.L - 1), config.L))
    in_zone = lags < config.Z
    sidelobes = in_zone & (lags > 0)

    reason = "max_iter"
    for _ in range(config.max_iter):
        z_prev = state.z
        state = sdamm_step(state, config, lam_j=lam_j)
        rec = state.record
        prev, cur = state.objective_history[-2:]
        if (np.max(np.abs(rec.r[sidelobes])) <= config.target
                and np.max(np.abs(rec.c[in_zone])) <= config.target):
            reason = "target"
        elif state.z is z_prev:
            reason = "floor"
        elif prev == cur == 0.0 or (
                abs(prev - cur) < config.tol * max(abs(prev), np.finfo(float).tiny)):
            reason = "stalled"
        else:
            continue
        break
    state.stop_reason = reason
    return state.pair, state
