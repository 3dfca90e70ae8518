"""Majorization-minimization engine for the pair-design problem.

Each iteration majorizes the quartic sidelobe objective twice (first with the
largest eigenvalue of the lifted quadratic form, then with an entry bound on
the banded matrix Q), leaving two independent per-sequence linear problems
max Re{x^H (s z - q)}, with q = (Q + Q^H) z and s the majorizer's scale,
whose maximizers are closed-form.  :func:`_mm_update` dispatches the plain
step on the feasible set: unit modulus takes the phase alignment of
:func:`_phase_update`, and PAPR mode water-fills the rows x and y of the
descent vector s z - q under the energy budget and per-entry cap, both in
one :func:`proj_papr` call on the (2, L) stack (one sort plus suffix sums
along the rows).  The fixed-point map is accelerated with an
extrapolated step and objective-guarded backtracking (SQUAREM: Varadhan and
Roland, Scand. J. Stat. 2008), whose step length reads the first and second
differences v1 and v2 of two plain steps.  One rule serves both feasible
sets: their S1, <v1, v2> / ||v2||^2, while the objective is high and still
falling fast, and their S3, -||v1|| / ||v2||, once it is low or after a slow
step.  S1 is the shorter step (|S1| <= |S3|): it gets lower sooner from a
random start, and S3 finishes faster near the target.  :func:`_candidate`,
the only other place that dispatches on the feasible set, turns the
extrapolated point into a feasible candidate: unit modulus projects it (the
projected SQUAREM of Song, Babu and Palomar, IEEE T-SP 2015), PAPR mode takes
one more plain step from it.

In unimodular mode the plain step turns each phase by an angle of order
|q| / s.  At L = 4096, Z = 256 that ratio falls from about 1e-4 at a random
start to 1e-13 and below as the zone clears, so the difference of two
rounded unit-modulus iterates is then mostly round-off, and their second
difference v2 more so.  Each plain step therefore returns its increment
u (e^{i delta} - 1), u the phase of z, with the turn e^{i delta} - 1 formed
from q and s apart.  The turn is algebraic, (Re w - |w| + i Im w) / |w|
for w = s |z| - q conj(u), with no trigonometric call; where Re w > 0 its
real part is -(Im w)^2 / (|w| (|w| + Re w)), free of cancellation.  PAPR
mode keeps the difference of the iterates.

A run stops for one of four reasons, kept in ``SolverState.stop_reason``:
``target`` (both in-zone correlation maxima at or below the target),
``floor`` (no step lowers the objective, so the iterate is kept), ``stalled``
(one step's relative objective change below ``tol``) or ``max_iter``.

Evaluation budget: an evaluation (:func:`_evaluate`) is the padded forward
transform of both rows, the correlations and the objective of one iterate, and
its :class:`Iterate` record feeds the next descent vector.  A step evaluates
z1 and the candidate; the current iterate's record comes from the previous
step.  In unimodular mode the candidate is the projected extrapolated point,
so a step takes at most 2 evaluations and 2 MM updates, plus 1 evaluation
per backtrack.  In PAPR mode the candidate is a plain step from the
extrapolated point, evaluated before and after, so a step takes at most 3
evaluations and 3 MM updates, plus 2 evaluations and 1 MM update per
backtrack.

Every transform in the loop has the weight profile's length ``n_fft`` and
every lag vector holds only the lags |k| < ``reach``: the objective, the
entry bound, the kernels and the target stop read nothing else.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .sequences import (
    SequencePair,
    WeightProfile,
    objective_from_correlations,
    zone_maxima,
)
from .spectral import (
    correlations_from_spectra,
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
    "proj_papr",
    "sdamm_step",
    "solve",
]


@dataclass
class SolverConfig:
    """All knobs of the design run.

    Two fields are derived, not passed: the energy budget ``p_e`` is L, and
    ``weights`` is the zone-indicator profile
    ``WeightProfile.indicator(L, Z, alpha)``, which checks Z and alpha.
    """

    L: int
    Z: int
    alpha: float = 0.5
    mode: str = "papr"            # "papr" or "unimodular"
    p_r: float | None = None      # PAPR cap: min(5, L) by default, 1 in unimodular mode
    max_iter: int = 200_000
    tol: float = 1e-14
    target: float | None = None   # in-zone maxima bound, defaults to 1e-11 * 2 p_e
    seed: int = 0
    p_e: float = field(init=False)
    weights: WeightProfile = field(init=False)

    def __post_init__(self):
        if self.mode not in ("papr", "unimodular"):
            raise ValueError(f"unknown mode {self.mode!r}")
        self.weights = WeightProfile.indicator(self.L, self.Z, self.alpha)
        if self.max_iter < 0 or not 0.0 <= self.tol < np.inf:
            raise ValueError("max_iter must be nonnegative and tol finite and nonnegative")
        if self.target is not None and not 0.0 <= self.target < np.inf:
            raise ValueError("target must be finite and nonnegative")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.mode == "unimodular":
            # |z_l| = 1 forces the cap p_c = 1.
            self.p_r = 1.0
        elif self.p_r is None:
            # A cap of L never binds: every sequence has PAPR <= L.
            self.p_r = min(5.0, float(self.L))
        self.p_e = float(self.L)
        if self.target is None:
            # 1e-11 of the zero-lag peak 2 p_e of C_x + C_y.
            self.target = 1e-11 * 2.0 * self.p_e
        if not 1.0 <= self.p_r <= self.L:
            raise ValueError("p_r must lie in [1, L]")

    @property
    def p_c(self) -> float:
        """Per-entry magnitude cap sqrt(p_r * p_e / L), exactly 1.0 in unimodular mode."""
        return float(np.sqrt(self.p_r * self.p_e / self.L))


class Iterate(NamedTuple):
    """Everything one evaluation of a stacked iterate ``z`` produces.

    ``r`` and ``c`` are the lag-order correlations of the 2K - 1 lags
    |k| < K, K the weight profile's ``reach``, which include every weighted
    and in-zone lag.  ``spectra`` are the (2, n) padded transforms of the
    rows x and y of ``z.reshape(2, L)``, which :func:`gram_product`
    consumes; n is the profile's ``n_fft``.
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
    {wt_|k| * (1 - alpha) * (L - |k|)}.  ``L`` must be the profile's length.
    """
    if L != wp.L:
        raise ValueError(f"L = {L} does not match the weight profile's L = {wp.L}")
    k = np.abs(np.arange(1 - wp.reach, wp.reach))
    full_w, full_wt = wp.symmetric()
    lam_a = full_w[wp.band] * wp.alpha * (2 * L - 2 * k)
    lam_b = full_wt[wp.band] * (1.0 - wp.alpha) * (L - k)
    return float(max(lam_a.max(), lam_b.max()))


def lambda_u(r: np.ndarray, c: np.ndarray, wp: WeightProfile) -> float:
    """Entry bound 4L * max|Q_ij| from the weighted lag magnitudes.

    Q is banded Toeplitz in both blocks, so its largest entry modulus is the
    largest weighted lag magnitude; the dense matrix is never formed.
    ``r`` and ``c`` hold the lags |k| < ``wp.reach``.
    """
    full_w, full_wt = wp.symmetric()
    auto_max = wp.alpha * float((full_w[wp.band] * np.abs(r)).max())
    cross_max = (1.0 - wp.alpha) * float((full_wt[wp.band] * np.abs(c)).max())
    return 4.0 * wp.L * max(auto_max, cross_max)


def _evaluate(z: np.ndarray, wp: WeightProfile) -> Iterate:
    """Correlations, objective and padded spectra of a stacked iterate."""
    f = forward_spectrum(z.reshape(2, wp.L), wp.n_fft)
    r, c = correlations_from_spectra(f, wp.reach)
    return Iterate(r, c, objective_from_correlations(r, c, wp), f, z)


def _majorant(rec: Iterate, wp: WeightProfile, lam_j: float) -> tuple[float, np.ndarray]:
    """Scale s = 2*lam_j*||z||^2 + lam_u and product q = (Q + Q^H) z at z = rec.z."""
    z = rec.z
    lam_u = lambda_u(rec.r, rec.c, wp)
    qz = gram_product(weighted_spectra(rec.r, rec.c, wp), rec.spectra, wp)
    return 2.0 * lam_j * float(np.vdot(z, z).real) + lam_u, qz


def descent_vector(rec: Iterate, wp: WeightProfile, lam_j: float) -> np.ndarray:
    """Direction P(z) = (2*lam_j*||z||^2 + lam_u) z - (Q + Q^H) z at z = rec.z.

    Maximizing Re{x^H P} over the feasible set is one
    majorization-minimization update.
    """
    scale, qz = _majorant(rec, wp, lam_j)
    return np.subtract(scale * rec.z, qz, out=qz)


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

    ``v`` is one sequence or a stack (..., L) of rows, each water-filled on
    its own in the same pass: one sort, one suffix sum and one search along
    the last axis, O(L log L) per row.  A row's zero entries sort first and
    add nothing to the suffix sums, so every row gets the bits a call on it
    alone gives.
    """
    v = np.asarray(v, dtype=np.complex128)
    L = v.shape[-1]
    if p_c ** 2 * L < p_e * (1.0 - 1e-12):
        raise ValueError("infeasible: p_c^2 * L < p_e")
    rows = v.reshape(-1, L)
    mags = np.abs(rows)
    ascending = np.sort(mags)                   # a row's zeros sort first
    peak = ascending[:, -1:]
    # A row with m nonzero entries saturates them all if m p_c^2 <= p_e.
    some_spread = L * p_c ** 2 <= p_e or not ascending[:, 0].all()
    with np.errstate(divide="ignore", invalid="ignore"):
        # Entry l saturates once its gain reaches p_c / |v_l|, never if v_l = 0.
        cap = p_c / mags
        # Magnitudes scaled by the peak so that their squares stay finite.
        ascending = (ascending / peak) ** 2
        a2 = ascending[:, ::-1]
        tail = ascending.cumsum(axis=-1)[:, ::-1]     # tail[s] = sum(a2[s:])
        # Past a row's nonzero entries a2 and tail are 0, so delta2 * a2 is
        # NaN and the search passes them by.
        delta2 = (p_e - np.arange(L) * p_c ** 2) / tail
        s = (delta2 * a2 <= p_c ** 2).argmax(axis=-1)
        gain = np.sqrt(delta2[np.arange(s.size), s])[:, None] / peak
        out = rows * np.minimum(gain, cap)
    if some_spread:
        # Those rows keep every nonzero entry at the cap, and the remaining
        # energy fills their zeros; an all-zero row is one of them.
        m = (mags > 0.0).sum(axis=-1)
        spread = m * p_c ** 2 <= p_e
        m = m[spread, None]
        fill = np.sqrt(np.maximum(p_e - m * p_c ** 2, 0.0) / np.maximum(L - m, 1))
        out[spread] = np.multiply(rows[spread], cap[spread], where=mags[spread] > 0.0,
                                  out=np.broadcast_to(fill, (m.size, L)).astype(np.complex128))
    return out.reshape(v.shape)


def _unit_phase(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit phases u = z / |z|, 1 where z is 0, and the magnitudes |z|.

    u is the nearest unit-modulus vector to z: its projection onto the
    unimodular set.
    """
    mag = np.abs(z)
    if mag.min() > 0.0:
        return z / mag, mag
    return np.divide(z, mag, out=np.ones_like(z), where=mag > 0.0), mag


def _turn_ahead(w: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(Re w - |w| + i Im w) / |w| for Re w > 0, with rho = |w|.

    Re w - |w| is taken as -(Im w)^2 / (|w| + Re w), free of cancellation.
    """
    turn = np.empty_like(w)
    np.divide(w.imag, rho, out=turn.imag)
    np.divide(turn.imag * w.imag, rho + w.real, out=turn.real)
    np.negative(turn.real, out=turn.real)
    return turn


def _phase_update(z: np.ndarray, scale: float, qz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-modulus step Proj(s z - q) = u e^{i delta} and its increment u (e^{i delta} - 1).

    With u = z / |z| (1 where z is 0), s z - q = w u for w = s |z| - q conj(u),
    so the turn e^{i delta} - 1 = (Re w - |w| + i Im w) / |w| is formed from q
    and s apart, with no trigonometric call, and carries round-off relative
    to itself (:func:`_turn_ahead`).  Re w > 0 holds for every entry once
    the steps are small; only when it fails are the entries sorted by mask:
    turned-back ones (Re w <= 0) take (Re w - |w|) / |w| as it stands, and
    w = 0 (a zero entry where q is 0 too) keeps u with a zero turn.
    """
    u, mag = _unit_phase(z)
    w = np.multiply(qz, np.conj(u), out=qz)
    np.subtract(scale * mag, w, out=w)
    rho = np.abs(w)
    if w.real.min() > 0.0:
        turn = _turn_ahead(w, rho)
    else:
        turn = np.zeros_like(w)
        ahead = w.real > 0.0
        back = ~ahead & (rho != 0.0)
        turn[ahead] = _turn_ahead(w[ahead], rho[ahead])
        turn[back] = (w[back] - rho[back]) / rho[back]
    step = np.multiply(u, turn, out=turn)
    return u + step, step


def _mm_update(rec: Iterate, config: SolverConfig, lam_j: float) -> tuple[np.ndarray, np.ndarray]:
    """One plain majorization step from the evaluation of z, and its increment.

    Unimodular mode aligns phases with :func:`_phase_update`, which forms
    the increment from s and q apart.  PAPR mode water-fills the x and y
    rows of the descent vector with one :func:`proj_papr` call on the
    (2, L) stack, and the increment is the difference of the two iterates.
    """
    if config.mode == "unimodular":
        return _phase_update(rec.z, *_majorant(rec, config.weights, lam_j))
    v = descent_vector(rec, config.weights, lam_j).reshape(2, config.L)
    z_new = proj_papr(v, config.p_e, config.p_c).reshape(-1)
    return z_new, z_new - rec.z


def _candidate(z_a: np.ndarray, config: SolverConfig, lam_j: float) -> Iterate:
    """The evaluated SQUAREM candidate from the extrapolated point z_a.

    Unimodular mode takes the projection Proj(z_a) = :func:`_unit_phase`,
    the projected SQUAREM of unit-modulus sequence design (Song, Babu and
    Palomar, IEEE T-SP 2015): one evaluation.  PAPR mode takes one plain step
    M(z_a): two evaluations and one MM update.
    """
    wp = config.weights
    if config.mode == "unimodular":
        return _evaluate(_unit_phase(z_a)[0], wp)
    return _evaluate(_mm_update(_evaluate(z_a, wp), config, lam_j)[0], wp)


_S1_FLOOR = 1e-15
"""S1 only while the objective is above this times L^2 (see :func:`sdamm_step`)."""
_S1_MIN_FALL = 1e-4
"""S1 only while the last step lowered the objective by more than this fraction.

Both constants come from a sweep of 1e-9, 1e-12, 1e-15, 1e-18 and 1e-21 for
the floor and 1e-2 to 1e-5 for the fraction, over the steps to the zone
target of the ``zone-target-L4096-unimodular`` bench inputs, the 100
``design-L64-papr`` inputs, seeded runs from (64, 18) to (4096, 256) in both
modes and the zones near capacity.  A lower floor helps unimodular zones and
hurts PAPR at L = 1024 and 4096, where S1 then runs too close to the target;
without the fall test PAPR (64, 40) stays on S1 at an objective of 3.6e-2.
"""


def sdamm_step(state: SolverState, config: SolverConfig,
               lam_j: float | None = None) -> SolverState:
    """Accelerated fixed-point update with objective-guarded backtracking.

    Two plain steps z1 = M(z) and z2 = M(z1) give the increments v1 = z1 - z
    and v2 = (z2 - z1) - v1, each plain increment as :func:`_mm_update`
    returns it: exact to round-off relative to itself in unimodular mode, the
    difference of the iterates in PAPR mode.  The step length a is
    Varadhan and Roland's S1 = <v1, v2> / ||v2||^2 while the objective is
    above ``_S1_FLOOR`` * L^2 and the last step lowered it by more than
    ``_S1_MIN_FALL`` of its value (a first step counts as one that did), and
    their S3 = -||v1|| / ||v2|| otherwise, clipped to a <= -1 either way.
    From the extrapolated point z_a = z - 2 a v1 + a^2 v2 the candidate
    is :func:`_candidate`'s: the projection Proj(z_a) onto the unit circle in
    unimodular mode (Song, Babu and Palomar, IEEE T-SP 2015), the plain step
    M(z_a) in PAPR mode (Varadhan and Roland, Scand. J. Stat. 2008).  a is
    halved towards -1 while the candidate raises the objective; if it still
    does at a = -1, where z_a is z2, the step takes the better of z1 and z2.
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

    z1, v1 = _mm_update(rec_t, config, lam_j)
    rec1 = _evaluate(z1, wp)
    z2, v2 = _mm_update(rec1, config, lam_j)
    v2 -= v1
    norm_v2 = float(np.linalg.norm(v2))
    backtracks = 0

    def accelerated(a: float) -> Iterate:
        z_a = z_t - 2.0 * a * v1
        z_a += a ** 2 * v2
        return _candidate(z_a, config, lam_j)

    if norm_v2 == 0.0:
        # Fixed point of the plain map; nothing left to extrapolate.
        rec_next = rec1
        alpha_sl = -1.0
    else:
        hist = state.objective_history
        falling = len(hist) < 2 or hist[-2] - obj_t > _S1_MIN_FALL * hist[-2]
        if falling and obj_t > _S1_FLOOR * config.L ** 2:
            alpha_sl = float(np.vdot(v2, v1).real) / norm_v2 ** 2
        else:
            alpha_sl = -float(np.linalg.norm(v1)) / norm_v2
        alpha_sl = min(alpha_sl, -1.0)
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
    # Unit modulus, so each row carries the energy p_e = L.
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2 * config.L))


def solve(config: SolverConfig) -> tuple[SequencePair, SolverState]:
    """Run the accelerated fixed-point loop from a seeded random start.

    Stops at the first of: both in-zone maxima at or below ``config.target``
    (read from the step's record, so no extra transform), a step that keeps
    its iterate, a relative change below ``config.tol``, or ``max_iter``
    steps; ``state.stop_reason`` names which.
    """
    lam_j = lambda_j(config.weights, config.L)
    record = _evaluate(_initial_z(config), config.weights)
    state = SolverState(z=record.z, objective_history=[record.objective], record=record)

    reason = "max_iter"
    for _ in range(config.max_iter):
        z_prev = state.z
        state = sdamm_step(state, config, lam_j=lam_j)
        prev, cur = state.objective_history[-2:]
        # The indicator profile's reach is Z, so the record holds the lags |k| < Z.
        side_max, cross_max = zone_maxima(state.record.r, state.record.c)
        if side_max <= config.target and cross_max <= config.target:
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
