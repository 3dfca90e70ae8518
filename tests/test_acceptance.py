"""End-to-end acceptance suite.

One test per headline guarantee; each prints a single pass line with the
measured numbers so a `pytest -v -s` run doubles as a results table.
"""

import numpy as np
import pytest

from qozcp.ambiguity import (
    OMEGA2_DOPPLER_MAX,
    OMEGA2_SAMPLES,
    DelayDopplerGrid,
    ambiguity_surface,
    taylor_coefficients,
    zone_metrics,
)
from qozcp.sequences import (
    SequencePair,
    WeightProfile,
    auto_correlation,
    complementary_sum,
    cross_correlation,
)
from qozcp.solver import (
    SolverConfig,
    SolverState,
    _evaluate,
    _initial_z,
    _phase_update,
    lambda_j,
    proj_papr,
    sdamm_step,
    solve,
)
from qozcp.spectral import (
    correlations_via_fft,
    forward_spectrum,
    gram_product,
    weighted_spectra,
)
from qozcp.waveform import golay_pair, ptm_a_schedule, siso_schedule

from oracles import dense_lifted_form, dense_q, random_pair

L_MAIN = 64
ZONE_BOUND = 1e-5


def _zone_maxima(pair: SequencePair, Z: int) -> tuple[float, float]:
    L = pair.length
    r = complementary_sum(pair)
    c = cross_correlation(pair.x, pair.y)
    lags = np.arange(-(L - 1), L)
    comp = (np.abs(lags) < Z) & (lags != 0)
    cross = np.abs(lags) < Z
    return float(np.max(np.abs(r[comp]))), float(np.max(np.abs(c[cross])))


def _design_best(Z: int, seeds=range(5), max_iter=3000, target=1e-6):
    """Best-of-restarts design run, each restart stopping once the zone clears."""
    best = None
    for seed in seeds:
        pair, _ = solve(SolverConfig(L=L_MAIN, Z=Z, mode="papr", p_r=5.0, alpha=0.5,
                                     seed=seed, max_iter=max_iter, target=target))
        score = max(_zone_maxima(pair, Z))
        if best is None or score < best[0]:
            best = (score, pair)
        if score <= target:
            break
    return best[1]


@pytest.fixture(scope="module")
def designed_z30():
    return _design_best(30)


@pytest.fixture(scope="module")
def designed_z10():
    return _design_best(10)


def test_criterion_1_zone_metrics_z30(designed_z30):
    comp, cross = _zone_maxima(designed_z30, 30)
    assert comp <= ZONE_BOUND
    assert cross <= ZONE_BOUND
    print(f"\ncriterion 1a PASS: L=64 Z=30 papr, "
          f"max|C_x+C_y|={comp:.3e}, max|C_xy|={cross:.3e} (bound 1e-5)")


def test_criterion_1_zone_metrics_z10(designed_z10):
    comp, cross = _zone_maxima(designed_z10, 10)
    assert comp <= ZONE_BOUND
    assert cross <= ZONE_BOUND
    print(f"\ncriterion 1b PASS: L=64 Z=10 papr, "
          f"max|C_x+C_y|={comp:.3e}, max|C_xy|={cross:.3e} (bound 1e-5)")


def test_criterion_2_caf_contrast(designed_z30):
    wp = WeightProfile.indicator(L_MAIN, 30)
    designed = zone_metrics(designed_z30, wp)
    _, cross = _zone_maxima(designed_z30, 30)
    assert designed.max_caf_omega2 <= 8.0 * cross
    assert 8.0 * cross <= 8e-5

    baseline = zone_metrics(golay_pair(L_MAIN), wp)
    assert baseline.max_caf_omega2 >= 1.0

    # comparative auto-surface check: both schedules keep the in-zone AAF
    # sidelobes at the same level (within a factor of 2)
    ratio = designed.max_aaf_sidelobe_omega1 / baseline.max_aaf_sidelobe_omega1
    assert 0.5 <= ratio <= 2.0
    print(f"\ncriterion 2 PASS: designed max|CAF|={designed.max_caf_omega2:.3e} "
          f"<= {8 * cross:.3e} <= 8e-5; golay max|CAF|={baseline.max_caf_omega2:.3e} "
          f">= 1.0; AAF ratio={ratio:.3f} in [0.5, 2]")


def test_criterion_3_exact_cancellation():
    rng = np.random.default_rng(0)
    worst_caf = 0.0
    for trial in range(10):
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2 * L_MAIN))
        pair = SequencePair(z[:L_MAIN], z[L_MAIN:])
        sched = ptm_a_schedule(pair, 8)
        grid = DelayDopplerGrid(delays=np.arange(-(L_MAIN - 1), L_MAIN),
                                dopplers=np.array([0.0]))
        caf0 = float(np.max(ambiguity_surface(sched, 0, 1, grid).modulus()))
        worst_caf = max(worst_caf, caf0)
    assert worst_caf <= 1e-12

    x, y = random_pair(np.random.default_rng(1), L_MAIN)
    pair = SequencePair(x, y)
    sched = ptm_a_schedule(pair, 8)
    worst_bm = 0.0
    for rep in taylor_coefficients(sched, 0, 1, m_max=2):
        worst_bm = max(worst_bm, float(np.max(np.abs(rep.lag_vector))))
    assert worst_bm <= 1e-10

    siso = siso_schedule(pair, 8)
    comp = complementary_sum(pair)
    betas = {0: 4.0, 1: 14.0, 2: 70.0}
    worst_cm = 0.0
    for rep in taylor_coefficients(siso, 0, 0, m_max=2):
        assert rep.beta_m == betas[rep.order]
        worst_cm = max(worst_cm, float(
            np.max(np.abs(rep.lag_vector - rep.beta_m * comp))))
    assert worst_cm <= 1e-10
    print(f"\ncriterion 3 PASS: CAF(theta=0)={worst_caf:.3e} <= 1e-12, "
          f"max|B_m|={worst_bm:.3e} <= 1e-10, "
          f"max|C_m - beta_m(C_x+C_y)|={worst_cm:.3e} <= 1e-10")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(2)
    worst_corr = 0.0
    for L in (8, 16, 64):
        for _ in range(100):
            x, y = random_pair(rng, L)
            pair = SequencePair(x, y)
            r, c = correlations_via_fft(pair)
            r_ref = auto_correlation(x) + auto_correlation(y)
            c_ref = cross_correlation(x, y)
            err = max(float(np.max(np.abs(r - r_ref))),
                      float(np.max(np.abs(c - c_ref))))
            assert err <= 1e-10 * L
            worst_corr = max(worst_corr, err / L)

    worst_gram = 0.0
    for L in (4, 8):
        wp = WeightProfile.indicator(L, L)
        for _ in range(20):
            x, y = random_pair(rng, L)
            z = np.concatenate([x, y])
            r, c = correlations_via_fft(SequencePair(x, y))
            fast = gram_product(weighted_spectra(r, c, wp),
                                forward_spectrum(np.stack([x, y]), wp.n_fft), wp)
            Q = dense_q(z, wp)
            err = float(np.max(np.abs(fast - (Q + Q.conj().T) @ z)))
            assert err <= 1e-9
            worst_gram = max(worst_gram, err)

    worst_lam = 0.0
    for L in (3, 4):
        wp = WeightProfile.indicator(L, L)
        J = dense_lifted_form(wp)
        v = np.random.default_rng(L).normal(size=J.shape[0]).astype(complex)
        for _ in range(5000):
            v = J @ v
            v /= np.linalg.norm(v)
        eig = float(np.vdot(v, J @ v).real)
        rel = abs(lambda_j(wp, L) - eig) / eig
        assert rel <= 1e-8
        worst_lam = max(worst_lam, rel)
    print(f"\ncriterion 4 PASS: corr err/L={worst_corr:.3e} <= 1e-10, "
          f"gram err={worst_gram:.3e} <= 1e-9, "
          f"lambda_J rel err={worst_lam:.3e} <= 1e-8")


def test_criterion_5_mm_contract():
    iters = 60
    worst_increase = 0.0
    for mode in ("papr", "unimodular"):
        for seed in range(10):
            config = SolverConfig(L=32, Z=12, mode=mode, p_r=5.0,
                                  seed=seed, max_iter=iters)
            lam = lambda_j(config.weights, config.L)
            state = SolverState(z=_initial_z(config))
            state.objective_history.append(
                _evaluate(state.z, config.weights)[2])
            for _ in range(iters):
                state = sdamm_step(state, config, lam_j=lam)
                z = state.z
                for half in (z[:32], z[32:]):
                    if mode == "unimodular":
                        assert np.max(np.abs(np.abs(half) - 1.0)) <= 1e-12
                    else:
                        energy = float(np.sum(np.abs(half) ** 2))
                        assert energy == pytest.approx(config.p_e, rel=1e-9)
                        assert np.max(np.abs(half)) <= config.p_c * (1 + 1e-9)
            hist = np.array(state.objective_history)
            increase = np.max(np.diff(hist) / np.maximum(hist[:-1], 1e-300))
            assert increase <= 1e-9
            worst_increase = max(worst_increase, float(increase))
    print(f"\ncriterion 5 PASS: 10 seeds x 2 modes monotone "
          f"(worst relative increase {worst_increase:.3e} <= 1e-9), "
          f"all iterates feasible")


def _random_papr_feasible(rng, L, p_e, p_c, n):
    """n random magnitude profiles with energy p_e and entry cap p_c."""
    e = rng.dirichlet(np.ones(L), size=n) * p_e
    cap = p_c ** 2
    for _ in range(100):
        over = e > cap
        if not np.any(over):
            break
        excess = np.sum(np.where(over, e - cap, 0.0), axis=1)
        e = np.where(over, cap, e)
        room = np.sum(np.where(~over, e, 0.0), axis=1)
        scale = np.where(room > 0, 1.0 + excess / np.maximum(room, 1e-300), 1.0)
        e = np.where(over, e, e * scale[:, None])
    e = np.minimum(e, cap)
    e *= (p_e / np.sum(e, axis=1))[:, None]
    return np.sqrt(e)


def test_criterion_6_projection_optimality():
    rng = np.random.default_rng(3)
    L, p_e, p_r = 16, 16.0, 2.0
    p_c = float(np.sqrt(p_r * p_e / L))
    n_cand = 10_000
    margin_papr = np.inf
    margin_uni = np.inf
    for _ in range(20):
        v = rng.normal(size=L) + 1j * rng.normal(size=L)

        out = proj_papr(v, p_e, p_c)
        score = float(np.real(np.vdot(out, v)))
        # KKT: exact phase alignment entry-wise
        assert np.max(np.abs(np.imag(np.conj(out) * v))) <= 1e-12 * np.abs(v).max()
        mags = _random_papr_feasible(rng, L, p_e, p_c, n_cand)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n_cand // 2, L)))
        aligned = np.exp(1j * np.angle(v))[None, :]
        cands = np.vstack([mags[: n_cand // 2] * phases,
                           mags[n_cand // 2:] * aligned])
        best_cand = float(np.max(np.real(cands @ np.conj(v))))
        assert score >= best_cand - 1e-9 * abs(score)
        margin_papr = min(margin_papr, score - best_cand)

        # The unit-modulus step maximizes Re{x^H (s z - q)} from s and q apart;
        # q is chosen so that s z - q is v, whatever the turn of each entry.
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=L))
        s = float(rng.uniform(0.5, 2.0))
        q = s * z - v
        v_u = s * z - q
        out_u = _phase_update(z, s, q.copy())[0]
        score_u = float(np.real(np.vdot(out_u, v_u)))
        assert np.max(np.abs(np.imag(np.conj(out_u) * v_u))) <= 1e-12 * np.abs(v_u).max()
        cand_u = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n_cand, L)))
        best_u = float(np.max(np.real(cand_u @ np.conj(v_u))))
        assert score_u >= best_u - 1e-9 * abs(score_u)
        margin_uni = min(margin_uni, score_u - best_u)
    print(f"\ncriterion 6 PASS: proj_papr beats 1e4 candidates "
          f"(min margin {margin_papr:.3e}), _phase_update likewise "
          f"(min margin {margin_uni:.3e}), KKT alignment exact")


def test_criterion_7_golay_baseline():
    worst = 0.0
    L = 2
    while L <= 1024:
        pair = golay_pair(L)
        s = complementary_sum(pair)
        off = np.delete(s, L - 1)
        worst = max(worst, float(np.max(np.abs(off))))
        assert np.max(np.abs(off)) == 0.0
        L *= 2

    pair = golay_pair(64)
    sched = ptm_a_schedule(pair, 8)
    grid = DelayDopplerGrid(delays=np.arange(-63, 64),
                            dopplers=np.array([0.0]))
    aaf = ambiguity_surface(sched, 0, 0, grid).values[:, 0]
    assert aaf[63] == pytest.approx(512.0, abs=1e-9)
    assert np.max(np.abs(np.delete(aaf, 63))) <= 1e-9
    print(f"\ncriterion 7 PASS: complementary sidelobes exactly 0 for "
          f"L=2..1024 (worst {worst:.1e}), AAF(theta=0) = 512*delta at L=64")
