import hashlib
import math
import threading
import warnings

import numpy as np
import pytest

from qozcp.sequences import (
    SequencePair,
    WeightProfile,
    complementary_sum,
    cross_correlation,
    objective,
    papr,
)
from qozcp.solver import (
    SolverConfig,
    SolverState,
    _evaluate,
    _gauss_newton,
    _mm_update,
    _phase_update,
    _tangent,
    descent_vector,
    lambda_j,
    lambda_u,
    proj_papr,
    sdamm_step,
    solve,
)
from qozcp.spectral import correlations_via_fft

from oracles import (
    dense_descent,
    dense_jacobian,
    dense_lifted_form,
    dense_q,
    proj_papr_bisect,
    proj_unimodular,
    random_pair,
)


@pytest.mark.parametrize("L", [3, 4])
@pytest.mark.parametrize("alpha", [0.5, 0.25])
def test_lambda_j_matches_dense_eigenvalue(L, alpha):
    wp = WeightProfile.indicator(L, L, alpha)
    J = dense_lifted_form(wp)
    eig_max = float(np.linalg.eigvalsh(J).max())
    assert lambda_j(wp, L) == pytest.approx(eig_max, rel=1e-8)


def test_lambda_j_partial_zone():
    wp = WeightProfile.indicator(4, 2, 0.5)
    J = dense_lifted_form(wp)
    eig_max = float(np.linalg.eigvalsh(J).max())
    assert lambda_j(wp, 4) == pytest.approx(eig_max, rel=1e-8)


def test_lambda_j_rejects_another_length():
    wp = WeightProfile.indicator(8, 4)
    assert lambda_j(wp, 8) == 7.0
    with pytest.raises(ValueError, match="L = 16"):
        lambda_j(wp, 16)


def test_lambda_u_matches_dense_entry_bound():
    L = 5
    wp = WeightProfile.indicator(L, 4, 0.5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y = random_pair(rng, L)
        z = np.concatenate([x, y])
        r, c = correlations_via_fft(SequencePair(x, y))
        Q = dense_q(z, wp)
        assert lambda_u(r[wp.band], c[wp.band], wp) == pytest.approx(
            4.0 * L * float(np.max(np.abs(Q))), rel=1e-12)


@pytest.mark.parametrize("L", [3, 6])
def test_descent_vector_matches_dense(L):
    rng = np.random.default_rng(L + 1)
    wp = WeightProfile.indicator(L, L, 0.5)
    lam = lambda_j(wp, L)
    for _ in range(5):
        x, y = random_pair(rng, L)
        z = np.concatenate([x, y])
        fast = descent_vector(_evaluate(z, wp), wp, lam)
        dense = dense_descent(z, wp, lam)
        assert np.max(np.abs(fast - dense)) < 1e-9 * np.max(np.abs(dense))


@pytest.mark.parametrize("L, Z", [(64, 10), (257, 40), (4096, 256)])
def test_evaluate_short_transform_matches_direct_sums(L, Z):
    wp = WeightProfile.indicator(L, Z)
    n = wp.n_fft
    assert n < 2 * L
    rng = np.random.default_rng(L)
    x, y = random_pair(rng, L)
    rec = _evaluate(np.concatenate([x, y]), wp)
    assert rec.spectra.shape == (2, n)
    assert n >= L + wp.reach - 1
    assert rec.r.shape == rec.c.shape == (2 * wp.reach - 1,)
    pair = SequencePair(x, y)
    for got, ref in ((rec.r, complementary_sum(pair)), (rec.c, cross_correlation(x, y))):
        assert np.max(np.abs(got - ref[wp.band])) < 1e-10 * L
    assert rec.objective == pytest.approx(objective(pair, wp), rel=1e-9)


def test_full_zone_keeps_the_2l_transform_bits():
    L = 8
    wp = WeightProfile.indicator(L, L)
    assert wp.n_fft == 2 * L
    rng = np.random.default_rng(1)
    x, y = random_pair(rng, L)
    rec = _evaluate(np.concatenate([x, y]), wp)
    r, c = correlations_via_fft(SequencePair(x, y))
    assert np.array_equal(rec.r, r) and np.array_equal(rec.c, c)
    # the same trajectory as with 2L transforms throughout
    _, state = solve(SolverConfig(L=L, Z=L, mode="unimodular", seed=0))
    assert (state.stop_reason, state.iteration) == ("stalled", 113)


def test_proj_unimodular_phase_alignment():
    rng = np.random.default_rng(2)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    out = proj_unimodular(v)
    assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12
    # KKT: each output entry is exactly phase-aligned with v
    assert np.max(np.abs(np.imag(np.conj(out) * v))) < 1e-12
    assert np.min(np.real(np.conj(out) * v)) >= 0.0


def test_proj_unimodular_zero_entries():
    out = proj_unimodular(np.array([0.0, 1j]))
    assert out[0] == 1.0
    assert out[1] == pytest.approx(1j)


def test_mm_update_papr_water_fills_each_row():
    L = 16
    config = SolverConfig(L=L, Z=8, p_r=2.0)
    wp = config.weights
    lam = lambda_j(wp, L)
    rng = np.random.default_rng(4)
    z = rng.normal(size=2 * L) + 1j * rng.normal(size=2 * L)
    z[[3, L + 5]] = 0.0
    rec = _evaluate(z, wp)
    v = descent_vector(rec, wp, lam)
    rows = [proj_papr(v[:L], config.p_e, config.p_c), proj_papr(v[L:], config.p_e, config.p_c)]
    z_new, step = _mm_update(rec, config, lam)
    assert np.array_equal(z_new, np.concatenate(rows))
    assert np.array_equal(step, z_new - z)


def _phase_increment_reference(z, s, q):
    """z (e^{i delta} - 1), delta = arg(s - q conj(z)), per entry in the hypot form."""
    out = []
    for zl, ql in zip(z.tolist(), q.tolist()):
        g = ql * zl.conjugate()
        a, b = s - g.real, -g.imag
        rho = math.hypot(a, b)
        # a - rho = -b^2 / (a + rho) for a > 0, free of cancellation
        out.append(zl * complex(-b * b / (rho * (a + rho)), b / rho))
    return np.array(out)


def test_phase_update_increment_is_exact_where_differences_round():
    rng = np.random.default_rng(11)
    L, s = 256, 6.7e7
    z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, L))
    q = rng.normal(size=L) + 1j * rng.normal(size=L)
    q *= 1e-12 * s / np.max(np.abs(q))
    ref = _phase_increment_reference(z, s, q)
    z_new, step = _phase_update(z, s, q.copy())

    def rel(d):
        return np.linalg.norm(d - ref) / np.linalg.norm(ref)

    assert rel(step) <= 1e-12
    # The difference of the rounded iterates is off in the fourth digit.
    assert rel(z_new - z) > 1e-4
    assert rel(proj_unimodular(s * z - q) - z) > 1e-4
    # The new iterate is still the projection, to round-off.
    assert np.max(np.abs(z_new - proj_unimodular(s * z - q))) < 1e-15
    assert np.max(np.abs(np.abs(z_new) - 1.0)) < 1e-15


def test_phase_update_turned_back_and_zero_entries():
    s = 10.0
    z = np.array([1.0, 1j, np.exp(0.3j), 0.0, 0.0, 2.0 - 1j, 0.5j])
    q = np.array([3.0 * s, 2.0 * s * 1j, s * np.exp(0.3j) * (1.5 + 1e-9j),
                  2.0 - 1j, 0.0, 1.0, 4.0 * s])
    v = s * z - q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z_new, step = _phase_update(z, s, q.copy())
    assert np.all(np.isfinite(z_new)) and np.all(np.isfinite(step))
    assert np.max(np.abs(np.abs(z_new) - 1.0)) < 1e-15
    # Entries with s |z| - Re(q conj(u)) <= 0 turn by about pi; zero entries
    # take the phase of -q, or 1 where q is 0 too, as proj_unimodular does.
    assert np.max(np.abs(z_new - proj_unimodular(v))) < 1e-12
    u = proj_unimodular(z)
    assert np.max(np.abs(z_new - (u + step))) < 1e-15
    assert z_new[4] == 1.0 and step[4] == 0.0


def test_phase_update_turn_matches_mpmath():
    # Each increment u (w / |w| - 1), w = s |z| - q conj(u), against 50-digit
    # arithmetic on the same doubles, for |q| / s from 1e-16 to 1e2: within
    # 4 eps of its own size plus the |q| / |w| that rounding q conj(u) allows.
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(13)
    s, L = 37.5, 64
    seen = {"ahead": 0, "turned_back": 0, "on_the_axis": 0, "zero_z": 0, "zero_w": 0}
    for ratio in 10.0 ** np.arange(-16, 3):
        z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, L)) * rng.uniform(0.5, 2.0, L)
        q = rng.normal(size=L) + 1j * rng.normal(size=L)
        q *= ratio * s / np.abs(q)
        z[:2] = 0.0                          # zero entries; w = 0 where q is 0 too
        q[0] = 0.0
        z[2], q[2] = 1.0, s + 1j * ratio * s     # Re w = 0 exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z_new, step = _phase_update(z, s, q.copy())
        assert np.max(np.abs(np.abs(z_new) - 1.0)) <= 4 * eps
        with mpmath.workdps(50):
            for zl, ql, got in zip(z.tolist(), q.tolist(), step.tolist()):
                zm, qm = mpmath.mpc(zl), mpmath.mpc(ql)
                u = zm / abs(zm) if zm else mpmath.mpc(1)
                w = s * abs(zm) - qm * mpmath.conj(u)
                seen["zero_z"] += not zm
                if not w:
                    seen["zero_w"] += 1
                    assert got == 0
                    continue
                seen["ahead" if w.real > 0 else "turned_back"] += 1
                seen["on_the_axis"] += w.real == 0
                ref = u * (w / abs(w) - 1)
                assert abs(got - ref) <= 4 * eps * (abs(ref) + abs(qm) / abs(w))
    assert all(seen.values()), seen


def test_proj_papr_hand_example():
    # v = [3, 1], p_e = 2, p_c = 1.2: first entry caps, second takes the rest
    out = proj_papr(np.array([3.0, 1.0]), 2.0, 1.2)
    assert np.abs(out[0]) == pytest.approx(1.2)
    assert np.abs(out[1]) == pytest.approx(np.sqrt(2.0 - 1.44))


def test_proj_papr_no_saturation_is_sphere_projection():
    rng = np.random.default_rng(3)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    p_e = 8.0
    out = proj_papr(v, p_e, 100.0)
    ref = np.sqrt(p_e) * v / np.linalg.norm(v)
    assert np.max(np.abs(out - ref)) < 1e-9


def test_proj_papr_feasibility_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        L = int(rng.integers(2, 40))
        v = rng.normal(size=L) + 1j * rng.normal(size=L)
        p_e = float(rng.uniform(0.5, L))
        p_r = float(rng.uniform(1.0, L))
        p_c = np.sqrt(p_r * p_e / L)
        out = proj_papr(v, p_e, p_c)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(p_e, rel=1e-9)
        assert np.max(np.abs(out)) <= p_c * (1.0 + 1e-9)
        # phase alignment with v on the support of v
        mask = np.abs(v) > 0
        assert np.max(np.abs(np.imag(np.conj(out[mask]) * v[mask]))) < 1e-9


def test_proj_papr_zero_entries_saturated_branch():
    # two huge entries saturate; leftover energy spreads over the zeros
    v = np.array([5.0, 5.0j, 0.0, 0.0])
    out = proj_papr(v, 4.0, 1.2)
    assert np.abs(out[0]) == pytest.approx(1.2)
    assert np.abs(out[1]) == pytest.approx(1.2)
    rest = np.sqrt((4.0 - 2 * 1.44) / 2)
    assert np.abs(out[2]) == pytest.approx(rest)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(4.0)


def _heavy_tailed(rng, L):
    mags = rng.pareto(rng.uniform(0.5, 3.0), size=L)
    return mags * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=L))


def test_proj_papr_matches_bisection_oracle():
    rng = np.random.default_rng(6)
    cases = {"zeros": 0, "ties": 0, "all_saturated": 0, "no_saturation": 0}
    for trial in range(400):
        L = int(rng.integers(2, 200))
        v = _heavy_tailed(rng, L)
        if trial % 4 == 1:
            v[rng.random(L) < 0.3] = 0.0
            cases["zeros"] += 1
        elif trial % 4 == 2:
            # exact magnitude ties: v_0 and 1j * v_0 have equal moduli
            v[rng.integers(0, L, size=L // 2 + 1)] = v[0]
            v[rng.integers(0, L, size=L // 4 + 1)] = 1j * v[0]
            cases["ties"] += 1
        p_e = float(rng.uniform(0.5, L))
        p_c = float(np.sqrt(rng.uniform(1.0, L) * p_e / L))
        if trial % 8 == 3:
            p_c = 1e3 * np.sqrt(p_e)
        m = int(np.count_nonzero(v))
        if m * p_c ** 2 <= p_e:
            cases["all_saturated"] += 1
        if np.max(np.abs(v)) * np.sqrt(p_e) <= p_c * np.linalg.norm(v):
            cases["no_saturation"] += 1
        out = proj_papr(v, p_e, p_c)
        assert np.max(np.abs(out - proj_papr_bisect(v, p_e, p_c))) <= 1e-14 * p_c
    assert all(cases.values()), cases


def _stack_rows(rng, kinds, L, p_e, p_c):
    """Rows of the named kinds: water-filled, with zeros, all saturated, all zero."""
    rows = []
    for kind in kinds:
        v = _heavy_tailed(rng, L)
        if kind == "zeros":
            v[rng.random(L) < 0.3] = 0.0
            v[0] = 1.0
        elif kind == "saturated":
            # Too few nonzero entries to carry p_e: all sit at the cap.
            keep = max(1, int(p_e / p_c ** 2) - 1)
            v[keep:] = 0.0
        elif kind == "empty":
            v[:] = 0.0
        rows.append(v)
    return np.stack(rows)


@pytest.mark.parametrize("kinds", [
    ("plain", "plain"),
    ("zeros", "plain"),
    ("saturated", "zeros"),
    ("plain", "saturated", "zeros"),
    ("saturated", "empty", "plain"),
], ids="-".join)
def test_proj_papr_stack_equals_per_row_calls(kinds):
    # One call water-fills every row of a (..., L) stack with the bits of a
    # call on each row alone, whichever branch each row takes.
    rng = np.random.default_rng(len(kinds))
    for L in (2, 7, 64):
        p_e = float(L)
        p_c = np.sqrt(5.0) if L > 2 else 1.2
        v = _stack_rows(rng, kinds, L, p_e, p_c)
        out = proj_papr(v, p_e, p_c)
        assert out.shape == v.shape
        assert np.array_equal(out, np.stack([proj_papr(row, p_e, p_c) for row in v]))
        nested = proj_papr(np.stack([v, v[::-1]]), p_e, p_c)
        assert np.array_equal(nested, np.stack([out, out[::-1]]))
        # every row, whatever its branch, is feasible
        assert np.allclose(np.sum(np.abs(out) ** 2, axis=-1), p_e, rtol=1e-12)
        assert np.max(np.abs(out)) <= p_c * (1.0 + 1e-12)


def test_proj_papr_stacked_matches_bisection_oracle():
    rng = np.random.default_rng(16)
    kinds = ("plain", "zeros", "saturated", "empty")
    for trial in range(100):
        L = int(rng.integers(2, 200))
        p_e = float(rng.uniform(0.5, L))
        p_c = float(np.sqrt(rng.uniform(1.0, L) * p_e / L))
        v = _stack_rows(rng, rng.choice(kinds, size=int(rng.integers(2, 4))), L, p_e, p_c)
        out = proj_papr(v, p_e, p_c)
        for row, got in zip(v, out):
            assert np.max(np.abs(got - proj_papr_bisect(row, p_e, p_c))) <= 1e-14 * p_c


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_proj_papr_scale_invariant(scale):
    rng = np.random.default_rng(8)
    v = _heavy_tailed(rng, 64)
    p_c = np.sqrt(5.0)
    ref = proj_papr(v, 64.0, p_c)
    assert np.max(np.abs(proj_papr(scale * v, 64.0, p_c) - ref)) <= 1e-14 * p_c


def test_proj_papr_infeasible_budget():
    with pytest.raises(ValueError):
        proj_papr(np.array([1.0, 1.0]), 10.0, 1.0)


def test_proj_papr_row_whose_small_squares_underflow():
    # Scaled by the peak, the square of 1e-200 underflows to 0, so no
    # saturation count passes the search: the peak saturates and the small
    # entry carries the energy left, sqrt(4 - 1.5^2).
    v = np.array([1e200, 1e-200, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = proj_papr(v, 4.0, 1.5)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(4.0, rel=1e-12)
    assert np.max(np.abs(out)) <= 1.5 * (1.0 + 1e-12)
    assert np.allclose(out, [1.5, np.sqrt(1.75), 0.0, 0.0], rtol=1e-12, atol=0.0)
    # in a stack the other rows keep the bits of a call on them alone
    rng = np.random.default_rng(9)
    plain = _heavy_tailed(rng, 4)
    stacked = proj_papr(np.stack([v, plain]), 4.0, 1.5)
    assert np.array_equal(stacked, np.stack([out, proj_papr(plain, 4.0, 1.5)]))
    with pytest.raises(ValueError, match="finite"):
        proj_papr(np.array([np.inf, 1.0, 0.0, 0.0]), 4.0, 1.5)


@pytest.mark.parametrize("mode", ["papr", "unimodular"])
def test_sdamm_step_monotone(mode):
    config = SolverConfig(L=16, Z=8, mode=mode, seed=5, max_iter=10)
    pair, state = solve(config)
    hist = np.array(state.objective_history)
    assert np.all(np.diff(hist) <= 1e-9 * np.maximum(np.abs(hist[:-1]), 1e-300))


def test_solve_deterministic():
    config = SolverConfig(L=12, Z=6, seed=7, max_iter=20)
    pair_a, state_a = solve(config)
    pair_b, state_b = solve(SolverConfig(L=12, Z=6, seed=7, max_iter=20))
    assert np.array_equal(pair_a.x, pair_b.x)
    assert np.array_equal(pair_a.y, pair_b.y)
    assert state_a.objective_history == state_b.objective_history


def test_solve_seed_changes_start():
    a, _ = solve(SolverConfig(L=12, Z=6, seed=1, max_iter=3))
    b, _ = solve(SolverConfig(L=12, Z=6, seed=2, max_iter=3))
    assert not np.allclose(a.x, b.x)


def test_solve_unimodular_modulus_exact():
    config = SolverConfig(L=16, Z=8, mode="unimodular", seed=3, max_iter=30)
    pair, _ = solve(config)
    assert np.max(np.abs(np.abs(pair.x) - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(pair.y) - 1.0)) < 1e-12


def test_solve_papr_feasible_iterates():
    config = SolverConfig(L=16, Z=8, mode="papr", p_r=2.0, seed=9, max_iter=40)
    pair, _ = solve(config)
    assert np.sum(np.abs(pair.x) ** 2) == pytest.approx(config.p_e, rel=1e-9)
    assert np.sum(np.abs(pair.y) ** 2) == pytest.approx(config.p_e, rel=1e-9)
    assert papr(pair.x) <= config.p_r * (1.0 + 1e-9)
    assert papr(pair.y) <= config.p_r * (1.0 + 1e-9)


def test_solve_reduces_objective_substantially():
    config = SolverConfig(L=32, Z=12, seed=0, max_iter=300)
    pair, state = solve(config)
    assert state.objective_history[-1] < 1e-6 * state.objective_history[0]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(L=8, Z=1)
    for L in (-3, 0, 1):
        with pytest.raises(ValueError, match=f"1 < Z <= L, got Z=2, L={L}"):
            SolverConfig(L=L, Z=2)
    with pytest.raises(ValueError):
        SolverConfig(L=8, Z=4, alpha=1.0)
    with pytest.raises(ValueError):
        SolverConfig(L=8, Z=4, mode="other")
    with pytest.raises(ValueError):
        SolverConfig(L=8, Z=4, p_r=0.5)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(L=8, Z=4, target=bad)
        with pytest.raises(ValueError):
            SolverConfig(L=8, Z=4, tol=bad)
    # The energy budget and the weight profile are derived, not passed.
    with pytest.raises(TypeError):
        SolverConfig(L=8, Z=4, p_e=8.0)
    with pytest.raises(TypeError):
        SolverConfig(L=8, Z=4, weights=WeightProfile.indicator(8, 4))
    for mode in ("papr", "unimodular"):
        config = SolverConfig(L=8, Z=4, alpha=0.3, mode=mode)
        assert config.p_e == 8.0 and type(config.p_e) is float
        ref = WeightProfile.indicator(8, 4, 0.3)
        assert (config.weights.L, config.weights.Z, config.weights.alpha) == (8, 4, 0.3)
        assert all(np.array_equal(a, b)
                   for a, b in zip(config.weights.symmetric(), ref.symmetric()))
    for bad in (-1, 1.5, "0", None):
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(L=8, Z=4, seed=bad)
    assert SolverConfig(L=8, Z=4, seed=np.int64(3)).seed == 3
    for bad in (-1, 2.5, "3", None):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(L=8, Z=4, max_iter=bad)
    assert SolverConfig(L=8, Z=4, max_iter=np.int64(3)).max_iter == 3
    uni = SolverConfig(L=8, Z=4, mode="unimodular", p_r=3.0)
    assert uni.p_r == uni.p_c == 1.0
    assert SolverConfig(L=64, Z=30).target == pytest.approx(1.28e-9)


def test_default_papr_cap_is_min_of_5_and_l():
    # A cap of L never binds, so short sequences take L instead of 5.
    for L, cap in ((2, 2.0), (4, 4.0), (5, 5.0), (64, 5.0)):
        config = SolverConfig(L=L, Z=2)
        assert config.p_r == cap and type(config.p_r) is float
        assert SolverConfig(L=L, Z=2, mode="unimodular").p_r == 1.0
    with pytest.raises(ValueError, match="p_r"):
        SolverConfig(L=4, Z=2, p_r=5.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_stops_at_round_off_floor(seed):
    config = SolverConfig(L=64, Z=10, p_r=5.0, seed=seed, target=0.0)
    _, state = solve(config)
    assert state.stop_reason == "floor"
    assert state.iteration < 1000
    hist = state.objective_history
    assert np.all(np.diff(hist) <= 0)
    # the last step kept its iterate and recorded its objective once more
    assert len(hist) == state.iteration + 1 and hist[-1] == hist[-2]
    assert state.record.z is state.z


def test_solve_stops_at_zone_target():
    config = SolverConfig(L=64, Z=30, p_r=5.0, seed=0)
    pair, state = solve(config)
    assert state.stop_reason == "target"
    r = complementary_sum(pair)
    c = cross_correlation(pair.x, pair.y)
    lags = np.abs(np.arange(-63, 64))
    assert np.max(np.abs(r[(lags < 30) & (lags > 0)])) <= config.target
    assert np.max(np.abs(c[lags < 30])) <= config.target


@pytest.mark.parametrize("L, Z, seed, steps", [
    pytest.param(64, 30, 0, 24, id="64-30-0"), pytest.param(64, 30, 1, 21, id="64-30-1"),
    pytest.param(64, 30, 2, 26, id="64-30-2"), pytest.param(256, 100, 1, 22, id="256-100-1"),
])
def test_papr_trajectories_are_pinned(L, Z, seed, steps):
    # PAPR increments are the differences of the iterates; these counts
    # change only with the arithmetic of the PAPR trajectory, with the
    # step-length rule or with the Gauss-Newton candidate and its gate.
    _, state = solve(SolverConfig(L=L, Z=Z, seed=seed))
    assert (state.stop_reason, state.iteration) == ("target", steps)


def test_near_capacity_unimodular_zone_reaches_target():
    # Z = 18 is near the largest zone a unimodular L = 64 pair can clear by
    # counting conditions and unknowns, (2L + 1) / 6 = 21.5; a step length
    # that loses such zones fails here, in well under a second.
    _, state = solve(SolverConfig(L=64, Z=18, mode="unimodular", seed=0))
    assert (state.stop_reason, state.iteration) == ("target", 32)


def test_unimodular_solve_reaches_target(monkeypatch):
    import qozcp.solver as solver

    L, Z = 512, 100
    config = SolverConfig(L=L, Z=Z, mode="unimodular", seed=0)
    step = solver.sdamm_step
    worst = []

    def checked(state, *args, **kwargs):
        state = step(state, *args, **kwargs)
        worst.append(float(np.max(np.abs(np.abs(state.z) - 1.0))))
        return state

    monkeypatch.setattr(solver, "sdamm_step", checked)
    pair, state = solve(config)
    assert (state.stop_reason, state.iteration) == ("target", 27)
    assert len(worst) == state.iteration and max(worst) <= 1e-12
    assert np.all(np.diff(state.objective_history) <= 0)
    lags = np.abs(np.arange(1 - L, L))
    assert np.max(np.abs(complementary_sum(pair)[(lags < Z) & (lags > 0)])) <= config.target
    assert np.max(np.abs(cross_correlation(pair.x, pair.y)[lags < Z])) <= config.target


def test_concurrent_solves_match_sequential_runs():
    # The spectral stages keep no state between calls, so solves run at once
    # in threads reproduce the bits of sequential runs.  Two of them share a
    # transform length: a buffer shared across threads, kept per length or
    # per role, would be written by both at once.
    configs = [SolverConfig(L=64, Z=30, seed=0), SolverConfig(L=64, Z=30, seed=1),
               SolverConfig(L=512, Z=100, mode="unimodular", seed=0)]
    sequential = [solve(config)[1] for config in configs]
    concurrent = [None] * len(configs)
    start = threading.Barrier(len(configs))

    def run(i):
        start.wait(timeout=60)
        concurrent[i] = solve(configs[i])[1]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    for seq, con in zip(sequential, concurrent):
        # each run ends on a Gauss-Newton point, so its per-call buffers ran in threads too
        assert seq.last_step["candidate"] == con.last_step["candidate"] == "gn"
        assert np.array_equal(con.z, seq.z)
        assert con.objective_history == seq.objective_history


@pytest.mark.parametrize("kwargs, reason", [
    ({"L": 16, "Z": 8, "seed": 5, "max_iter": 5}, "max_iter"),
    ({"L": 16, "Z": 8, "seed": 5, "max_iter": 0}, "max_iter"),
    # A full zone cannot be cleared: the objective levels off.
    ({"L": 8, "Z": 8, "mode": "unimodular", "seed": 0}, "stalled"),
])
def test_solve_stop_reasons(kwargs, reason):
    config = SolverConfig(**kwargs)
    _, state = solve(config)
    assert state.stop_reason == reason
    assert len(state.objective_history) == state.iteration + 1
    if reason == "max_iter":
        assert state.iteration == config.max_iter
    else:
        assert state.iteration < config.max_iter


def test_sdamm_step_accepts_manual_state():
    config = SolverConfig(L=8, Z=4, seed=1, max_iter=5)
    rng = np.random.default_rng(0)
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
    state = SolverState(z=z)
    wp = config.weights
    before = objective(SequencePair(z[:8], z[8:]), wp)
    state = sdamm_step(state, config)
    assert state.iteration == 1
    assert state.objective_history[-1] <= before * (1.0 + 1e-9)


def test_sdamm_step_rejects_a_non_finite_objective():
    # finite entries whose correlations, and so the objective, overflow
    config = SolverConfig(L=8, Z=4)
    state = SolverState(z=np.full(16, 1e160, dtype=np.complex128))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite objective"):
            sdamm_step(state, config)
    assert state.objective_history == []


def test_sdamm_step_at_a_fixed_point_keeps_the_plain_step(monkeypatch):
    import qozcp.solver as solver

    # a plain map that returns its input: v1 = v2 = 0, nothing to extrapolate
    def fixed(rec, config, lam_j):
        return rec.z.copy(), np.zeros_like(rec.z)

    config, state = _start("papr")
    z = state.z
    evaluated = []
    evaluate = solver._evaluate

    def recording(z, wp):
        evaluated.append(evaluate(z, wp))
        return evaluated[-1]

    monkeypatch.setattr(solver, "_mm_update", fixed)
    monkeypatch.setattr(solver, "_evaluate", recording)
    state = sdamm_step(state, config)
    # the step's only evaluation is that of z1, and it keeps that record
    assert len(evaluated) == 1 and state.record is evaluated[0]
    assert state.z is state.record.z and np.array_equal(state.z, z)
    assert state.last_step == {"alpha_sl": -1.0, "backtracks": 0,
                               "candidate": "z1", "gn_iterations": 0}
    assert state.objective_history[-1] == state.record.objective


def test_sdamm_step_stops_backtracking_after_101_halvings(monkeypatch):
    import qozcp.solver as solver

    config, state = _start("papr")
    z, rec, obj = state.z, state.record, state.objective_history[-1]
    # v2 = inc2 - v1 is one ulp of 1e-3 antiparallel to v1, so S1 = S3 = -4.6e15,
    # which takes 105 halvings to reach -1
    v1 = np.zeros_like(z)
    v1[0] = 1e-3
    inc2 = np.zeros_like(z)
    inc2[0] = np.nextafter(1e-3, 0)
    increments = [v1, inc2]
    stepped = []

    def plain(rec, config, lam_j):
        inc = increments.pop(0)
        stepped.append(rec.z + inc)
        return stepped[-1], inc

    def rising(z_a, config, lam_j):
        return rec._replace(objective=obj + 1.0)

    monkeypatch.setattr(solver, "_mm_update", plain)
    monkeypatch.setattr(solver, "_candidate", rising)
    state = sdamm_step(state, config)
    assert state.last_step["backtracks"] == 101
    assert state.objective_history[-1] <= obj
    assert any(state.z is z_k for z_k in (z, *stepped))


@pytest.mark.parametrize("case", ["high and falling", "first step", "low and still falling",
                                  "after a slow step", "v1 and v2 not opposed"])
def test_sdamm_step_length_rule(monkeypatch, case):
    import qozcp.solver as solver

    config, state = _start("papr")
    # v1 = e0 and v2 = (-1/8) e0 + (1/8) e1: S1 = <v1, v2> / ||v2||^2 = -4 and
    # S3 = -||v1|| / ||v2|| = -4 sqrt(2)
    v1 = np.zeros_like(state.z)
    v1[0] = 1.0
    v2 = np.zeros_like(state.z)
    v2[:2] = -0.125, 0.125
    s1, s3 = -4.0, -4.0 * math.sqrt(2.0)
    high, low = 1.0, 1e-20
    history, expected = {
        "high and falling": ([2.0 * high, high], s1),
        "first step": ([high], s1),
        "low and still falling": ([2.0 * low, low], s1),
        "after a slow step": ([high / (1.0 - 0.5 * solver._S1_MIN_FALL), high], s3),
        "v1 and v2 not opposed": ([2.0 * high, high], -1.0),
    }[case]
    if case == "v1 and v2 not opposed":
        v2[0] = 0.125                       # S1 = +4 clips to -1
    increments = [v1, v1 + v2]

    def plain(rec, config, lam_j):
        inc = increments.pop(0)
        return rec.z + inc, inc

    def lower(z_a, config, lam_j):
        return rec._replace(z=z_a, objective=0.5 * history[-1])

    rec = state.record._replace(objective=history[-1])
    # a shut Gauss-Newton gate, so that the low objectives isolate the rule
    state = SolverState(z=rec.z, objective_history=list(history), record=rec, gn_level=0.0)
    monkeypatch.setattr(solver, "_mm_update", plain)
    monkeypatch.setattr(solver, "_candidate", lower)
    state = sdamm_step(state, config)
    assert state.last_step == {"alpha_sl": pytest.approx(expected, rel=1e-12), "backtracks": 0,
                               "candidate": "squarem", "gn_iterations": 0}


def _start(mode, seed=5):
    """A config and the state ``solve`` starts from, record included."""
    config = SolverConfig(L=16, Z=8, mode=mode, seed=seed, max_iter=0)
    return config, solve(config)[1]


@pytest.mark.parametrize("mode", ["papr", "unimodular"])
def test_sdamm_step_cached_record_matches_bare_state(mode):
    config, state = _start(mode)
    lam = lambda_j(config.weights, config.L)
    for _ in range(40):
        bare = SolverState(z=state.z, iteration=state.iteration,
                           objective_history=list(state.objective_history),
                           gn_level=state.gn_level)
        from_bare = sdamm_step(bare, config, lam_j=lam)
        state = sdamm_step(state, config, lam_j=lam)
        assert np.array_equal(state.z, from_bare.z)
        assert state.objective_history == from_bare.objective_history
        assert state.last_step == from_bare.last_step


@pytest.mark.parametrize("mode", ["papr", "unimodular"])
def test_sdamm_step_evaluation_budget(monkeypatch, mode):
    import qozcp.solver as solver

    # seed 0 backtracks in both modes within the 60 steps (37 and 10 times)
    config, state = _start(mode, seed=0)
    lam = lambda_j(config.weights, config.L)
    calls = []

    def counting(name):
        original = getattr(solver, name)

        def wrapped(*args):
            calls.append(name)
            return original(*args)
        return wrapped

    for name in ("_evaluate", "_mm_update"):
        monkeypatch.setattr(solver, name, counting(name))
    total_backtracks = 0
    gauss_newton = {"accepted": 0, "refused": 0}
    for _ in range(60):
        calls.clear()
        state = sdamm_step(state, config, lam_j=lam)
        backtracks = state.last_step["backtracks"]
        total_backtracks += backtracks
        # a Gauss-Newton point is evaluated once, before anything else
        tried = state.last_step["gn_iterations"] > 0
        if state.last_step["candidate"] == "gn":
            assert calls == ["_evaluate"]
            gauss_newton["accepted"] += 1
            continue
        if tried:
            assert calls[0] == "_evaluate"
            gauss_newton["refused"] += 1
        evaluations = calls.count("_evaluate") - tried
        if mode == "unimodular":
            # each candidate is a projection: 1 evaluation, no MM update
            assert evaluations <= 2 + backtracks
            assert calls.count("_mm_update") <= 2
        else:
            # each candidate is a plain step: 2 evaluations, 1 MM update
            assert evaluations <= 3 + 2 * backtracks
            assert calls.count("_mm_update") <= 3 + backtracks
    # the budget was also checked on steps that backtracked, and in PAPR mode
    # on steps that took and that refused a Gauss-Newton point (8 and 1)
    assert total_backtracks > 0
    if mode == "papr":
        assert all(gauss_newton.values()), gauss_newton


@pytest.mark.parametrize("L, Z, steps", [
    pytest.param(2048, 256, 15, id="2048-256"), pytest.param(4096, 256, 11, id="4096-256"),
])
def test_easy_unimodular_zone_reaches_target_in_pinned_steps(L, Z, steps):
    # The zone workload's start: a random unit-modulus pair and bare steps
    # until both in-zone maxima are at most 1e-6.  SQUAREM takes the
    # objective below the Gauss-Newton level and Gauss-Newton points finish.
    rng = np.random.default_rng([0, 0, 1])
    config = SolverConfig(L=L, Z=Z, mode="unimodular")
    lam = lambda_j(config.weights, L)
    z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2 * L))
    state = SolverState(z=z, objective_history=[_evaluate(z, config.weights).objective])
    lags = np.abs(np.arange(1 - L, L))
    for _ in range(200):
        state = sdamm_step(state, config, lam_j=lam)
        r, c = correlations_via_fft(state.pair)
        if max(np.abs(r[(lags < Z) & (lags > 0)]).max(), np.abs(c[lags < Z]).max()) <= 1e-6:
            break
    else:
        pytest.fail("zone target not reached")
    assert (state.iteration, state.last_step["candidate"]) == (steps, "gn")
    assert np.all(np.diff(state.objective_history) <= 0)


@pytest.mark.parametrize("seed, digest", [
    pytest.param(0, "bfa32396fef15d34", id="0"), pytest.param(1, "63a808494e7d2188", id="1"),
    pytest.param(2, "d0f2498e7ae4fc33", id="2"), pytest.param(3, "647e2ec2e2381a20", id="3"),
    pytest.param(4, "5e523afd070c9457", id="4"),
])
def test_fast_papr_zone_keeps_its_squarem_bits(monkeypatch, seed, digest):
    # (64, 10) PAPR falls fast: SQUAREM steps down to the Gauss-Newton level,
    # then Gauss-Newton points, none refused, to the target.  The objective
    # history is pinned bit for bit (sha256 of its bytes).
    import qozcp.solver as solver

    step = solver.sdamm_step
    tried = []

    def recording(*args, **kwargs):
        state = step(*args, **kwargs)
        tried.append(state.last_step["gn_iterations"])
        return state

    monkeypatch.setattr(solver, "sdamm_step", recording)
    _, state = solve(SolverConfig(L=64, Z=10, p_r=5.0, seed=seed))
    assert state.stop_reason == "target" and state.last_step["candidate"] == "gn"
    first = next(i for i, k in enumerate(tried) if k)
    assert first > 0 and all(tried[first:])
    history = np.array(state.objective_history, dtype="<f8").tobytes()
    assert hashlib.sha256(history).hexdigest()[:16] == digest


def test_sdamm_step_refuses_a_rising_gauss_newton_point(monkeypatch):
    import qozcp.solver as solver

    config, state = _start("papr", seed=0)
    start = state.z
    tries = []

    def rising(rec, config):
        tries.append(rec.objective)
        return start.copy(), 7          # the random start, far above the gate

    monkeypatch.setattr(solver, "_gauss_newton", rising)
    for _ in range(120):
        before = state
        obj = before.objective_history[-1]
        state = sdamm_step(before, config)
        assert state.objective_history[-1] <= obj
        if not state.last_step["gn_iterations"]:
            continue
        assert state.last_step["gn_iterations"] == 7
        assert state.last_step["candidate"] in ("squarem", "z1", "z2", "kept")
        assert state.gn_level == 0.1 * obj
        # the step is the SQUAREM step of a state whose gate is shut
        shut = SolverState(z=before.z, objective_history=before.objective_history[:-1],
                           record=before.record, gn_level=0.0)
        plain = sdamm_step(shut, config)
        assert np.array_equal(plain.z, state.z)
        assert plain.last_step == {**state.last_step, "gn_iterations": 0}
    # each try after a refusal waits for a tenth of the refused objective
    assert len(tries) >= 2
    assert all(later < 0.1 * earlier for earlier, later in zip(tries, tries[1:]))


def test_gauss_newton_gate_reads_the_objective_alone():
    import qozcp.solver as solver

    # unimodular (64, 18) s0 after 25 and 26 steps, objectives 0.85 and 0.40
    # on either side of the level 0.64; a bare state has no history and no record
    config = SolverConfig(L=64, Z=18, mode="unimodular", seed=0)
    level = solver._GN_LEVEL * config.L
    for steps, below in ((25, False), (26, True)):
        state = solve(SolverConfig(L=64, Z=18, mode="unimodular", seed=0, max_iter=steps))[1]
        assert (state.objective_history[-1] < level) is below
        state = sdamm_step(SolverState(z=state.z), config)
        assert (state.last_step["gn_iterations"] > 0) is below
        assert (state.last_step["candidate"] == "gn") is below


def _real_inner(a, b):
    return float(np.vdot(a, b).real)


def test_tangent_on_the_unit_circle_turns_each_phase():
    # Every entry of a unit-modulus pair is at the cap p_c = 1, so all are
    # held: the projector keeps only each entry's tangential part.
    rng = np.random.default_rng(3)
    L = 32
    u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * L))
    project = _tangent(u, np.ones(2 * L, dtype=bool), L)
    a, b = (rng.standard_normal(2 * L) + 1j * rng.standard_normal(2 * L) for _ in range(2))
    pa = project(a)
    np.testing.assert_allclose(project(pa), pa, rtol=0.0, atol=1e-14)
    assert _real_inner(pa, b) == pytest.approx(_real_inner(a, project(b)), rel=1e-13)
    assert np.abs((np.conj(u) * pa).real).max() <= 1e-14
    # the tangential part is i u Im(conj(u) a)
    np.testing.assert_allclose(pa, 1j * u * (np.conj(u) * a).imag, rtol=0.0, atol=1e-14)


def test_tangent_with_held_and_free_entries_keeps_each_row_energy():
    # a PAPR-mode point: a third of the entries held at the cap 1.5
    rng = np.random.default_rng(4)
    L = 32
    z = rng.uniform(0.2, 1.0, 2 * L) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * L))
    held = rng.uniform(size=2 * L) < 1 / 3
    z[held] *= 1.5 / np.abs(z[held])
    assert held[:L].any() and held[L:].any() and not held.all()
    project = _tangent(z, held, L)
    a, b = (rng.standard_normal(2 * L) + 1j * rng.standard_normal(2 * L) for _ in range(2))
    pa = project(a)
    np.testing.assert_allclose(project(pa), pa, rtol=0.0, atol=1e-13)
    assert _real_inner(pa, b) == pytest.approx(_real_inner(a, project(b)), rel=1e-13)
    # d||x||^2 = 2 Re<x, dx> for each row, and d|z_l| = Re(conj(z_l) dz_l) / |z_l|
    radial = (np.conj(z) * pa).real
    assert np.abs(radial.reshape(2, L).sum(axis=-1)).max() <= 1e-14 * L
    assert np.abs(radial[held]).max() <= 1e-14
    assert np.abs(radial[~held]).max() > 0.1
    # into a stale buffer: the bits of a fresh result, and the argument kept
    kept, out = a.copy(), np.full_like(a, np.nan)
    assert project(a, out) is out and np.array_equal(out, pa)
    assert np.array_equal(a, kept)


def test_gauss_newton_point_stays_on_the_unit_circle():
    # A pinned near-solution state: 60 SQUAREM steps of unimodular (64, 18)
    # s0 with the gate shut, objective 6.5e-3.
    config = SolverConfig(L=64, Z=18, mode="unimodular", seed=0, max_iter=0)
    state = solve(config)[1]
    state.gn_level = 0.0
    for _ in range(60):
        state = sdamm_step(state, config)
    assert state.iteration == 60 and state.last_step["candidate"] == "squarem"
    z_gn, iterations = _gauss_newton(state.record, config)
    assert iterations > 0
    assert np.abs(np.abs(z_gn) - 1.0).max() <= 1e-12
    assert _evaluate(z_gn, config.weights).objective < 0.1 * state.objective_history[-1]


@pytest.mark.parametrize("L, Z, seed, steps, solves, digest, cgls", [
    pytest.param(64, 30, 0, 19, 1, "e130375f6acf3615", 22, id="papr-64-30-0"),
    pytest.param(256, 150, 0, 415, 2, "376341aaafcdc163", 100, id="papr-256-150-0"),
    pytest.param(2048, 256, None, 12, 1, "89f9336b74ab8ea8", 9, id="unimodular-2048-256"),
])
def test_gauss_newton_point_keeps_its_bits(monkeypatch, L, Z, seed, steps, solves, digest, cgls):
    # A last-bit change moves no step count, so the point itself is pinned
    # (sha256 of its bytes) with its CGLS count: the first try of PAPR
    # (64, 30) s0, a PAPR (256, 150) s0 point that holds the entries pushed
    # over the cap and solves again, both solves at the CGLS cap, and the
    # first try from the zone workload's unimodular (2048, 256) start.
    import qozcp.solver as solver

    if seed is None:
        config = SolverConfig(L=L, Z=Z, mode="unimodular")
        rng = np.random.default_rng([0, 0, 1])
        z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2 * L))
        state = SolverState(z=z, objective_history=[_evaluate(z, config.weights).objective])
        lam = lambda_j(config.weights, L)
        for _ in range(steps):
            state = sdamm_step(state, config, lam_j=lam)
    else:
        config = SolverConfig(L=L, Z=Z, seed=seed)
        state = solve(SolverConfig(L=L, Z=Z, seed=seed, max_iter=steps))[1]
    assert state.iteration == steps
    level = solver._GN_LEVEL * L
    assert state.objective_history[-1] < level
    if solves == 1:
        assert state.objective_history[-2] >= level
    tangent, built = solver._tangent, []
    monkeypatch.setattr(solver, "_tangent", lambda *args: built.append(1) or tangent(*args))
    z_gn, iterations = _gauss_newton(state.record, config)
    assert (len(built), iterations) == (solves, cgls)
    assert hashlib.sha256(z_gn.tobytes()).hexdigest()[:16] == digest


def _tangent_jacobian(z, held, config, g):
    """Real rows of the weighted zone lags, cross rows scaled by g, times the tangent projector.

    The rows are those of CGLS's norm: sqrt(alpha w_|k|) dr_k and
    g sqrt((1 - alpha) wt_|k|) dc_k, split into real and imaginary parts;
    the columns are the real and imaginary parts of dz.
    """
    wp, L = config.weights, config.L
    full_w, full_wt = wp.symmetric()
    scale = np.sqrt(np.concatenate([wp.alpha * full_w[wp.band],
                                    (1.0 - wp.alpha) * g ** 2 * full_wt[wp.band]]))
    project = _tangent(z, held, L)
    columns = [project(unit * e) for unit in (1.0, 1j) for e in np.eye(2 * L)]
    projector = np.stack([np.concatenate([p.real, p.imag]) for p in columns], axis=1)
    rows = (scale[:, None] * dense_jacobian(z, wp.reach)) @ projector
    return np.concatenate([rows.real, rows.imag]), scale


@pytest.mark.parametrize("mode, steps", [("unimodular", 9), ("papr", 5)])
def test_inner_norm_changes_only_the_truncated_iterate(monkeypatch, mode, steps):
    # The first Gauss-Newton try of (16, 4) s0: below capacity the linearized
    # system is consistent, so a converged CGLS solve returns the minimum-norm
    # step whatever the row norm.  CGLS weighs the cross rows by g = 2 (alpha
    # = 1/2) for a better-conditioned operator, which only its truncated
    # iterate sees.
    import qozcp.solver as solver

    L, Z = 16, 4
    config = SolverConfig(L=L, Z=Z, mode=mode, seed=0)
    state = solve(SolverConfig(L=L, Z=Z, mode=mode, seed=0, max_iter=steps))[1]
    level = solver._GN_LEVEL * L
    assert state.objective_history[-1] < level <= state.objective_history[-2]
    solves, tangent, cgls = [], solver._tangent, solver._cgls

    def recording_tangent(z, held, L):
        solves.append([held.copy()])
        return tangent(z, held, L)

    def recording_cgls(*args):
        dz, k = cgls(*args)
        solves[-1].append(dz.copy())
        return dz, k

    monkeypatch.setattr(solver, "_tangent", recording_tangent)
    monkeypatch.setattr(solver, "_cgls", recording_cgls)
    monkeypatch.setattr(solver, "_CGLS_TOL", 1e-12)
    monkeypatch.setattr(solver, "_CGLS_MAX_ITER", 1000)
    _gauss_newton(state.record, config)
    assert solves
    z, rec = state.z, state.record
    for held, dz in solves:
        a, scale = _tangent_jacobian(z, held, config, 1.0)
        b = scale * np.concatenate([rec.r, rec.c])
        step = np.linalg.lstsq(a, -np.concatenate([b.real, b.imag]), rcond=None)[0]
        step = step[:2 * L] + 1j * step[2 * L:]
        assert np.linalg.norm(dz - step) <= 1e-8 * np.linalg.norm(step)
        # rank 6Z - 4: the system is consistent; the condition number over
        # the nonzero singular values falls under the row scaling
        cond = []
        for g in (1.0, 2.0):
            s = np.linalg.svd(_tangent_jacobian(z, held, config, g)[0], compute_uv=False)
            assert s[6 * Z - 5] > 1e-3 * s[0] and s[6 * Z - 4] < 1e-12 * s[0]
            cond.append(s[0] / s[6 * Z - 5])
        assert cond[1] < 0.75 * cond[0], cond


@pytest.mark.parametrize("mode, L, Z, seed, steps", [
    pytest.param("unimodular", 64, 21, 1, 467, id="unimodular-64-21-1"),
    pytest.param("papr", 64, 40, 0, 894, id="papr-64-40-0"),
    pytest.param("papr", 256, 150, 1, 771, id="papr-256-150-1"),
])
def test_hard_zone_reaches_target(mode, L, Z, seed, steps):
    # Zones near capacity, where SQUAREM contracts slowly: 12674 steps and
    # max_iter twice without the Gauss-Newton candidate, well under 2 s with
    # it.  (256, 150) takes 1003 steps if an entry pushed over the cap is
    # clipped instead of held.
    pair, state = solve(SolverConfig(L=L, Z=Z, mode=mode, seed=seed, max_iter=20000))
    assert (state.stop_reason, state.iteration) == ("target", steps)
    assert np.all(np.diff(state.objective_history) <= 0)
    lags = np.abs(np.arange(1 - L, L))
    assert np.max(np.abs(complementary_sum(pair)[(lags < Z) & (lags > 0)])) <= 1e-5
    assert np.max(np.abs(cross_correlation(pair.x, pair.y)[lags < Z])) <= 1e-5
