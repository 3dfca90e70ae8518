import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import qozcp.ambiguity
from qozcp.ambiguity import (
    OMEGA1_DOPPLER_MAX,
    OMEGA1_SAMPLES,
    OMEGA2_DOPPLER_MAX,
    OMEGA2_SAMPLES,
    DelayDopplerGrid,
    DopplerOverflowError,
    ambiguity_surface,
    taylor_coefficients,
    zone_metrics,
)
from qozcp.sequences import SequencePair, complementary_sum, cross_correlation
from qozcp.waveform import golay_pair, materialize, ptm_a_schedule, siso_schedule

from oracles import dense_cell_sum, per_pri_correlations, random_pair


def _random_schedule_pair(seed, L=16):
    rng = np.random.default_rng(seed)
    x, y = random_pair(rng, L)
    return SequencePair(x, y)


def test_grid_zone_constructor():
    g = DelayDopplerGrid.zone(5, 0.1, 11)
    assert list(g.delays) == list(range(-4, 5))
    assert g.dopplers[0] == 0.0
    assert g.dopplers[-1] == pytest.approx(0.1)


def test_grid_validation():
    with pytest.raises(ValueError):
        DelayDopplerGrid(delays=np.array([0]), dopplers=np.array([]))
    with pytest.raises(ValueError):
        DelayDopplerGrid(delays=np.array([0]), dopplers=np.array([1.0, 0.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            DelayDopplerGrid(delays=np.array([0]), dopplers=np.array([0.0, bad]))
    for bad in ([0.5], [1.7], [np.inf], [np.nan], [1e30]):
        with pytest.raises(ValueError, match="integers"):
            DelayDopplerGrid(delays=np.array(bad), dopplers=np.array([0.0]))
    grid = DelayDopplerGrid(delays=np.array([-1.0, 2.0]), dopplers=np.array([0.0]))
    assert grid.delays.tolist() == [-1, 2] and grid.delays.dtype == np.int64
    for delays, dopplers in (([[0, 1]], [0.0]), ([0], [[0.0, 1.0]]), (0, [0.0])):
        with pytest.raises(ValueError, match="1-D"):
            DelayDopplerGrid(delays=np.array(delays), dopplers=np.array(dopplers))


def test_surface_matches_brute_force():
    N = 16
    pair = _random_schedule_pair(0, L=8)
    grid = DelayDopplerGrid(delays=np.arange(-7, 8), dopplers=np.linspace(0.0, 3.0, 7))
    # PTM-A auto, PTM-A cross and SISO auto surfaces.
    for sched, a, b in _schedule_surfaces(pair, N):
        surf = ambiguity_surface(sched, a, b, grid)
        corr = [cross_correlation(materialize(sched, a, n), materialize(sched, b, n))
                for n in range(N)]
        for i, k in enumerate(grid.delays):
            for j, theta in enumerate(grid.dopplers):
                val = sum(np.exp(1j * n * theta) * corr[n][k + 7] for n in range(N))
                assert surf.values[i, j] == pytest.approx(val, abs=1e-10)


def test_surface_rejects_out_of_range_delay():
    pair = golay_pair(8)
    sched = siso_schedule(pair, 4)
    grid = DelayDopplerGrid(delays=np.array([8]), dopplers=np.array([0.0]))
    with pytest.raises(ValueError) as info:
        ambiguity_surface(sched, 0, 0, grid)
    # evaluate blames --doppler-max only for the Doppler span's own error
    assert not isinstance(info.value, DopplerOverflowError)
    # theta * n overflows at the last PRI, n = 3, though theta itself is finite
    grid = DelayDopplerGrid(delays=np.array([0]), dopplers=np.array([-1e308, 0.0]))
    with pytest.raises(DopplerOverflowError, match="overflows"):
        ambiguity_surface(sched, 0, 0, grid)


def test_caf_vanishes_at_zero_doppler():
    # Alamouti pairing cancels the cross surface exactly on the theta = 0 line
    for seed in range(5):
        pair = _random_schedule_pair(seed)
        sched = ptm_a_schedule(pair, 8)
        grid = DelayDopplerGrid(delays=np.arange(-15, 16),
                                dopplers=np.array([0.0]))
        caf = ambiguity_surface(sched, 0, 1, grid)
        scale = np.sum(np.abs(pair.x) ** 2)
        assert np.max(caf.modulus()) < 1e-12 * max(scale, 1.0)


def test_aaf_at_zero_doppler_is_scheduled_complementary_sum():
    pair = _random_schedule_pair(7)
    sched = ptm_a_schedule(pair, 8)
    grid = DelayDopplerGrid(delays=np.arange(-15, 16),
                            dopplers=np.array([0.0]))
    aaf = ambiguity_surface(sched, 0, 0, grid)
    expect = 4.0 * complementary_sum(pair)
    assert np.max(np.abs(aaf.values[:, 0] - expect)) < 1e-9


def test_golay_aaf_zero_doppler_delta():
    pair = golay_pair(64)
    sched = ptm_a_schedule(pair, 8)
    grid = DelayDopplerGrid(delays=np.arange(-63, 64),
                            dopplers=np.array([0.0]))
    aaf = ambiguity_surface(sched, 0, 0, grid)
    vals = aaf.values[:, 0]
    assert vals[63] == pytest.approx(512.0)
    assert np.max(np.abs(np.delete(vals, 63))) < 1e-9


def test_taylor_coefficients_vanish_to_order_two():
    pair = _random_schedule_pair(11)
    sched = ptm_a_schedule(pair, 8)
    reports = taylor_coefficients(sched, 0, 1, m_max=3)
    scale = float(np.sum(np.abs(pair.x) ** 2))
    for rep in reports[:3]:
        assert np.max(np.abs(rep.lag_vector)) < 1e-10 * scale
    assert np.max(np.abs(reports[3].lag_vector)) > 1e-6 * scale


@pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
def test_doppler_resilience_to_order_m(M):
    # 2^(M+1) Thue-Morse PRIs null the Doppler orders 0..M (Pezeshki,
    # Calderbank, Moran and Howard, IEEE T-IT 2008) and no more.
    N = 2 ** (M + 1)
    rng = np.random.default_rng(32)
    z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=64))
    pair = SequencePair(z[:32], z[32:])

    def tol(sched, row_a, row_b, m):
        c_max = np.max(np.abs(per_pri_correlations(sched, row_a, row_b)))
        return float(np.sum(np.arange(N, dtype=np.float64) ** m)) * c_max * 1e-12

    sched = ptm_a_schedule(pair, N)
    reports = taylor_coefficients(sched, 0, 1, m_max=M + 1)
    for rep in reports[:M + 1]:
        assert np.max(np.abs(rep.lag_vector)) <= tol(sched, 0, 1, rep.order)
    assert np.max(np.abs(reports[M + 1].lag_vector)) > tol(sched, 0, 1, M + 1)

    siso = siso_schedule(pair, N)
    comp = complementary_sum(pair)
    for rep in taylor_coefficients(siso, 0, 0, m_max=M):
        err = np.max(np.abs(rep.lag_vector - rep.beta_m * comp))
        assert err <= tol(siso, 0, 0, rep.order)


def test_taylor_beta_values():
    pair = golay_pair(8)
    sched = siso_schedule(pair, 8)
    reports = taylor_coefficients(sched, 0, 0, m_max=2)
    assert [rep.beta_m for rep in reports] == [4.0, 14.0, 70.0]


def test_siso_taylor_is_beta_times_complementary_sum():
    pair = _random_schedule_pair(13)
    sched = siso_schedule(pair, 8)
    comp = complementary_sum(pair)
    for rep in taylor_coefficients(sched, 0, 0, m_max=2):
        assert np.max(np.abs(rep.lag_vector - rep.beta_m * comp)) < 1e-9


def test_taylor_zone_split():
    pair = golay_pair(16)
    sched = ptm_a_schedule(pair, 8)
    rep = taylor_coefficients(sched, 0, 0, m_max=0, Z=4)[0]
    L = 16
    lags = np.arange(-(L - 1), L)
    vec = np.abs(rep.lag_vector)
    in_mask = (np.abs(lags) < 4) & (lags != 0)
    assert rep.in_zone_max == pytest.approx(float(np.max(vec[in_mask])))
    assert rep.out_zone_max == pytest.approx(float(np.max(vec[~((np.abs(lags) < 4) & (lags != 0))])))


def test_taylor_rejects_zone_out_of_range():
    pair = golay_pair(16)
    sched = ptm_a_schedule(pair, 8)
    for bad in (-1, 0, 1, 17):
        with pytest.raises(ValueError, match="zone"):
            taylor_coefficients(sched, 0, 0, m_max=1, Z=bad)
    with pytest.raises(ValueError, match="m_max must be nonnegative"):
        taylor_coefficients(sched, 0, 0, m_max=-1, Z=8)
    assert taylor_coefficients(sched, 0, 0, m_max=0, Z=16)[0].out_zone_max == pytest.approx(128.0)


def test_schedule_rows_out_of_range_are_value_errors():
    pair = golay_pair(8)
    grid = DelayDopplerGrid.zone(4, 3.0, 3)
    ptm_a, siso = ptm_a_schedule(pair, 8), siso_schedule(pair, 8)
    for sched, a, b in ((ptm_a, 0, 2), (ptm_a, 2, 2), (ptm_a, 0, -1), (ptm_a, -1, -1),
                        (siso, 0, 1), (siso, 1, 1)):
        with pytest.raises(ValueError, match="row"):
            ambiguity_surface(sched, a, b, grid)
        with pytest.raises(ValueError, match="row"):
            taylor_coefficients(sched, a, b, m_max=1)


def test_zone_metrics_golay():
    pair = golay_pair(64)
    m = zone_metrics(pair, 30)
    assert m.max_complementary_sidelobe_in_zone == pytest.approx(0.0, abs=1e-10)
    assert m.max_cross_correlation_in_zone > 1.0
    assert m.max_caf_omega2 >= 1.0
    assert m.peak_value == pytest.approx(512.0)
    assert m.max_aaf_sidelobe_omega1 < m.peak_value


def test_zone_metrics_rejects_zone_out_of_range():
    pair = golay_pair(16)
    for bad in (-1, 0, 1, 17):
        with pytest.raises(ValueError, match="zone"):
            zone_metrics(pair, bad)
    assert zone_metrics(pair, 16).peak_value == pytest.approx(128.0)


def test_zone_metrics_default_grids():
    # defaults use the documented evaluation spans
    assert OMEGA1_DOPPLER_MAX == 0.1
    assert OMEGA2_DOPPLER_MAX == 3.0
    assert OMEGA1_SAMPLES == 256
    assert OMEGA2_SAMPLES == 512


def test_zone_metrics_siso_has_no_cross_surface():
    pair = golay_pair(16)
    m = zone_metrics(pair, 8, schedule=siso_schedule(pair, 8))
    assert m.max_caf_omega2 == 0.0


def test_zone_metrics_rejects_a_schedule_of_another_pair():
    # the report's correlation maxima come from the pair, its surfaces from
    # the schedule, so both must describe one pair
    pair = golay_pair(64)
    for other in (golay_pair(32), SequencePair(pair.y, pair.x)):
        with pytest.raises(ValueError, match="another pair"):
            zone_metrics(pair, 10, schedule=ptm_a_schedule(other, 8))
    same = SequencePair(pair.x.copy(), pair.y.copy())
    assert zone_metrics(pair, 10, schedule=ptm_a_schedule(same, 8)) == zone_metrics(pair, 10)


def test_zone_metrics_as_dict_round_trip():
    pair = golay_pair(16)
    m = zone_metrics(pair, 8)
    d = asdict(m)
    assert set(d) == {
        "max_complementary_sidelobe_in_zone",
        "max_cross_correlation_in_zone",
        "max_aaf_sidelobe_omega1",
        "max_caf_omega2",
        "peak_value",
    }
    assert d["peak_value"] == m.peak_value


def _schedule_surfaces(pair, N):
    """(schedule, row_a, row_b) for every surface evaluate and zone_metrics draw."""
    ptm_a = ptm_a_schedule(pair, N)
    return [(ptm_a, 0, 0), (ptm_a, 0, 1), (siso_schedule(pair, N), 0, 0)]


@pytest.mark.parametrize("N", [8, 64])
def test_per_pri_correlations_match_materialized_oracle(N):
    for pair in (_random_schedule_pair(21), golay_pair(16)):
        for sched, a, b in _schedule_surfaces(pair, N):
            # Identity weights pick out each PRI's own correlation.
            lags = np.arange(-(pair.length - 1), pair.length)
            corr = qozcp.ambiguity._cell_sum(sched, a, b, lambda n: np.eye(N)[:, n], lags).T
            assert np.array_equal(corr, per_pri_correlations(sched, a, b))


def test_correlations_run_once_per_distinct_cell(monkeypatch):
    # One stacked call per surface, one row per distinct cell pair.
    calls = []
    fft_corr = qozcp.ambiguity.cross_correlation_fft

    def counting(x, y):
        calls.append(len(x))
        return fft_corr(x, y)

    monkeypatch.setattr(qozcp.ambiguity, "cross_correlation_fft", counting)
    pair = _random_schedule_pair(22)
    grid = DelayDopplerGrid.zone(8, 3.0, 5)
    for (sched, a, b), cells in zip(_schedule_surfaces(pair, 64), (3, 3, 2)):
        calls.clear()
        ambiguity_surface(sched, a, b, grid)
        assert calls == [cells]


@pytest.mark.parametrize("N", [8, 64, 1024])
def test_cell_sums_match_dense_table_oracle(N):
    # The full N-column tables summed per cell, as the oracle does, give the
    # same bits as building each cell's columns from its own PRIs.
    pair = _random_schedule_pair(23)
    grid = DelayDopplerGrid(delays=np.arange(-15, 16),
                            dopplers=np.array([-3.0, -1.25, -0.1, -0.0, 0.0, 0.1, 0.7, 3.0]))
    lags = np.arange(-(pair.length - 1), pair.length)
    n = np.arange(N)
    phases = 1j * np.outer(grid.dopplers, n)
    np.exp(phases, out=phases)
    n_pow = n.astype(np.float64) ** np.arange(7)[:, None]
    for sched, a, b in _schedule_surfaces(pair, N):
        values = ambiguity_surface(sched, a, b, grid).values
        want = dense_cell_sum(sched, a, b, phases, grid.delays)
        assert np.array_equal(values, want) and values.tobytes() == want.tobytes()
        vecs = np.stack([r.lag_vector for r in taylor_coefficients(sched, a, b, 6)], axis=1)
        want = dense_cell_sum(sched, a, b, n_pow, lags)
        assert np.array_equal(vecs, want) and vecs.tobytes() == want.tobytes()


def test_surface_memory_stays_below_the_full_phase_table():
    # Each cell's phase sums come from that cell's PRIs alone, so the peak
    # scales with D x the largest cell (half of the PRIs), not D x N.
    N, D = 1024, 512
    sched = ptm_a_schedule(_random_schedule_pair(24), N)
    grid = DelayDopplerGrid.zone(8, OMEGA2_DOPPLER_MAX, D)
    tracemalloc.start()
    try:
        ambiguity_surface(sched, 0, 0, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < N * D * 16


def test_modulus_is_abs_of_each_python_complex():
    # np.abs differs from abs(complex) in the last bit on about a third of
    # these entries; the CSV writer and zone_metrics both read modulus().
    sched = ptm_a_schedule(_random_schedule_pair(25, L=256), 1024)
    grid = DelayDopplerGrid.zone(100, OMEGA2_DOPPLER_MAX, OMEGA2_SAMPLES)
    surface = ambiguity_surface(sched, 0, 1, grid)
    values = surface.values.ravel().tolist()
    assert surface.modulus().ravel().tolist() == [abs(v) for v in values]
    assert np.any(np.abs(surface.values) != surface.modulus())
