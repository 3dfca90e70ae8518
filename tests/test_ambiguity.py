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
    ambiguity_surface,
    taylor_coefficients,
    zone_metrics,
)
from qozcp.sequences import SequencePair, WeightProfile, complementary_sum, cross_correlation
from qozcp.waveform import golay_pair, ptm_a_schedule, siso_schedule

from oracles import per_pri_correlations, random_pair


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


def test_surface_matches_brute_force():
    pair = _random_schedule_pair(0, L=8)
    sched = ptm_a_schedule(pair, 4)
    grid = DelayDopplerGrid(delays=np.arange(-7, 8),
                            dopplers=np.array([0.0, 0.3, 1.7]))
    surf = ambiguity_surface(sched, 0, 1, grid)
    from qozcp.waveform import materialize

    for i, k in enumerate(grid.delays):
        for j, theta in enumerate(grid.dopplers):
            val = 0.0 + 0.0j
            for n in range(4):
                c = cross_correlation(materialize(sched, 0, n),
                                      materialize(sched, 1, n))
                val += np.exp(1j * n * theta) * c[k + 7]
            assert surf.values[i, j] == pytest.approx(val, abs=1e-10)


def test_surface_rejects_out_of_range_delay():
    pair = golay_pair(8)
    sched = siso_schedule(pair, 4)
    grid = DelayDopplerGrid(delays=np.array([8]), dopplers=np.array([0.0]))
    with pytest.raises(ValueError):
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


def test_zone_metrics_golay():
    pair = golay_pair(64)
    wp = WeightProfile.indicator(64, 30)
    m = zone_metrics(pair, wp)
    assert m.max_complementary_sidelobe_in_zone == pytest.approx(0.0, abs=1e-10)
    assert m.max_cross_correlation_in_zone > 1.0
    assert m.max_caf_omega2 >= 1.0
    assert m.peak_value == pytest.approx(512.0)
    assert m.max_aaf_sidelobe_omega1 < m.peak_value


def test_zone_metrics_default_grids():
    # defaults use the documented evaluation spans
    assert OMEGA1_DOPPLER_MAX == 0.1
    assert OMEGA2_DOPPLER_MAX == 3.0
    assert OMEGA1_SAMPLES == 256
    assert OMEGA2_SAMPLES == 512


def test_zone_metrics_siso_has_no_cross_surface():
    pair = golay_pair(16)
    wp = WeightProfile.indicator(16, 8)
    m = zone_metrics(pair, wp, schedule=siso_schedule(pair, 8))
    assert m.max_caf_omega2 == 0.0


def test_zone_metrics_as_dict_round_trip():
    pair = golay_pair(16)
    wp = WeightProfile.indicator(16, 8)
    m = zone_metrics(pair, wp)
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
            corr = qozcp.ambiguity._per_pri_correlations(sched, a, b)
            assert np.array_equal(corr, per_pri_correlations(sched, a, b))


def test_correlations_run_once_per_distinct_cell(monkeypatch):
    calls = []
    fft_corr = qozcp.ambiguity.cross_correlation_fft

    def counting(x, y):
        calls.append(1)
        return fft_corr(x, y)

    monkeypatch.setattr(qozcp.ambiguity, "cross_correlation_fft", counting)
    pair = _random_schedule_pair(22)
    grid = DelayDopplerGrid.zone(8, 3.0, 5)
    for (sched, a, b), budget in zip(_schedule_surfaces(pair, 64), (3, 3, 2)):
        calls.clear()
        ambiguity_surface(sched, a, b, grid)
        assert 1 <= len(calls) <= budget
