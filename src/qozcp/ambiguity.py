"""Delay-Doppler evaluation of transmit schedules.

The ambiguity value at delay k and Doppler increment theta (radians per PRI)
is the Doppler-phased sum of per-PRI correlations,

    g(k, theta) = sum_n exp(j n theta) * C_{a_n, b_n}(k),

auto-ambiguity when both rows coincide and cross-ambiguity otherwise.
Per-PRI correlations are computed with the FFT path once per distinct cell
pair (a_n, b_n) -- three for a PTM-A surface and two for PTM-SISO, whatever
the number of PRIs -- in one stacked call per surface, and reused for every
PRI and Doppler sample.  The sign, reversal and conjugation identities
between the cells are not encoded; the tests compare the stack with one
materialized correlation per PRI.
"""

from dataclasses import dataclass

import numpy as np

from .sequences import SequencePair
from .spectral import correlations_from_spectra, cross_correlation_fft, forward_spectrum
from .waveform import TransmitSchedule, materialize, ptm, ptm_a_schedule, prouhet_partition_sums

__all__ = [
    "DelayDopplerGrid",
    "AmbiguitySurface",
    "TaylorReport",
    "MetricsReport",
    "ambiguity_surface",
    "taylor_coefficients",
    "zone_metrics",
]

OMEGA1_DOPPLER_MAX = 0.1
OMEGA1_SAMPLES = 256
OMEGA2_DOPPLER_MAX = 3.0
OMEGA2_SAMPLES = 512


@dataclass
class DelayDopplerGrid:
    """Integer delays -K..K and a sorted list of Doppler phases."""

    delays: np.ndarray
    dopplers: np.ndarray

    def __post_init__(self):
        self.delays = np.asarray(self.delays, dtype=np.int64)
        self.dopplers = np.asarray(self.dopplers, dtype=np.float64)
        if self.dopplers.size == 0:
            raise ValueError("doppler list must be non-empty")
        if not np.all(np.isfinite(self.dopplers)):
            raise ValueError("doppler values must be finite")
        if np.any(np.diff(self.dopplers) < 0):
            raise ValueError("doppler list must be sorted")

    @classmethod
    def zone(cls, Z: int, doppler_max: float, samples: int) -> "DelayDopplerGrid":
        # linspace would spread a non-finite bound with a RuntimeWarning first.
        if not np.isfinite(doppler_max):
            raise ValueError("doppler values must be finite")
        return cls(
            delays=np.arange(-(Z - 1), Z),
            dopplers=np.linspace(0.0, doppler_max, samples),
        )


@dataclass
class AmbiguitySurface:
    grid: DelayDopplerGrid
    values: np.ndarray           # len(delays) x len(dopplers)

    def modulus(self) -> np.ndarray:
        return np.abs(self.values)


@dataclass
class TaylorReport:
    """Order-m Doppler Taylor coefficient of a surface, as a lag vector."""

    order: int
    lag_vector: np.ndarray
    beta_m: float
    in_zone_max: float
    out_zone_max: float


@dataclass
class MetricsReport:
    """The four tabulated zone metrics plus the matched-filter peak."""

    max_complementary_sidelobe_in_zone: float
    max_cross_correlation_in_zone: float
    max_aaf_sidelobe_omega1: float
    max_caf_omega2: float
    peak_value: float


def _per_pri_correlations(schedule: TransmitSchedule, row_a: int, row_b: int) -> np.ndarray:
    """Stack of C_{a_n, b_n}(k) lag vectors, one row per PRI.

    Each distinct cell pair (a_n, b_n) is correlated once, at the first PRI
    that carries it, all of them in one stacked call; the stack repeats
    those rows.
    """
    cells = list(zip(schedule.assignments[row_a], schedule.assignments[row_b]))
    first: dict = {}
    for n, cell in enumerate(cells):
        first.setdefault(cell, n)
    pris = list(first.values())
    distinct = cross_correlation_fft(np.stack([materialize(schedule, row_a, n) for n in pris]),
                                     np.stack([materialize(schedule, row_b, n) for n in pris]))
    slot = {cell: i for i, cell in enumerate(first)}
    return distinct[[slot[cell] for cell in cells]]


def ambiguity_surface(schedule: TransmitSchedule, row_a: int, row_b: int,
                      grid: DelayDopplerGrid) -> AmbiguitySurface:
    """Evaluate the (auto- or cross-) ambiguity surface over the grid."""
    L = schedule.pair.length
    if np.any(np.abs(grid.delays) > L - 1):
        raise ValueError("grid delay exceeds L-1")
    rows = grid.delays + (L - 1)
    # Only the grid's lags are kept, and the phases are exponentiated in
    # place, so the N x (2L-1) stack and a second N x D array never coexist.
    corr = _per_pri_correlations(schedule, row_a, row_b)[:, rows]
    n = np.arange(schedule.n_pri)
    phases = 1j * np.outer(n, grid.dopplers)
    np.exp(phases, out=phases)
    values = corr.T @ phases
    return AmbiguitySurface(grid=grid, values=values)


def taylor_coefficients(schedule: TransmitSchedule, row_a: int, row_b: int,
                        m_max: int, Z: int | None = None) -> list[TaylorReport]:
    """Lag-domain Doppler Taylor coefficients sum_n n^m C_{a_n, b_n}(k).

    ``beta_m`` is the shared power sum of the Thue-Morse index classes.  The
    zone split uses Z when given (full range otherwise); the zero lag is
    excluded from the in-zone maximum for auto surfaces only.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    L = schedule.pair.length
    corr = _per_pri_correlations(schedule, row_a, row_b)
    bits = ptm(schedule.n_pri)
    lags = np.arange(-(L - 1), L)
    zone = L if Z is None else Z
    in_zone = np.abs(lags) < zone
    if row_a == row_b:
        in_zone &= lags != 0
    reports = []
    for m in range(m_max + 1):
        n_pow = np.arange(schedule.n_pri, dtype=np.float64) ** m
        vec = n_pow @ corr
        _, beta_m = prouhet_partition_sums(bits, m)
        reports.append(TaylorReport(
            order=m,
            lag_vector=vec,
            beta_m=beta_m,
            in_zone_max=float(np.max(np.abs(vec[in_zone]))) if np.any(in_zone) else 0.0,
            out_zone_max=float(np.max(np.abs(vec[~in_zone]))) if np.any(~in_zone) else 0.0,
        ))
    return reports


def zone_metrics(pair: SequencePair, Z: int,
                 schedule: TransmitSchedule | None = None) -> MetricsReport:
    """Zone maxima of the pair correlations and the V/H ambiguity surfaces.

    The evaluation regions are the tabulated ones: delays |k| < Z inside the
    zone, 1 < Z <= L, Doppler spans [0, 0.1] for the auto surface and [0, 3]
    for the cross surface, with an 8-PRI two-row schedule unless one is
    given.  The pair correlations come from the same FFT path as the
    solver's objective.
    """
    if not 1 < Z <= pair.length:
        raise ValueError("zone must satisfy 1 < Z <= L")
    if schedule is None:
        schedule = ptm_a_schedule(pair, 8)

    r, c = correlations_from_spectra(forward_spectrum(np.stack([pair.x, pair.y])), Z)

    omega1 = DelayDopplerGrid.zone(Z, OMEGA1_DOPPLER_MAX, OMEGA1_SAMPLES)
    aaf = ambiguity_surface(schedule, 0, 0, omega1).modulus()
    if schedule.rows == 2:
        omega2 = DelayDopplerGrid.zone(Z, OMEGA2_DOPPLER_MAX, OMEGA2_SAMPLES)
        caf_max = float(np.max(ambiguity_surface(schedule, 0, 1, omega2).modulus()))
    else:
        caf_max = 0.0

    # Index Z-1 of r and row Z-1 of the zone grid are delay 0; column 0 is theta = 0.
    return MetricsReport(
        max_complementary_sidelobe_in_zone=float(np.max(np.abs(np.delete(r, Z - 1)))),
        max_cross_correlation_in_zone=float(np.max(np.abs(c))),
        max_aaf_sidelobe_omega1=float(np.max(np.delete(aaf, Z - 1, axis=0))),
        max_caf_omega2=caf_max,
        peak_value=float(aaf[Z - 1, 0]),
    )
