"""The three benchmark workloads: inputs from a seed, timed operations, checks.

A workload is a sequence of rounds.  Round ``r`` draws its inputs from
``(seed, r)`` alone, so the same seed gives the same inputs and the same
exact counts in every run, however many rounds the time budget allows.  One
operation is one ``qozcp design`` call, one run of ``sdamm_step`` to the zone
target, or one ``qozcp evaluate`` call.  Only the calls into qozcp are timed;
the checks that follow each operation are not.
"""

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

import qozcp.cli
import qozcp.solver
from qozcp.sequences import (
    SequencePair,
    WeightProfile,
    complementary_sum,
    cross_correlation,
    objective_from_correlations,
)
from qozcp.spectral import correlations_via_fft
from qozcp.waveform import materialize, ptm_a_schedule, siso_schedule

ZONE_BOUND = 1e-5      # the acceptance suite's bound on in-zone maxima
ZONE_TARGET = 1e-6     # zone-target stop: both in-zone maxima at or below this
MONOTONE_REL = 1e-9    # the acceptance suite's relative monotonicity tolerance
FEASIBLE_REL = 1e-9    # energy and cap tolerance, as in the acceptance suite
UNIMODULAR_ABS = 1e-12
EPS = np.finfo(float).eps


@dataclass
class OpResult:
    """One timed operation and the outcome of its checks."""

    label: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    iterations: int = 0
    bytes_written: int = 0
    histories: list = field(default_factory=list)   # objective histories seen
    alpha: float = 0.5
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _round_rng(seed: int, r: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, r, *tags])


def _zone_maxima_direct(pair: SequencePair, Z: int) -> tuple[float, float]:
    """In-zone maxima of |C_x + C_y| (k != 0) and |C_xy| by direct sums."""
    L = pair.length
    r = complementary_sum(pair)
    c = cross_correlation(pair.x, pair.y)
    lags = np.arange(-(L - 1), L)
    comp = (np.abs(lags) < Z) & (lags != 0)
    return float(np.max(np.abs(r[comp]))), float(np.max(np.abs(c[np.abs(lags) < Z])))


def _zone_maxima_fft(z: np.ndarray, Z: int) -> float:
    """Larger in-zone maximum by the bench's own FFT correlations."""
    L = z.size // 2
    f = np.fft.fft(z.reshape(2, L), n=2 * L, axis=1)
    r = np.fft.ifft(np.abs(f[0]) ** 2 + np.abs(f[1]) ** 2)
    c = np.fft.ifft(f[0] * np.conj(f[1]))
    # circular index m holds lag +-m; lag 0 of r is the peak
    near = np.r_[1:Z, 2 * L - Z + 1:2 * L]
    return max(float(np.max(np.abs(r[near]))),
               float(np.max(np.abs(c[np.r_[0, near]]))))


def roundoff_floor(wp: WeightProfile, p_e: float) -> float:
    """Objective change that the FFT evaluation cannot resolve.

    Each correlation lag carries an error up to about eps * log2(2L) * 2 p_e
    (the FFT bound with the zero-lag peak 2 p_e as scale); squared and
    weighted, that bounds how far two evaluations of equal objectives differ.
    """
    full_w, full_wt = wp.symmetric()
    weight = wp.alpha * float(full_w.sum()) + (1 - wp.alpha) * float(full_wt.sum())
    return weight * (EPS * np.log2(2 * wp.L) * 2 * p_e) ** 2


def check_history(hist, floor: float) -> list:
    """Objective history must not increase beyond round-off."""
    h = np.asarray(hist, dtype=float)
    if h.size < 2:
        return []
    rise = np.diff(h)
    allowed = np.maximum(MONOTONE_REL * h[:-1], floor)
    bad = np.nonzero(rise > allowed)[0]
    if bad.size:
        i = int(bad[0])
        return [f"objective rose at iteration {i + 1}: {h[i]:.3e} -> {h[i + 1]:.3e}"]
    return []


def check_feasible(z: np.ndarray, mode: str, p_e: float, p_c: float) -> str | None:
    L = z.size // 2
    for half in (z[:L], z[L:]):
        mag = np.abs(half)
        if mode == "unimodular":
            if np.max(np.abs(mag - 1.0)) > UNIMODULAR_ABS:
                return "iterate leaves the unit circle"
        else:
            energy = float(np.sum(mag ** 2))
            if abs(energy - p_e) > FEASIBLE_REL * p_e:
                return f"iterate energy {energy!r} != p_e {p_e!r}"
            if np.max(mag) > p_c * (1 + FEASIBLE_REL):
                return "iterate exceeds the PAPR cap"
    return None


@contextlib.contextmanager
def _record_iterates(sink: list):
    """Keep a reference to every iterate ``sdamm_step`` returns.

    The wrapper adds one list append per iteration so that every iterate of
    a CLI design can be checked afterwards; it records no times.
    """
    orig = qozcp.solver.sdamm_step

    def recorder(*args, **kwargs):
        state = orig(*args, **kwargs)
        sink.append(state.z)
        return state

    qozcp.solver.sdamm_step = recorder
    try:
        yield
    finally:
        qozcp.solver.sdamm_step = orig


def _run_cli(argv: list) -> tuple[int, float, float, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        code = qozcp.cli.main(argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, wall, cpu, err.getvalue().strip()


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self, r: int) -> list:
        """Generate the inputs of round r; returns one spec per operation."""
        raise NotImplementedError

    def run(self, spec) -> OpResult:
        raise NotImplementedError


class DesignWorkload(Workload):
    """`qozcp design` in PAPR mode, one restart, capped iterations."""

    name = "design-L64-papr"
    configs = ((64, 30), (64, 10))
    papr = 5.0
    max_iter = 1000

    def prepare(self, r):
        specs = []
        for i, (L, Z) in enumerate(self.configs):
            solver_seed = int(_round_rng(self.seed, r, i).integers(0, 2 ** 31))
            out = os.path.join(self.workdir, f"design_L{L}_Z{Z}.json")
            specs.append((L, Z, solver_seed, out))
        return specs

    def run(self, spec):
        L, Z, solver_seed, out = spec
        res = OpResult(label=f"design L={L} Z={Z}")
        argv = ["design", "--length", str(L), "--zone", str(Z), "--papr", repr(self.papr),
                "--max-iter", str(self.max_iter), "--restarts", "1",
                "--seed", str(solver_seed), "--out", out]
        iterates = []
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        try:
            with _record_iterates(iterates):
                code, res.wall_s, res.cpu_s, err = _run_cli(argv)
        except Exception as exc:   # a crash in the program is a failed operation
            res.errors.append(f"raised {type(exc).__name__}: {exc}")
            return res
        if code != 0:
            res.errors.append(f"exit code {code}: {err}")
            return res
        res.bytes_written = os.path.getsize(out)
        res.errors.extend(self.check(out, L, Z, iterates, res))
        return res

    def check(self, path, L, Z, iterates, res) -> list:
        errors = []
        pair, doc = qozcp.cli.read_archive(path)
        cfg = qozcp.solver.SolverConfig(L=L, Z=Z, mode="papr", p_r=self.papr)
        res.alpha = cfg.alpha
        hist = doc.get("objective_history", [])
        res.histories.append(hist)
        res.iterations = len(hist) - 1
        comp, cross = _zone_maxima_direct(pair, Z)
        if max(comp, cross) > ZONE_BOUND:
            errors.append(f"in-zone maxima {comp:.3e}, {cross:.3e} exceed {ZONE_BOUND}")
        if not iterates:
            errors.append("no iterate passed through qozcp.solver.sdamm_step")
        elif len(iterates) != res.iterations:
            errors.append(f"history has {len(hist)} entries for {len(iterates)} iterations")
        for z in iterates:
            bad = check_feasible(z, "papr", cfg.p_e, cfg.p_c)
            if bad:
                errors.append(bad)
                break
        errors.extend(check_history(hist, roundoff_floor(cfg.weights, cfg.p_e)))
        # Lossless round trip: the archived x, y reproduce the solver's final
        # iterate bit for bit.
        if iterates and not np.array_equal(np.concatenate([pair.x, pair.y]), iterates[-1]):
            errors.append("archived pair differs from the final iterate")
        return errors


class ZoneTargetWorkload(Workload):
    """`sdamm_step` driven from a random unit-modulus start to the zone target."""

    name = "zone-target-L4096-unimodular"
    configs = ((4096, 256), (2048, 256))
    iteration_cap = 1500

    def prepare(self, r):
        specs = []
        for i, (L, Z) in enumerate(self.configs):
            rng = _round_rng(self.seed, r, i)
            z0 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2 * L))
            cfg = qozcp.solver.SolverConfig(L=L, Z=Z, mode="unimodular")
            specs.append((cfg, z0))
        return specs

    def run(self, spec):
        cfg, z0 = spec
        L, Z = cfg.L, cfg.Z
        res = OpResult(label=f"zone L={L} Z={Z}", alpha=cfg.alpha)
        solver = qozcp.solver
        wp = cfg.weights
        lam = solver.lambda_j(wp, L)
        pair0 = SequencePair(z0[:L], z0[L:])
        state = solver.SolverState(
            z=z0, objective_history=[objective_from_correlations(*correlations_via_fft(pair0), wp)])
        reached = False
        try:
            for _ in range(self.iteration_cap):
                t0, c0 = time.perf_counter(), time.process_time()
                state = solver.sdamm_step(state, cfg, lam_j=lam)
                res.wall_s += time.perf_counter() - t0
                res.cpu_s += time.process_time() - c0
                res.iterations += 1
                bad = check_feasible(state.z, "unimodular", cfg.p_e, cfg.p_c)
                if bad:
                    res.errors.append(bad)
                    break
                if _zone_maxima_fft(state.z, Z) <= ZONE_TARGET:
                    reached = True
                    break
        except Exception as exc:
            res.errors.append(f"raised {type(exc).__name__}: {exc}")
            return res
        if not reached and not res.errors:
            res.errors.append(f"zone target not met in {self.iteration_cap} iterations")
        res.histories.append(list(state.objective_history))
        res.errors.extend(check_history(state.objective_history, roundoff_floor(wp, cfg.p_e)))
        comp, cross = _zone_maxima_direct(state.pair, Z)
        if max(comp, cross) > ZONE_BOUND:
            res.errors.append(f"in-zone maxima {comp:.3e}, {cross:.3e} exceed {ZONE_BOUND}")
        return res


class EvaluateWorkload(Workload):
    """`qozcp evaluate --pri N` on a bench-written archive of a random pair."""

    name = "evaluate-L256-N1024"
    L, Z, n_pri = 256, 100, 1024
    schedules = ("ptm-a", "ptm-siso")
    doppler_samples = 512      # the CLI default grid
    sampled_lags = 4

    def prepare(self, r):
        rng = _round_rng(self.seed, r)
        z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2 * self.L))
        pair = SequencePair(z[:self.L], z[self.L:], meta={"seed": self.seed})
        archive = os.path.join(self.workdir, "pair.json")
        cfg = qozcp.solver.SolverConfig(L=self.L, Z=self.Z, mode="unimodular", seed=self.seed)
        qozcp.cli.write_archive(archive, pair, cfg, metrics={})
        lags = rng.choice(np.arange(-(self.Z - 1), self.Z), size=self.sampled_lags,
                          replace=False)
        return [(archive, pair, s, sorted(int(k) for k in lags)) for s in self.schedules]

    def run(self, spec):
        archive, pair, schedule, lags = spec
        prefix = os.path.join(self.workdir, f"eval_{schedule}")
        res = OpResult(label=f"evaluate {schedule}")
        outputs = [f"{prefix}_aaf.csv", f"{prefix}_metrics.json"]
        if schedule == "ptm-a":
            outputs.insert(1, f"{prefix}_caf.csv")
        for path in outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        argv = ["evaluate", "--pair", archive, "--schedule", schedule,
                "--pri", str(self.n_pri), "--out-prefix", prefix]
        try:
            code, res.wall_s, res.cpu_s, err = _run_cli(argv)
        except Exception as exc:
            res.errors.append(f"raised {type(exc).__name__}: {exc}")
            return res
        if code != 0:
            res.errors.append(f"exit code {code}: {err}")
            return res
        missing = [p for p in outputs if not os.path.exists(p)]
        if missing:
            res.errors.append(f"missing outputs {missing}")
            return res
        res.bytes_written = sum(os.path.getsize(p) for p in outputs)
        sched = (ptm_a_schedule if schedule == "ptm-a" else siso_schedule)(pair, self.n_pri)
        rows = [(0, 0)] + ([(0, 1)] if schedule == "ptm-a" else [])
        for (a, b), path in zip(rows, outputs):
            res.errors.extend(self.check_surface(path, sched, a, b, lags))
        return res

    def check_surface(self, path, sched, row_a, row_b, lags) -> list:
        """Row count and zero-Doppler column against direct per-PRI sums."""
        expected_rows = (2 * self.Z - 1) * self.doppler_samples
        zero = {}
        n_rows = 0
        with open(path) as fh:
            if fh.readline().strip() != "k,theta,re,im,modulus":
                return [f"{os.path.basename(path)}: bad header"]
            for line in fh:
                fields = line.rstrip("\n").split(",")
                if len(fields) != 5:
                    return [f"{os.path.basename(path)}: malformed row {n_rows + 1}"]
                n_rows += 1
                if float(fields[1]) == 0.0:
                    zero[int(fields[0])] = complex(float(fields[2]), float(fields[3]))
        errors = []
        if n_rows != expected_rows:
            errors.append(f"{os.path.basename(path)}: {n_rows} rows, expected {expected_rows}")
        A = np.stack([materialize(sched, row_a, n) for n in range(sched.n_pri)])
        B = np.stack([materialize(sched, row_b, n) for n in range(sched.n_pri)])
        L = A.shape[1]
        scale = sched.n_pri * float(np.max(np.abs(A)) * np.max(np.abs(B))) * L
        for k in lags:
            # C_ab(k) = sum_l a[l] conj(b[l+k]), summed over PRIs
            if k >= 0:
                want = np.sum(A[:, :L - k] * np.conj(B[:, k:]))
            else:
                want = np.sum(A[:, -k:] * np.conj(B[:, :L + k]))
            got = zero.get(k)
            if got is None or abs(got - want) > 1e-12 * scale:
                errors.append(f"{os.path.basename(path)}: zero-Doppler value at k={k} "
                              f"is {got}, direct sum gives {want}")
                break
        return errors


WORKLOADS = {w.name: w for w in (DesignWorkload, ZoneTargetWorkload, EvaluateWorkload)}
