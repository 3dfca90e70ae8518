"""qozcp benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; qozcp is imported from ``src/``.  With
``--trace 0`` the run times calls into qozcp with no wrappers other than
the iterate recorder the design checks need, and reports the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced rounds on the
same inputs and reports the per-layer metrics, the tracing overhead among
them.  Human-readable lines come first; the last line of standard output is
one JSON object.  Full results, provenance and spans go to ``.perfbench/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
THREADS = str(min(2, os.cpu_count() or 1))
SETUP_PROBES = 8           # cold set-ups in child processes, plus this one

# JSON name -> unit; these are the metrics the bounds gate.  op_p50_s and
# op_tail_s are printed and kept in the result file but not gated: a round
# mixes operations whose costs differ several-fold, so the median over all of
# them falls in the gap between configurations, and the tail is the maximum
# of the ten-odd operations a run holds.
END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solver.sdamm_step.ms": "ms",
    "solver.evals_per_iter": "calls/iter",
    "solver.mm_updates_per_iter": "calls/iter",
    "solver.backtracks_per_iter": "count/iter",
    "solver.proj.calls_per_iter": "calls/iter",
    "solver.proj.ms_per_call": "ms",
    "solver.proj.step_share": "ratio",
    "solver.useful_iter_ratio": "ratio",
    "solver.iterations": "iter/round",
    "solver.objective_increases": "count/round",
    "spectral.forward_spectrum.calls_per_iter": "calls/iter",
    "spectral.gram_product.ms": "ms",
    "spectral.self_share": "ratio",
    "spectral.fft_points": "points/iter",
    "ambiguity.ambiguity_surface.ms": "ms",
    "ambiguity.zone_metrics.ms": "ms",
    "ambiguity.correlations_per_surface": "calls/surface",
    "waveform.materialize.calls": "calls/op",
    "cli.write_surface_table.ms": "ms",
    "cli.surface_rows": "rows/call",
    "cli.bytes_written": "B/op",
    "cli.write_archive.ms": "ms",
    "sequences.objective_from_correlations.calls": "calls/iter",
    "trace.overhead": "ratio",
}

def _import_qozcp() -> float:
    """Cold import of qozcp from the checkout; returns the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "qozcp", "__init__.py")):
        raise SystemExit(f"error: no qozcp package under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS
    os.environ.pop("QOZCP_OUT_DIR", None)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import qozcp
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(qozcp.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: qozcp imported from {qozcp.__file__}, not {SRC}")
    return elapsed


def _generate(workload) -> tuple[list, float]:
    t0 = time.perf_counter()
    specs = workload.prepare(0)
    return specs, time.perf_counter() - t0


def _setup_probe(name: str, seed: int) -> None:
    """Child-process set-up: cold import plus round-0 input generation."""
    import_s = _import_qozcp()
    import tempfile
    from workloads import WORKLOADS
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        _, gen_s = _generate(WORKLOADS[name](seed, work))
    print(json.dumps({"import_s": import_s, "gen_s": gen_s}))


def _probe_setup(name: str, seed: int) -> float:
    """Set-up seconds of one fresh child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"] + probe["gen_s"]


def _provenance(name: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    ref = fh.read().strip()
            else:
                ref = None
        commit = ref
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qozcp")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": os.cpu_count(), "blas": blas, "blas_threads": int(THREADS),
    }


def _tail(values: list) -> tuple[float, str]:
    """Highest percentile with ten samples beyond it; below 100 samples, the maximum."""
    import numpy as np
    n = len(values)
    if n >= 100:
        q = int(100 * (1 - 10 / n))
        return float(np.percentile(values, q)), f"p{q} of n={n}"
    return float(max(values)), f"max of n={n}"


def _median_round(ops, attr: str) -> float:
    """One round at the median: each configuration's median, summed.

    Rounds draw fresh inputs, and the time of one input can be several times
    another's (design runs that grind at the round-off floor), so per-config
    medians are steadier than the median of round totals.
    """
    by_label = {}
    for res in ops:
        by_label.setdefault(res.label, []).append(getattr(res, attr))
    return sum(statistics.median(v) for v in by_label.values())


def _run_round(workload, specs, tracer=None) -> list:
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for i, spec in enumerate(specs):
            if tracer is not None:
                tracer.op = i
            results.append(workload.run(spec))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results


def _useful_ratio(results) -> float:
    """Iterations up to the first objective <= min(a, 1-a) 1e-12, over all."""
    useful = total = 0
    for res in results:
        bound = min(res.alpha, 1 - res.alpha) * 1e-12
        for hist in res.histories:
            n = len(hist) - 1
            hit = next((i for i in range(1, n + 1) if hist[i] <= bound), n)
            useful += hit
            total += n
    return useful / total if total else 0.0


def _increases(results) -> int:
    return sum(sum(1 for a, b in zip(h, h[1:]) if b > a)
               for res in results for h in res.histories)


def _layer_metrics(tracers, traced, untraced) -> dict:
    """Per-layer metrics: counts from the first traced round, times from all."""
    first = tracers[0]
    step = "solver.sdamm_step"
    steps0 = first.under(step)
    iters0 = len(steps0)

    def per_iter(name):
        return len(first.under(name, step)) / iters0 if iters0 else 0.0

    def ms_per_call(name):
        calls = sum(len(t.under(name)) for t in tracers)
        busy = sum(t.duration_s(t.under(name)) for t in tracers)
        return busy * 1e3 / calls if calls else 0.0

    step_s = sum(t.duration_s(t.under(step)) for t in tracers)
    proj_s = sum(t.duration_s(t.under("solver.proj", step)) for t in tracers)
    spectral_s = sum(t.self_time_s([i for n in t.names if n.startswith("spectral.")
                                    for i in t.under(n, step)]) for t in tracers)
    # Surfaces of the requested N-PRI schedule, not zone_metrics' 8-PRI default.
    surfaces = first.under("ambiguity.ambiguity_surface")
    n_pri = max((first.observed[i] for i in surfaces), default=0)
    surfaces = [i for i in surfaces if first.observed[i] == n_pri]
    corr = first.under("spectral.cross_correlation_fft", roots=surfaces)
    rows = [first.observed[i] for i in first.under("cli.write_surface_table")]
    round0 = traced[0]
    n_ops = len(round0)
    overhead = [sum(r.wall_s for r in t) / sum(r.wall_s for r in u) - 1
                for t, u in zip(traced, untraced)]
    return {
        "solver.sdamm_step.ms": ms_per_call(step),
        "solver.evals_per_iter": per_iter("solver._evaluate"),
        "solver.mm_updates_per_iter": per_iter("solver._mm_update"),
        "solver.backtracks_per_iter": (sum(first.observed[i] for i in steps0) / iters0
                                       if iters0 else 0.0),
        "solver.proj.calls_per_iter": per_iter("solver.proj"),
        "solver.proj.ms_per_call": ms_per_call("solver.proj"),
        "solver.proj.step_share": proj_s / step_s if step_s else 0.0,
        "solver.useful_iter_ratio": _useful_ratio(round0),
        "solver.iterations": sum(r.iterations for r in round0),
        "solver.objective_increases": _increases(round0),
        "spectral.forward_spectrum.calls_per_iter": per_iter("spectral.forward_spectrum"),
        "spectral.gram_product.ms": ms_per_call("spectral.gram_product"),
        "spectral.self_share": spectral_s / step_s if step_s else 0.0,
        "spectral.fft_points": first.fft_points_within(steps0) / iters0 if iters0 else 0.0,
        "ambiguity.ambiguity_surface.ms": ms_per_call("ambiguity.ambiguity_surface"),
        "ambiguity.zone_metrics.ms": ms_per_call("ambiguity.zone_metrics"),
        "ambiguity.correlations_per_surface": len(corr) / len(surfaces) if surfaces else 0.0,
        "waveform.materialize.calls": len(first.under("waveform.materialize")) / n_ops,
        "cli.write_surface_table.ms": ms_per_call("cli.write_surface_table"),
        "cli.surface_rows": sum(rows) / len(rows) if rows else 0.0,
        "cli.bytes_written": sum(r.bytes_written for r in round0) / n_ops,
        "cli.write_archive.ms": ms_per_call("cli.write_archive"),
        "sequences.objective_from_correlations.calls":
            per_iter("sequences.objective_from_correlations"),
        "trace.overhead": statistics.median(overhead),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full result with provenance."""
    import_s = _import_qozcp()
    import resource
    from spans import Tracer
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work)
        specs0, gen_s = _generate(workload)
        setups = [import_s + gen_s]

        rounds, traced, untraced, tracers, walls = [], [], [], [], []
        start = time.perf_counter()
        r = 0
        while True:
            t0 = time.perf_counter()
            specs = specs0 if r == 0 else workload.prepare(r)
            if trace:
                # Same inputs traced and untraced; alternate which goes first.
                order = (False, True) if r % 2 == 0 else (True, False)
                for with_trace in order:
                    tracer = Tracer() if with_trace else None
                    res = _run_round(workload, specs, tracer)
                    (traced if with_trace else untraced).append(res)
                    if tracer:
                        tracers.append(tracer)
                    rounds.append(res)
                t_res, u_res = traced[-1], untraced[-1]
                for a, b in zip(t_res, u_res):
                    if a.iterations != b.iterations:
                        a.errors.append("iteration count differs between traced and "
                                        "untraced runs of the same inputs")
            else:
                rounds.append(_run_round(workload, specs))
            # Spread the set-up probes over the run: the host's speed drifts
            # over seconds, and probes taken back to back share one phase.
            due = 0 if trace else SETUP_PROBES * min(1.0, (time.perf_counter() - start) / seconds)
            while len(setups) - 1 < int(due):
                setups.append(_probe_setup(name, seed))
            walls.append(time.perf_counter() - t0)
            r += 1
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        measured_s = time.perf_counter() - start
        while not trace and len(setups) - 1 < SETUP_PROBES:
            setups.append(_probe_setup(name, seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [res for rnd in rounds for res in rnd]
    failed = [res for res in ops if not res.ok]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "provenance": _provenance(name, seed, seconds, int(trace)),
        "rounds": len(walls),
        "measured_s": measured_s,
        "failures": [f"{res.label}: {'; '.join(res.errors)}" for res in failed][:20],
        "ops": [{"label": res.label, "wall_s": res.wall_s, "cpu_s": res.cpu_s,
                 "iterations": res.iterations, "ok": res.ok} for res in ops],
    }
    if trace:
        result["metrics"] = {k: {"value": v, "unit": PER_LAYER[k]}
                             for k, v in _layer_metrics(tracers, traced, untraced).items()}
        result["absent"] = sorted(set().union(*(t.absent for t in tracers)))
        spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.json")
        with open(spans_path, "w") as fh:
            json.dump([{"round": i} | t.export() for i, t in enumerate(tracers)],
                      fh, separators=(",", ":"))
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        walls_op = [res.wall_s for res in ops]
        values = {
            "setup_s": statistics.median(setups),
            "round_s": _median_round(ops, "wall_s"),
            "cpu_s": _median_round(ops, "cpu_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        result["op_p50_s"] = statistics.median(walls_op)
        result["op_tail_s"], result["op_tail_label"] = _tail(walls_op)
        result["setup_samples_s"] = setups
        result["round0_iterations"] = sum(res.iterations for res in rounds[0])
    return result


def report(name: str, result: dict) -> list[str]:
    """Human-readable lines: provenance, metrics with units, failures."""
    lines = [f"provenance {json.dumps(result['provenance'], sort_keys=True)}"]
    metrics = result["metrics"]
    for key, m in metrics.items():
        lines.append(f"metric {key} = {m['value']!r} {m['unit']}")
    if "round_s" in metrics:
        # Issue-level names (design_s, iters_to_zone, ...) of round_s and of
        # the round-0 iteration count.
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "predictions.json")) as fh:
            aliases = json.load(fh)["aliases"]
        for alias, target in aliases.items():
            if target["workload"] != name:
                continue
            if target["metric"] == "round_s":
                lines.append(f"metric {alias} = {metrics['round_s']['value']!r} s "
                             f"(round_s: per-configuration medians summed, "
                             f"{result['rounds']} rounds)")
            else:
                lines.append(f"metric {alias} = {result['round0_iterations']} count "
                             f"(exact, round 0)")
        lines.append(f"metric op_p50_s = {result['op_p50_s']!r} s "
                     f"(n={len(result['ops'])} operations)")
        lines.append(f"metric op_tail_s = {result['op_tail_s']!r} s "
                     f"({result['op_tail_label']} operations)")
    lines.append(f"metric fail_rate = {result['failed'] / result['attempted']!r} ratio "
                 f"({result['failed']} failed of {result['attempted']} attempted)")
    if result.get("absent"):
        lines.append(f"absent {', '.join(result['absent'])}")
    lines.extend(f"FAILED {msg}" for msg in result["failures"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report(args.workload, result):
        print(line)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
