"""Command-line front end: design pairs, evaluate schedules, compare metrics.

Pairs are persisted as JSON archives with explicit [re, im] entry lists so
they diff cleanly and round-trip losslessly; surfaces are written as CSV
tables with one row per (delay, doppler) cell.

Exit codes: 0 success, 2 usage or data error, 1 internal failure.  A pair
whose correlations overflow the float range is a data error.  The
environment variable ``QOZCP_OUT_DIR`` supplies a default directory for
relative output paths.  Before any work, each output's directory must be
writable, no output path or prefix may be empty and no output may name an
existing directory.
Every output is written to a temporary file in its directory that replaces
the target only once complete; ``evaluate`` replaces its tables and metrics
together, after all of them are written.
"""

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .ambiguity import (
    OMEGA2_DOPPLER_MAX,
    OMEGA2_SAMPLES,
    AmbiguitySurface,
    DelayDopplerGrid,
    DopplerOverflowError,
    ambiguity_surface,
    zone_metrics,
)
from .sequences import SequencePair, check_zone
from .solver import SolverConfig, solve
from .waveform import TransmitSchedule, golay_pair, ptm_a_schedule, siso_schedule

ARCHIVE_FORMAT_VERSION = 1


class UsageError(Exception):
    """Bad flag combination or unreadable input; maps to exit code 2."""


def _resolve_out(path: str, suffixes=("",)) -> str:
    """Apply ``QOZCP_OUT_DIR``, check that ``path`` is not empty, that the
    output directory is writable and that no output ``path + suffix`` is an
    existing directory."""
    if not path:
        raise UsageError("output path is empty")
    base = os.environ.get("QOZCP_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise UsageError(f"output directory {directory!r} is missing or not writable")
    for target in (path + suffix for suffix in suffixes):
        if os.path.isdir(target):
            raise UsageError(f"output {target!r} is a directory")
    return path


@contextlib.contextmanager
def _staged(paths: list[str]):
    """Temporary paths, one per target, that replace the targets together
    once the block succeeds and are removed otherwise."""
    tmps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text handle on a temporary file that replaces ``path`` when the block succeeds."""
    with _staged([path]) as (tmp,), open(tmp, "w") as fh:
        yield fh


def _seq_to_json(x: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in x]


def _seq_from_json(entries) -> np.ndarray:
    # JSON true and false load as bool, a subclass of int; they are not entries.
    if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(v) in (int, float) for v in e)
            for e in entries):
        raise ValueError("sequence must be a list of [re, im] number entries")
    return np.array([complex(re, im) for re, im in entries])


def write_archive(path: str, pair: SequencePair, config: SolverConfig,
                  metrics: dict, objective_history=None) -> None:
    doc = {
        "format_version": ARCHIVE_FORMAT_VERSION,
        "L": config.L,
        "Z": config.Z,
        "mode": config.mode,
        "config": {
            "alpha": config.alpha,
            "p_e": config.p_e,
            "p_r": config.p_r,
            "max_iter": config.max_iter,
            "tol": config.tol,
            "target": config.target,
            "seed": config.seed,
        },
        "x": _seq_to_json(pair.x),
        "y": _seq_to_json(pair.y),
        "metrics": metrics,
    }
    if objective_history is not None:
        doc["objective_history"] = [float(v) for v in objective_history]
    _write_json(path, doc)


def _write_json(path: str, doc: dict) -> None:
    with _atomic_open(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_archive(path: str) -> tuple[SequencePair, dict]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read pair archive {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"corrupt pair archive {path!r}: not a JSON object")
    for key in ("format_version", "L", "Z", "mode", "x", "y"):
        if key not in doc:
            raise UsageError(f"corrupt pair archive {path!r}: missing {key!r}")
    if type(doc["format_version"]) is not int or doc["format_version"] != ARCHIVE_FORMAT_VERSION:
        raise UsageError(f"pair archive {path!r} has unsupported format_version "
                         f"{doc['format_version']!r}")
    if type(doc["L"]) is not int or type(doc["Z"]) is not int:
        raise UsageError(f"corrupt pair archive {path!r}: L and Z must be integers")
    try:
        pair = SequencePair(_seq_from_json(doc["x"]), _seq_from_json(doc["y"]),
                            meta={"source": path, "Z": doc["Z"], "mode": doc["mode"]})
        if pair.length != doc["L"]:
            raise ValueError("length mismatch")
        check_zone(doc["Z"], pair.length)
    except (OverflowError, ValueError) as exc:
        raise UsageError(f"corrupt pair archive {path!r}: {exc}") from exc
    return pair, doc


def write_surface_table(path: str, surface: AmbiguitySurface) -> None:
    """One CSV row per grid cell; numbers are shortest round-trip ``repr``.

    Values with fewer rows or columns than the grid raise ``IndexError``.
    """
    thetas = [repr(theta) for theta in surface.grid.dopplers.tolist()]
    parts = (surface.values.real, surface.values.imag, surface.modulus())
    with _atomic_open(path) as fh:
        fh.write("k,theta,re,im,modulus\n")
        for i, k in enumerate(surface.grid.delays.tolist()):
            re, im, mod = (part[i].tolist() for part in parts)
            if len(re) < len(thetas):
                raise IndexError(f"surface row {i} is narrower than the Doppler grid")
            fh.write("".join([f"{k},{theta},{a!r},{b!r},{m!r}\n"
                              for theta, a, b, m in zip(thetas, re, im, mod)]))


def _load_pair(ref: str) -> tuple[SequencePair, int | None]:
    """A pair argument is either 'golay:L' or a path to an archive."""
    if ref.startswith("golay:"):
        try:
            return golay_pair(int(ref.split(":", 1)[1])), None
        except ValueError as exc:
            raise UsageError(f"bad golay length in {ref!r}: {exc}") from exc
    pair, doc = read_archive(ref)
    return pair, doc["Z"]


def _require_finite(ref: str, values) -> None:
    """UsageError unless every value is finite.

    Entries near the float range overflow the correlations of a pair, so
    callers compute them with numpy's overflow warnings off and check here.
    """
    if not np.isfinite(list(values)).all():
        raise UsageError(f"pair {ref!r} overflows: its correlations are not finite")


def _pair_metrics(pair: SequencePair, Z: int, schedule: TransmitSchedule | None = None) -> dict:
    report = zone_metrics(pair, Z, schedule=schedule)
    out = asdict(report)
    if report.peak_value > 0:
        out["max_aaf_sidelobe_omega1_normalized"] = (
            report.max_aaf_sidelobe_omega1 / report.peak_value)
    return out


def cmd_design(args) -> int:
    if args.mode == "unimodular" and args.papr is not None:
        raise UsageError("--papr is meaningless with --mode unimodular")
    if args.restarts < 1:
        raise UsageError("--restarts must be at least 1")
    out = _resolve_out(args.out)
    try:
        configs = [SolverConfig(
            L=args.length, Z=args.zone, alpha=args.alpha, mode=args.mode,
            p_r=args.papr, max_iter=args.max_iter, tol=args.tol, target=args.target,
            seed=args.seed + i,
        ) for i in range(args.restarts)]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    best = None
    for config in configs:
        pair, state = solve(config)
        final = state.objective_history[-1]
        if best is None or final < best[2]:
            best = (pair, state, final, config)

    pair, state, _, config = best
    metrics = _pair_metrics(pair, args.zone)
    write_archive(out, pair, config, metrics,
                  objective_history=state.objective_history)
    print(f"wrote {out}")
    print(f"  stop: {state.stop_reason} after {state.iteration} iterations")
    for key, value in metrics.items():
        print(f"  {key}: {value:.6e}")
    return 0


def cmd_evaluate(args) -> int:
    # A two-row (ptm-a) schedule has a cross surface, so a CAF table too.
    tables = ("aaf", "caf") if args.schedule == "ptm-a" else ("aaf",)
    suffixes = [f"_{name}.csv" for name in tables] + ["_metrics.json"]
    prefix = _resolve_out(args.out_prefix, suffixes)
    pair, archive_z = _load_pair(args.pair)
    Z = args.zone if args.zone is not None else (archive_z or pair.length)
    build = ptm_a_schedule if args.schedule == "ptm-a" else siso_schedule
    try:
        check_zone(Z, pair.length)
        schedule = build(pair, args.pri)
        grid = DelayDopplerGrid.zone(Z, args.doppler_max, args.doppler_samples)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            surfaces = [ambiguity_surface(schedule, 0, row, grid) for row in range(schedule.rows)]
        except DopplerOverflowError as exc:
            raise UsageError(f"--doppler-max {args.doppler_max!r} is too large: {exc}") from exc
        # A one-row schedule has no cross surface; its metrics use the
        # default two-row schedule, as in design and compare.
        metrics = _pair_metrics(pair, Z, schedule if schedule.rows == 2 else None)
        # finite only if every value and its modulus in the tables are
        peaks = [np.max(surface.modulus()) for surface in surfaces]
    _require_finite(args.pair, peaks + list(metrics.values()))

    # The outputs replace their targets only once all of them are written.
    paths = [prefix + suffix for suffix in suffixes]
    with _staged(paths) as tmps:
        for tmp, surface in zip(tmps, surfaces):
            write_surface_table(tmp, surface)
        _write_json(tmps[-1], metrics)
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_compare(args) -> int:
    pair_a, z_a = _load_pair(args.pair[0])
    pair_b, z_b = _load_pair(args.pair[1])
    if pair_a.length != pair_b.length:
        raise UsageError("pairs have different lengths")
    zones = [z for z in (args.zone, z_a, z_b) if z is not None]
    if not zones:
        raise UsageError("no zone available; pass --zone")
    if args.zone is None and z_a is not None and z_b is not None and z_a != z_b:
        raise UsageError("archives disagree on Z; pass --zone to override")
    Z = zones[0]
    try:
        check_zone(Z, pair_a.length)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    rows = [
        ("max complementary sidelobe (|k|<Z)", "max_complementary_sidelobe_in_zone"),
        ("max cross-correlation (|k|<Z)", "max_cross_correlation_in_zone"),
        ("max AAF sidelobe (omega1)", "max_aaf_sidelobe_omega1"),
        ("max CAF (omega2)", "max_caf_omega2"),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        metrics_a = _pair_metrics(pair_a, Z)
        metrics_b = _pair_metrics(pair_b, Z)
    name_a, name_b = args.pair
    _require_finite(name_a, metrics_a.values())
    _require_finite(name_b, metrics_b.values())
    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {name_a:>24}  {name_b:>24}")
    for label, key in rows:
        print(f"{label:<{width}}  {metrics_a[key]:>24.6e}  {metrics_b[key]:>24.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qozcp",
        description="Design and evaluate quasi-orthogonal Z-complementary pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="run the pair-design solver")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--zone", type=int, required=True)
    p.add_argument("--mode", choices=("papr", "unimodular"), default="papr")
    p.add_argument("--papr", type=float, default=None, help="PAPR cap (papr mode)")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--max-iter", type=int, default=200_000)
    p.add_argument("--tol", type=float, default=1e-14)
    p.add_argument("--target", type=float, default=None,
                   help="stop once both in-zone correlation maxima are at or below "
                        "this (default 1e-11 of the zero-lag peak 2*p_e)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("evaluate", help="evaluate a schedule's ambiguity surfaces")
    p.add_argument("--pair", required=True, help="archive path or golay:L")
    p.add_argument("--schedule", choices=("ptm-siso", "ptm-a"), default="ptm-a")
    p.add_argument("--pri", type=int, default=8)
    p.add_argument("--zone", type=int, default=None)
    p.add_argument("--doppler-max", type=float, default=OMEGA2_DOPPLER_MAX)
    p.add_argument("--doppler-samples", type=int, default=OMEGA2_SAMPLES)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="side-by-side zone metrics of two pairs")
    p.add_argument("--pair", action="append", required=True,
                   help="archive path or golay:L (give twice)")
    p.add_argument("--zone", type=int, default=None)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare" and len(args.pair) != 2:
        parser.exit(2, "compare needs exactly two --pair inputs\n")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"internal error: {detail}", file=sys.stderr)
        return 1
