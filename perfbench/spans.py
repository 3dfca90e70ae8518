"""In-memory span tracer that wraps qozcp functions where their callers bind them.

A function is wrapped on the module whose code calls it: ``solve`` calls
``sdamm_step`` through ``qozcp.solver``'s globals, so the wrapper goes on
``qozcp.solver.sdamm_step``; the CLI reaches ``ambiguity_surface`` through
``qozcp.cli``.  A name that a later refactor removed is recorded as absent
instead of failing.  :meth:`Tracer.uninstall` restores every original.

Spans are kept as ``[name_id, start_ns, end_ns, parent, op]`` lists, where
``parent`` is the index of the enclosing span (-1 at the top) and ``op`` is
the benchmark operation the span belongs to.  numpy FFT calls get no span;
their transform lengths are summed onto the innermost open span.
"""

import functools
import importlib
import time

# (module that binds the name, attribute, span name)
TARGETS = [
    ("qozcp.cli", "solve", "solver.solve"),
    ("qozcp.solver", "sdamm_step", "solver.sdamm_step"),
    ("qozcp.solver", "_evaluate", "solver._evaluate"),
    ("qozcp.solver", "_mm_update", "solver._mm_update"),
    ("qozcp.solver", "descent_vector", "solver.descent_vector"),
    ("qozcp.solver", "proj_papr", "solver.proj"),
    ("qozcp.solver", "proj_unimodular", "solver.proj"),
    ("qozcp.solver", "forward_spectrum", "spectral.forward_spectrum"),
    ("qozcp.solver", "correlations_via_fft", "spectral.correlations_via_fft"),
    ("qozcp.solver", "weighted_spectra", "spectral.weighted_spectra"),
    ("qozcp.solver", "gram_product", "spectral.gram_product"),
    ("qozcp.solver", "objective_from_correlations", "sequences.objective_from_correlations"),
    ("qozcp.cli", "write_archive", "cli.write_archive"),
    ("qozcp.cli", "write_surface_table", "cli.write_surface_table"),
    ("qozcp.cli", "zone_metrics", "ambiguity.zone_metrics"),
    ("qozcp.cli", "ambiguity_surface", "ambiguity.ambiguity_surface"),
    ("qozcp.ambiguity", "ambiguity_surface", "ambiguity.ambiguity_surface"),
    ("qozcp.ambiguity", "cross_correlation_fft", "spectral.cross_correlation_fft"),
    ("qozcp.ambiguity", "materialize", "waveform.materialize"),
]

# numpy transforms whose lengths are summed as a computed operation count
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")


def _fft_length(args, kwargs) -> int:
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is not None:
        return int(n)
    a = args[0] if args else kwargs["a"]
    return int(getattr(a, "shape", (len(a),))[kwargs.get("axis", -1)])


def _backtracks(args, result):
    return (getattr(result, "last_step", None) or {}).get("backtracks", 0)


def _surface_rows(args, result):
    values = getattr(args[1], "values", None) if len(args) > 1 else None
    return getattr(values, "size", 0)


def _n_pri(args, result):
    return getattr(args[0], "n_pri", 0) if args else 0


# Values read from a call's arguments or result after its span closes.
OBSERVERS = {
    "solver.sdamm_step": _backtracks,
    "cli.write_surface_table": _surface_rows,
    "ambiguity.ambiguity_surface": _n_pri,
}


class Tracer:
    """Collects spans, per-span FFT points and observed values in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.fft_points: dict[int, int] = {}
        self.observed: dict[int, float] = {}   # span index -> observed value
        self.absent: set[str] = set()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span_wrapper(self, orig, name: str):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe, observed = OBSERVERS.get(name), self.observed

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name_id, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observed[idx] = observe(args, result)
            return result

        return wrapper

    def _fft_wrapper(self, orig):
        stack, points = self._stack, self.fft_points

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if stack:
                top = stack[-1]
                points[top] = points.get(top, 0) + _fft_length(args, kwargs)
            return orig(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every target; missing modules or names are recorded as absent."""
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if not callable(getattr(module, attr, None)):
                self.absent.add(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self._span_wrapper(getattr(module, attr), span))
        import numpy.fft
        for attr in FFT_FUNCS:
            self._patch(numpy.fft, attr, self._fft_wrapper(getattr(numpy.fft, attr)))

    def uninstall(self) -> None:
        """Restore the originals in reverse order of patching."""
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    # ---- queries -------------------------------------------------------

    def under(self, name: str, ancestor: str | None = None, roots=None) -> list[int]:
        """Indices of spans called ``name``.

        With ``ancestor``, only those inside a span of that name; with
        ``roots``, only those inside one of the given span indices.
        """
        if name not in self.names:
            return []
        nid = self.names.index(name)
        hits = [i for i, s in enumerate(self.spans) if s[0] == nid]
        if ancestor is not None:
            aid = self.names.index(ancestor) if ancestor in self.names else -2
            hits = [i for i in hits if self._inside(i, lambda p: self.spans[p][0] == aid)]
        if roots is not None:
            roots = set(roots)
            hits = [i for i in hits if self._inside(i, roots.__contains__)]
        return hits

    def _inside(self, i: int, match) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if match(p):
                return True
            p = self.spans[p][3]
        return False

    def duration_s(self, indices) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in indices) * 1e-9

    def self_time_s(self, indices) -> float:
        """Duration minus the time covered by direct child spans."""
        wanted = set(indices)
        child = dict.fromkeys(wanted, 0)
        for s in self.spans:
            if s[3] in wanted:
                child[s[3]] += s[2] - s[1]
        return sum(self.spans[i][2] - self.spans[i][1] - child[i] for i in wanted) * 1e-9

    def fft_points_within(self, roots) -> int:
        """FFT points summed over the given spans and all their descendants."""
        roots = set(roots)
        return sum(pts for i, pts in self.fft_points.items()
                   if i in roots or self._inside(i, roots.__contains__))

    def export(self) -> dict:
        """Names, spans, FFT points, observed values and absent names, for JSON."""
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": self.names,
            "spans": self.spans,
            "fft_points": {str(k): v for k, v in self.fft_points.items()},
            "observed": {str(k): v for k, v in self.observed.items()},
            "absent": sorted(self.absent),
        }
