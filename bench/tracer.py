"""Span tracer that wraps elspec's public layer functions from outside.

Each wrapped call records a span (name, start, end, parent span, request id)
and, where the return value carries them, work counts.  Wrapping replaces the
function object wherever an ``elspec`` module binds it (``elspec.whittle``
imports ``max_companion_modulus`` from ``elspec.arma``, ``elspec.mc`` imports
``solve_dual`` from ``elspec.el``, and so on), so calls through any import
path are seen.  A function that no longer exists is reported as absent with
zero calls instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, function) pairs under elspec that the tracer wraps.  The two
# likelihood functions are wrapped only to count Whittle objective
# evaluations.
TARGETS = (
    ("arma", "simulate"),
    ("arma", "max_companion_modulus"),
    ("arma", "log_spectral_gradient"),
    ("arma", "spectrum_shape"),
    ("periodogram", "compute_periodogram"),
    ("whittle", "psi_profile"),
    ("whittle", "whittle_fit"),
    ("whittle", "sandwich"),
    ("whittle", "profile_loglik"),
    ("whittle", "whittle_loglik"),
    ("el", "solve_dual"),
    ("el", "adjust"),
    ("bartlett", "estimate_bartlett"),
    ("confidence", "scan_region"),
    ("confidence", "extract_contour"),
    ("confidence", "interval_1d"),
    ("mc", "run_coverage"),
    ("cli", "main"),
)
LAYERS = ("arma", "periodogram", "whittle", "el", "bartlett", "confidence", "mc", "cli")
REQUEST_PREFIX = "request."


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs.get(name)


def _count_solve_dual(counts, args, kwargs, result, exc):
    psi = _first_arg(args, kwargs, "psi")
    rows = getattr(psi, "rows", None)
    counts["el.solve_dual.rows"] += int(getattr(rows, "shape", (0,))[0])
    if exc is None:
        counts["el.solve_dual.solved"] += 1
        counts["el.solve_dual.newton_iters"] += int(getattr(result, "inner_iterations", 0))
    elif exc == "NoSolutionError":
        counts["el.solve_dual.nosolution"] += 1
    else:
        counts["el.solve_dual.failed"] += 1


def _count_periodogram(counts, args, kwargs, result, exc):
    if exc is None:
        counts["periodogram.compute_periodogram.ordinates"] += int(getattr(result, "n", 0))


def _count_fit(counts, args, kwargs, result, exc):
    if exc is None:
        counts["whittle.whittle_fit.converged"] += bool(getattr(result, "converged", False))


def _count_scan(counts, args, kwargs, result, exc):
    status = getattr(result, "status", None)
    if exc is None and status is not None:
        counts["confidence.scan_region.nodes"] += int(status.size)
        counts["confidence.scan_region.ok"] += int((status == 0).sum())


def _count_coverage(counts, args, kwargs, result, exc):
    plan = getattr(result, "plan", None)
    if exc is None and plan is not None:
        cells = len(plan.sample_sizes) * len(plan.noises) * len(plan.params)
        counts["mc.run_coverage.replications"] += cells * plan.replications


COUNTERS = {
    "el.solve_dual": _count_solve_dual,
    "periodogram.compute_periodogram": _count_periodogram,
    "whittle.whittle_fit": _count_fit,
    "confidence.scan_region": _count_scan,
    "mc.run_coverage": _count_coverage,
}


class Tracer:
    """Collects spans in memory while installed.

    Spans are stored column-wise: ``names`` (index into ``span_names``),
    ``starts``, ``ends``, ``parents`` (-1 for a root) and ``requests``.
    """

    def __init__(self):
        self.span_names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.requests = array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._request = -1
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.span_names)
            self.span_names.append(name)
        return idx

    def open(self, name: str) -> int:
        i = len(self.starts)
        self.names.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int, exc_name: str | None = None) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()
        if exc_name is not None:
            self.counts[f"{self.span_names[self.names[i]]}.exc.{exc_name}"] += 1

    @contextlib.contextmanager
    def request(self, request_id: int, kind: str):
        """Root span around one benchmark request."""
        self._request = request_id
        span = self.open(REQUEST_PREFIX + kind)
        exc_name = None
        try:
            yield
        except Exception as exc:
            exc_name = type(exc).__name__
            raise
        finally:
            self.close(span, exc_name)
            self._request = -1

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(i, type(exc).__name__)
                if counter is not None:
                    counter(tracer.counts, args, kwargs, None, type(exc).__name__)
                raise
            tracer.close(i)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result, None)
            return result

        wrapper.__elspec_bench_original__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever an elspec module binds it."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "elspec" or n.startswith("elspec."))]
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            try:
                home = importlib.import_module(f"elspec.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- analysis ----------------------------------------------------------

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of each span from index ``first`` on: its duration minus
        the union of its children's intervals (clipped to the span)."""
        n = len(self.starts)
        children = defaultdict(list)
        for i in range(first, n):
            p = self.parents[i]
            if p >= first:
                children[p].append(i)
        out = []
        for i in range(first, n):
            s, e = self.starts[i], self.ends[i]
            covered = 0.0
            cur_lo = cur_hi = None
            for c in sorted(children.get(i, ()), key=lambda c: self.starts[c]):
                lo, hi = max(self.starts[c], s), min(self.ends[c], e)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((e - s) - covered)
        return out

    def summarize(self, first: int = 0) -> dict:
        """Per-function calls and self time, per-request consistency and
        layer totals for the spans recorded from index ``first`` on."""
        selfs = self.self_times(first)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        request_total = defaultdict(float)
        request_duration = {}
        objective_evals = 0
        fit_id = self._name_index.get("whittle.whittle_fit")
        loglik_ids = {self._name_index.get("whittle.profile_loglik"),
                      self._name_index.get("whittle.whittle_loglik")} - {None}
        for k, i in enumerate(range(first, len(self.starts))):
            name = self.span_names[self.names[i]]
            calls[name] += 1
            self_s[name] += selfs[k]
            request_total[self.requests[i]] += selfs[k]
            if self.parents[i] == -1:
                request_duration[self.requests[i]] = self.ends[i] - self.starts[i]
            if self.names[i] in loglik_ids and fit_id is not None:
                p = self.parents[i]
                while p >= 0 and self.names[p] != fit_id:
                    p = self.parents[p]
                objective_evals += p >= 0
        worst = 0.0
        for req, duration in request_duration.items():
            if duration > 0:
                worst = max(worst, abs(request_total[req] - duration) / duration)
        layer_self = defaultdict(float)
        for name, value in self_s.items():
            layer_self[name.split(".")[0]] += value
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "layer_self_s": dict(layer_self),
            "request_s": sum(request_duration.values()),
            "requests": len(request_duration),
            "max_self_sum_error": worst,
            "objective_evals": objective_evals,
        }

    def write(self, path) -> None:
        """Write all spans as CSV: id,name,start,end,parent,request."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,request\n")
            for i in range(len(self.starts)):
                fh.write(f"{i},{self.span_names[self.names[i]]},{self.starts[i]!r},"
                         f"{self.ends[i]!r},{self.parents[i]},{self.requests[i]}\n")
