#!/usr/bin/env python3
"""elspec benchmark: run one workload in this process and print its metrics.

    python3 bench/run.py --workload region --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics.  See README.md.
"""

import os

# Every matrix is tiny: one BLAS/OpenMP thread, fixed before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
SELF_SUM_TOL = 0.01

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Record:
    req: workloads.Request
    timing: calibration.Timing
    out_path: Path | None = None
    result: object = None
    errors: list = field(default_factory=list)


@dataclass
class Pass:
    records: list
    wall: float
    traced: bool
    trace_summary: dict | None = None
    counts: dict | None = None


def import_elspec():
    """Import the package from this checkout's ``src/``; None when absent."""
    if not (SRC / "elspec" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import elspec
    import elspec.cli
    import elspec.confidence

    if Path(elspec.__file__).resolve().parent != (SRC / "elspec").resolve():
        return None
    return elspec


def tree_digest(directory: Path, pattern: str, *extra: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob(pattern)) + list(extra):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_commit": commit,
        "src_sha256": tree_digest(SRC / "elspec", "*.py"),
        "bench_sha256": tree_digest(BENCH_DIR, "*.py", ROOT / "BENCHMARK.json"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int, size: str) -> list:
    """Timings of a fresh interpreter that imports elspec and generates the
    workload's inputs.  The child calibrates itself, so its timing is
    normalised by the contention it met."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]\n"
            "import calibration\n"
            "cal = calibration.Calibrator()\n"
            "with cal.measure():\n"
            "    import elspec, workloads\n"
            f"    workloads.generate(workloads.define({workload!r}, {size!r}), {seed})\n"
            "print(sum(cal.samples), sum(cal.samples) / len(cal.samples))\n")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        raw = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        kernel_total, kernel_mean = map(float, proc.stdout.split())
        times.append(calibration.Timing(raw, raw - kernel_total, kernel_mean))
    return times


def execute(elspec, req, paths, pgs, outdir):
    """Issue one request; returns (out_path, result)."""
    if req.kind == "interval":
        return None, elspec.confidence.interval_1d(pgs[req.series], req.order, method=req.method)
    out = outdir / req.key.replace("/", "_")
    if req.kind == "coverage":
        argv = ["coverage", "--plan", str(paths[req.plan]), "--out", str(out)]
    else:
        argv = [req.kind, str(paths[req.series]), "--order", "%d,%d" % req.order,
                "--out", str(out)]
        if req.kind == "region":
            argv += ["--method", req.method, "--box", "0:1,0:1", "--steps", str(req.steps)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = elspec.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"elspec {req.kind} exited with code {code}")
    return out, code


def run_pass(elspec, w, paths, pgs, outdir, cal=None, tracer=None) -> Pass:
    """One closed-loop pass over the workload's requests, timed through the
    calibrator when untraced and through the tracer when traced."""
    records = []
    first_span = len(tracer.starts) if tracer else 0
    if tracer:
        tracer.counts.clear()
        tracer.install()
    try:
        for rid, req in enumerate(w.requests):
            rec = Record(req, calibration.Timing())
            if tracer:
                ctx = tracer.request(rid, req.kind)
            else:
                ctx = cal.measure()
            try:
                with ctx as timing:
                    t0 = time.perf_counter()
                    rec.out_path, rec.result = execute(elspec, req, paths, pgs, outdir)
            except Exception as exc:  # a failed request is counted, the run goes on
                rec.errors.append(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            if tracer:
                rec.timing.raw = rec.timing.net = time.perf_counter() - t0
            else:
                rec.timing = timing
            records.append(rec)
    finally:
        if tracer:
            tracer.uninstall()
    result = Pass(records, sum(r.timing.net for r in records), tracer is not None)
    if tracer:
        result.trace_summary = tracer.summarize(first_span)
        result.counts = dict(tracer.counts)
    return result


def check_pass(p: Pass, w, plans, reference, collected=None) -> None:
    """Attach output-check errors to each record of the pass."""
    outputs = {}
    for rec in p.records:
        if rec.errors:
            continue
        try:
            out = checks.collect(rec.req, rec.out_path, rec.result)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rec.errors.append(f"unreadable output: {exc!r}")
            continue
        outputs[rec.req.key] = out
        expected = 0
        if rec.req.kind == "coverage":
            plan = plans[rec.req.plan]
            expected = plan_replications(plan) // plan["replications"] * len(plan["methods"])
        rec.errors += checks.check_invariants(rec.req, out, expected)
        if reference is not None:
            if rec.req.key not in reference:
                rec.errors.append("no reference output stored")
            else:
                rec.errors += checks.compare_reference(rec.req, out, reference[rec.req.key])
    for rec in p.records:
        if rec.req.kind == "region" and rec.req.method == "ael":
            el_key = rec.req.key[: -len("ael")] + "el"
            if rec.req.key in outputs and el_key in outputs:
                rec.errors += checks.check_nesting(outputs[rec.req.key], outputs[el_key])
    if collected is not None:
        collected.update(outputs)


def end_to_end(passes, setup, plans, latency=lambda t: t.normalised) -> dict:
    """End-to-end metrics.  Each request's latency is its median over the
    untraced passes; a kind's latency is the median over its requests."""
    untraced = [p for p in passes if not p.traced]
    requests = [r.req for r in untraced[0].records]
    per_request = [statistics.median(latency(p.records[i].timing) for p in untraced)
                   for i in range(len(requests))]
    attempted = sum(len(p.records) for p in passes)
    failed = sum(1 for p in passes for r in p.records if r.errors)

    def kind_median(kind):
        return statistics.median(t for t, req in zip(per_request, requests) if req.kind == kind)

    reps = sum(plan_replications(plans[req.plan]) for req in requests if req.kind == "coverage")
    coverage_s = sum(t for t, req in zip(per_request, requests) if req.kind == "coverage")
    return {
        "setup_s": statistics.median(latency(t) for t in setup),
        "wall_s": sum(per_request),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed / attempted,
        "region_s": kind_median("region"),
        "fit_s": kind_median("fit"),
        "interval_s": kind_median("interval"),
        "coverage_reps_per_s": reps / coverage_s,
    }


def plan_replications(plan: dict) -> int:
    """Replications across the plan's cells (one series per replication)."""
    return (plan["replications"] * len(plan["sample_sizes"]) * len(plan["noises"])
            * len(plan["params"]))


def _median(values):
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def per_layer(passes) -> tuple[dict, dict, float]:
    """Per-layer metrics (median over traced passes), layer shares and the
    worst per-request self-time sum error."""
    traced = [p for p in passes if p.traced]
    rows = []
    worst = 0.0
    for p in traced:
        s, c = p.trace_summary, p.counts
        calls, self_s = s["calls"], s["self_s"]

        def n(name):
            return calls.get(name, 0)

        row = {}
        for mod, fn in tracing.TARGETS:
            name = f"{mod}.{fn}"
            row[f"{name}.calls"] = n(name)
            row[f"{name}.self_s"] = self_s.get(name, 0.0)
        row["periodogram.compute_periodogram.ordinates"] = c.get(
            "periodogram.compute_periodogram.ordinates", 0)
        row["whittle.whittle_fit.objective_evals"] = s["objective_evals"]
        fits = n("whittle.whittle_fit")
        row["whittle.whittle_fit.converged_share"] = (
            c.get("whittle.whittle_fit.converged", 0) / fits if fits else 0.0)
        duals = n("el.solve_dual")
        for key in ("newton_iters", "rows", "nosolution", "failed"):
            row[f"el.solve_dual.{key}"] = c.get(f"el.solve_dual.{key}", 0)
        row["el.solve_dual.solved_share"] = (
            c.get("el.solve_dual.solved", 0) / duals if duals else 0.0)
        nodes = c.get("confidence.scan_region.nodes", 0)
        row["confidence.scan_region.nodes"] = nodes
        row["confidence.scan_region.defined_share"] = (
            c.get("confidence.scan_region.ok", 0) / nodes if nodes else 0.0)
        row["mc.run_coverage.replications"] = c.get("mc.run_coverage.replications", 0)
        total = s["request_s"]
        for layer in tracing.LAYERS:
            row[f"{layer}.share"] = s["layer_self_s"].get(layer, 0.0) / total if total else 0.0
        rows.append(row)
        worst = max(worst, s["max_self_sum_error"])
    merged = {key: _median(r[key] for r in rows) for key in rows[0]}
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in passes if not p.traced)
    merged["trace.overhead_s"] = traced_wall - untraced_wall
    shares = {layer: merged[f"{layer}.share"] for layer in tracing.LAYERS}
    return merged, shares, worst


def load_benchmark_metrics():
    path = ROOT / "BENCHMARK.json"
    with open(path) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def measure(elspec, args, w, paths, pgs, plans, workdir, cal, reference, collected=None):
    """Closed-loop passes until ``args.seconds`` would be exceeded (at least
    one pass; with tracing, at least one untraced and one traced pass)."""
    tracer = tracing.Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_pass(elspec, w, paths, pgs, workdir, cal, tracer if traced else None)
        check_pass(p, w, plans, reference, collected)
        passes.append(p)
        elapsed = time.perf_counter() - start
        if args.trace and len(passes) < 2:
            continue
        step = statistics.median(q.wall for q in passes)
        if elapsed + step * (2 if args.trace else 1) > args.seconds:
            break
    return passes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="toy: tiny inputs for the benchmark's own tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the default-seed reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    elspec = import_elspec()
    if elspec is None:
        print(f"error: no elspec package under {SRC}", file=sys.stderr)
        return 2
    env = environment(args)
    cal = calibration.Calibrator()
    phases = {"start": time.perf_counter()}
    setup = measure_setup(args.workload, args.seed, args.size)
    phases["setup"] = time.perf_counter()

    w = workloads.define(args.workload, args.size)
    values, plans = workloads.generate(w, args.seed)
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        paths = workloads.write_inputs(workdir / "inputs", values, plans)
        pgs = {r.series: elspec.compute_periodogram(elspec.TimeSeries(values[r.series]))
               for r in w.requests if r.kind == "interval"}
        # Warm-up: one toy-size pass fills lazy imports and caches.
        toy = workloads.define(args.workload, "toy")
        toy_values, toy_plans = workloads.generate(toy, args.seed)
        toy_paths = workloads.write_inputs(workdir / "warmup", toy_values, toy_plans)
        toy_pgs = {r.series: elspec.compute_periodogram(elspec.TimeSeries(toy_values[r.series]))
                   for r in toy.requests if r.kind == "interval"}
        phases["prepare"] = time.perf_counter()
        run_pass(elspec, toy, toy_paths, toy_pgs, workdir / "warmup", cal)
        phases["warm-up"] = time.perf_counter()

        reference = None
        if args.size == "full" and args.seed == workloads.DEFAULT_SEED and not args.write_reference:
            reference = checks.load_reference(args.workload) or {}
        collected = {} if args.write_reference else None
        passes, tracer = measure(elspec, args, w, paths, pgs, plans, workdir, cal,
                                 reference, collected)
        phases["measure"] = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.write_reference:
        if any(r.errors for p in passes for r in p.records):
            print("error: requests failed; reference not written", file=sys.stderr)
            return 1
        print(f"reference written to {checks.save_reference(args.workload, collected)}")
        return 0

    failures = [(r.req.key, e) for p in passes for r in p.records for e in r.errors]
    for key, err in failures:
        print(f"check failed: {key}: {err}", file=sys.stderr)
    attempted = sum(len(p.records) for p in passes)
    failed = sum(1 for p in passes for r in p.records if r.errors)
    e2e_spec, layer_spec = load_benchmark_metrics()
    values_e2e = end_to_end(passes, setup, plans)
    raw_e2e = end_to_end(passes, setup, plans, latency=lambda t: t.raw)
    samples = {
        "passes_untraced": sum(not p.traced for p in passes),
        "passes_traced": sum(p.traced for p in passes),
        "setup_repeats": len(setup),
        "requests_per_pass": {k: sum(r.kind == k for r in w.requests)
                              for k in ("region", "fit", "interval", "coverage")},
    }
    marks = list(phases.items())
    record = {"env": env, "samples": samples, "end_to_end": values_e2e,
              "phase_s": {name: t - marks[i][1] for i, (name, t) in enumerate(marks[1:])},
              "end_to_end_raw": raw_e2e,
              "calibration_kernel_s": statistics.quantiles(cal.samples, n=10),
              "setup": [vars(t) for t in setup],
              "requests": [[r.req.key, p.traced, vars(r.timing)] for p in passes
                           for r in p.records]}
    correct = not failures
    if args.trace:
        layer_values, shares, worst = per_layer(passes)
        record.update(per_layer=layer_values, layer_shares=shares,
                      max_self_sum_error=worst, absent=tracer.absent)
        if worst > SELF_SUM_TOL:
            print(f"check failed: self times differ from request durations by {worst:.2%}",
                  file=sys.stderr)
            correct = False
        tracer.write(WORK / f"spans-{args.workload}.csv")
        metrics = {m["name"]: {"value": layer_values[m["name"]], "unit": m["unit"]}
                   for m in layer_spec}
        print("layer shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        if tracer.absent:
            print("absent layer functions: " + ", ".join(tracer.absent))
    else:
        metrics = {m["name"]: {"value": values_e2e[m["name"]], "unit": m["unit"]}
                   for m in e2e_spec}
    print("env: " + json.dumps(env))
    print("samples: " + json.dumps(samples))
    print("raw (unnormalised) end-to-end: " + json.dumps(raw_e2e))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{args.workload}-s{args.seed}-trace{args.trace}-{args.size}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
