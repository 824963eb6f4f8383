"""Quick tests of the benchmark itself (about a minute):

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=600, cwd=BENCH_DIR.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_workload_traced(workload):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "1", "--size", "toy")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    shares = [result["metrics"][f"{layer}.share"]["value"] for layer in tracing.LAYERS]
    assert 0.95 < sum(shares) <= 1.0 + 1e-9


def test_toy_workload_untraced_metrics():
    result = _run("--workload", "long-series", "--seed", "4", "--seconds", "0",
                  "--size", "toy")
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def _span(t, name, start, end, parent, request=0):
    t.names.append(t._name_id(name))
    t.starts.append(start)
    t.ends.append(end)
    t.parents.append(parent)
    t.requests.append(request)
    return len(t.starts) - 1


def test_self_time_of_nested_spans():
    t = tracing.Tracer()
    root = _span(t, "request.fit", 0.0, 10.0, -1)
    a = _span(t, "cli.main", 1.0, 9.0, root)
    b = _span(t, "whittle.whittle_fit", 2.0, 5.0, a)
    _span(t, "whittle.profile_loglik", 2.5, 3.0, b)
    _span(t, "periodogram.compute_periodogram", 6.0, 8.0, a)
    assert t.self_times() == pytest.approx([2.0, 3.0, 2.5, 0.5, 2.0])
    summary = t.summarize()
    assert summary["max_self_sum_error"] == pytest.approx(0.0, abs=1e-12)
    assert summary["objective_evals"] == 1
    assert summary["layer_self_s"]["whittle"] == pytest.approx(3.0)


def test_self_time_uses_union_of_overlapping_children():
    t = tracing.Tracer()
    root = _span(t, "request.region", 0.0, 10.0, -1)
    _span(t, "el.solve_dual", 1.0, 4.0, root)
    _span(t, "el.adjust", 3.0, 6.0, root)
    _span(t, "el.solve_dual", 9.0, 12.0, root)  # clipped at the parent's end
    assert t.self_times()[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_reports_missing_function_as_absent(monkeypatch):
    elspec = run.import_elspec()
    monkeypatch.delattr(elspec.el, "solve_dual")
    t = tracing.Tracer()
    t.install()
    try:
        assert "el.solve_dual" in t.absent
        assert hasattr(elspec.whittle.psi_profile, "__elspec_bench_original__")
    finally:
        t.uninstall()
    assert not hasattr(elspec.whittle.psi_profile, "__elspec_bench_original__")


def test_wrong_output_raises_failed_share(monkeypatch, tmp_path):
    elspec = run.import_elspec()
    w = workloads.define("region", "toy")
    values, plans = workloads.generate(w, 5)
    paths = workloads.write_inputs(tmp_path, values, plans)
    pgs = {r.series: elspec.compute_periodogram(elspec.TimeSeries(values[r.series]))
           for r in w.requests if r.kind == "interval"}

    cal = calibration.Calibrator()
    setup = [calibration.Timing(1.0, 1.0, calibration.REFERENCE_S)]

    def passes():
        p = run.run_pass(elspec, w, paths, pgs, tmp_path, cal)
        run.check_pass(p, w, plans, None)
        return [p]

    good = passes()
    assert run.end_to_end(good, setup, plans)["ok_share"] == 1.0

    original = elspec.confidence.interval_1d

    def shifted(*args, **kwargs):
        iv = original(*args, **kwargs)
        return type(iv)(**{**iv.__dict__, "lo": iv.estimate + 0.1, "hi": iv.estimate + 0.2,
                           "contains_estimate": False})

    monkeypatch.setattr(elspec.confidence, "interval_1d", shifted)
    bad = passes()
    failed = [r for r in bad[0].records if r.errors]
    assert {r.req.kind for r in failed} == {"interval"}
    assert run.end_to_end(bad, setup, plans)["ok_share"] < 1.0


def test_normalised_latency_scales_with_kernel_time():
    cal = calibration.Calibrator()
    with cal.measure() as timing:
        sum(i * i for i in range(300000))
    assert 0.0 < timing.net <= timing.raw
    assert timing.normalised == pytest.approx(
        timing.net * calibration.REFERENCE_S / timing.kernel_s)
    assert len(cal.samples) >= 2 * calibration.EDGE_SAMPLES


def test_reference_comparison_flags_changed_payload():
    req = workloads.Request("coverage", "coverage/X", plan="X")
    ref = {"payload": "model,n\nma1,70\n", "rows": []}
    assert checks.compare_reference(req, dict(ref), ref) == []
    assert checks.compare_reference(req, {**ref, "payload": "model,n\nma1,71\n"}, ref)


def test_same_seed_gives_same_inputs():
    w = workloads.define("coverage", "toy")
    a, pa = workloads.generate(w, 7)
    b, pb = workloads.generate(w, 7)
    c, _ = workloads.generate(w, 8)
    assert pa == pb and all((a[k] == b[k]).all() for k in a)
    assert any((a[k] != c[k]).any() for k in a)


def test_compare_verdicts():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    faster = [v * 0.5 for v in parent]
    slower = [v * 1.5 for v in parent]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, list(zip(parent, slower)), "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, parent, list(zip(parent, parent)), "lower", 0.1)[0] == "no worse"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(noisy, noisy[::-1], list(zip(noisy, noisy[::-1])), "lower",
                           0.1)[0] == "unresolved"
