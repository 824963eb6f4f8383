#!/usr/bin/env python3
"""Compare two result sets of the elspec benchmark.

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of run records as written by ``bench/run.py``
(``.bench_work/results/*.json``), made with the same benchmark code.  For
every workload and metric it prints both medians and quartiles, the ratio
change/parent, the share of seed-matched pairs the change wins, and a
verdict:

* ``improved``   -- the change wins at least 9/10 of the pairs (ties count
  for neither side) and the medians differ by more than the parent's own
  quartile distance;
* ``worse``      -- the change's median is worse than the parent's by more
  than the metric's bound (for per-layer metrics, which have no bound: the
  parent wins at least 9/10 of the pairs by more than its quartile distance);
* ``unresolved`` -- either side's quartile spread is wider than the bound and
  the change does not read better in every run than the parent in every run;
* ``no worse``   -- otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

WIN_SHARE = 0.9


def load(directory: Path) -> tuple[dict, set]:
    """(workload, trace) -> {seed: metrics}, plus the benchmark digests seen."""
    runs: dict = {}
    digests = set()
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        env = record["env"]
        if env.get("size", "full") != "full":
            continue
        digests.add(env.get("bench_sha256"))
        metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        runs.setdefault((env["workload"], env["trace"]), {})[env["seed"]] = metrics
    return runs, digests


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a: list, b: list, pairs: list, better: str, bound: float | None) -> tuple[str, float]:
    """Verdict for one metric and the change's pair win share."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    share = wins / len(pairs) if pairs else 0.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    qa = quartiles(a)
    iqr_a = qa[1] - qa[0]
    if pairs and share >= WIN_SHARE and abs(med_b - med_a) > iqr_a:
        return "improved", share
    if bound is None:
        if pairs and losses / len(pairs) >= WIN_SHARE and abs(med_b - med_a) > iqr_a:
            return "worse", share
        return "unresolved", share
    if (min(b) > max(a)) if better == "higher" else (max(b) < min(a)):
        return "no worse", share
    qb = quartiles(b)
    spread_a = iqr_a / abs(med_a) if med_a else 0.0
    spread_b = (qb[1] - qb[0]) / abs(med_b) if med_b else 0.0
    if spread_a > bound or spread_b > bound:
        return "unresolved", share
    worse_by = -sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    return ("worse" if worse_by > bound else "no worse"), share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent, parent_digests = load(args.parent)
    change, change_digests = load(args.change)
    if parent_digests != change_digests or len(parent_digests) != 1:
        print(f"error: result sets come from different benchmark code "
              f"({sorted(map(str, parent_digests))} vs {sorted(map(str, change_digests))})",
              file=sys.stderr)
        return 2
    groups = ((0, spec["end_to_end"]), (1, spec["per_layer"]))
    print(f"{'workload':12s} {'metric':44s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'ratio':>7s} {'wins':>9s}  verdict")
    tally: dict = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in groups:
            a_runs = parent.get((workload, trace), {})
            b_runs = change.get((workload, trace), {})
            for m in metrics:
                name = m["name"]
                a = [r[name] for r in a_runs.values() if name in r]
                b = [r[name] for r in b_runs.values() if name in r]
                if not a or not b:
                    continue
                pairs = [(a_runs[s][name], b_runs[s][name]) for s in sorted(a_runs)
                         if s in b_runs and name in a_runs[s] and name in b_runs[s]]
                v, share = verdict(a, b, pairs, m["better"], m.get("bound"))
                if trace == 0:
                    tally[v] = tally.get(v, 0) + 1
                med_a, med_b = statistics.median(a), statistics.median(b)
                qa, qb = quartiles(a), quartiles(b)
                ratio = f"{med_b / med_a:7.3f}" if med_a else "    n/a"
                wins = f"{round(share * len(pairs))}/{len(pairs)}"
                print(f"{workload:12s} {name:44s} {med_a:12.5g} [{qa[0]:9.4g}, {qa[1]:9.4g}] "
                      f"{med_b:12.5g} [{qb[0]:9.4g}, {qb[1]:9.4g}] {ratio} {wins:>9s}  {v}"
                      f"  (n={len(a)}/{len(b)})")
    print("end-to-end verdicts: " + ", ".join(f"{n} {v}" for v, n in sorted(tally.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
