"""Output checks for benchmark requests.

Only public outputs are read: the region grid and contour CSV payloads, the
fit JSON, ``Interval`` fields and the coverage CSV payload.  Two kinds of
check apply:

* invariants that hold at any seed (AEL <= EL where both are defined, AEL
  never "nosolution", coverages in [0, 1], the interval contains its
  estimate, ...);
* at the default seed and full size, agreement with reference outputs
  stored from the seed code (``reference/<workload>.json.gz``).
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
STATUSES = ("ok", "nosolution", "failed", "invalid")

# Reference tolerances.
GRID_STAT_REL = 1e-10
CONTOUR_SPAN_REL = 1e-9
INTERVAL_ABS = 1e-8
FIT_LOGLIK_REL = 1e-9
FIT_ESTIMATE_ABS = 1e-4
# AEL <= EL + 1e-9, scaled by the statistic's size above 1 because the grid
# CSV carries 12 significant digits.
NESTING_TOL = 1e-9


def _read_csv(path):
    meta, rows = {}, []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def _payload(path) -> str:
    with open(path) as fh:
        return "".join(line for line in fh if not line.startswith("#"))


def collect(req, out_path, result) -> dict:
    """Normalised public output of one request."""
    if req.kind == "region":
        meta, _, rows = _read_csv(out_path)
        _, _, crows = _read_csv(f"{out_path}.contours.csv")
        polylines = []
        for pid, _vid, x, y, closed in crows:
            if int(pid) == len(polylines):
                polylines.append({"closed": int(closed), "xy": []})
            polylines[int(pid)]["xy"].append([float(x), float(y)])
        return {
            "threshold": float(meta["threshold"]),
            "stat": [float(r[2]) if r[2] else None for r in rows],
            "status": [r[3] for r in rows],
            "inside": [int(r[4]) for r in rows],
            "contours": polylines,
        }
    if req.kind == "fit":
        with open(out_path) as fh:
            return json.load(fh)
    if req.kind == "interval":
        return {
            "lo": result.lo, "hi": result.hi, "estimate": result.estimate,
            "contains_estimate": result.contains_estimate, "threshold": result.threshold,
            "truncated_lo": result.truncated_lo, "truncated_hi": result.truncated_hi,
        }
    payload = _payload(out_path)
    lines = payload.splitlines()
    header = lines[0].split(",")
    return {"payload": payload, "rows": [dict(zip(header, ln.split(","))) for ln in lines[1:]]}


def check_invariants(req, out, expected_rows: int = 0) -> list[str]:
    """Seed-independent properties of one request's output."""
    errors = []
    if req.kind == "region":
        n = len(out["stat"])
        if n != req.steps ** 2:
            errors.append(f"{n} grid rows, expected {req.steps ** 2}")
        for stat, status, inside in zip(out["stat"], out["status"], out["inside"]):
            if status not in STATUSES:
                errors.append(f"unknown status {status!r}")
                break
            if req.method == "ael" and status == "nosolution":
                errors.append("AEL node reported nosolution")
                break
            if (status == "ok") != (stat is not None):
                errors.append(f"status {status} with stat {stat}")
                break
            want = int(status == "ok" and stat <= out["threshold"])
            if inside != want:
                errors.append(f"inside flag {inside} disagrees with stat {stat}")
                break
        for poly in out["contours"]:
            xy = poly["xy"]
            if poly["closed"] and xy[0] != xy[-1]:
                errors.append("closed contour polyline does not end at its start")
            if any(not (0.0 <= c <= 1.0) for pt in xy for c in pt):
                errors.append("contour vertex outside the box")
                break
    elif req.kind == "fit":
        p, q = req.order
        est = out.get("ar", []) + out.get("ma", [])
        if len(est) != p + q or not all(math.isfinite(v) for v in est):
            errors.append(f"bad estimate {est}")
        if not out.get("converged") or not math.isfinite(out.get("loglik", math.nan)):
            errors.append(f"fit not converged or loglik not finite: {out.get('loglik')}")
    elif req.kind == "interval":
        if not out["contains_estimate"]:
            errors.append("interval does not contain its estimate")
        if not (math.isfinite(out["lo"]) and math.isfinite(out["hi"]) and out["lo"] <= out["hi"]):
            errors.append(f"bad interval [{out['lo']}, {out['hi']}]")
    else:
        rows = out["rows"]
        if len(rows) != expected_rows:
            errors.append(f"{len(rows)} coverage rows, expected {expected_rows}")
        for row in rows:
            cov = float(row["coverage"])
            if not 0.0 <= cov <= 1.0:
                errors.append(f"coverage {cov} outside [0, 1]")
            if row["method"] == "ael" and int(row["nosolution_count"]) != 0:
                errors.append("AEL replication reported nosolution")
    return errors


def check_nesting(ael: dict, el: dict) -> list[str]:
    """AEL <= EL at every node where both statistics are defined."""
    worst = 0.0
    for a, e, sa, se in zip(ael["stat"], el["stat"], ael["status"], el["status"]):
        if sa == "ok" and se == "ok":
            worst = max(worst, (a - e) / max(1.0, abs(e)))
    if worst > NESTING_TOL:
        return [f"AEL exceeds EL by {worst:.3e} (relative)"]
    return []


def compare_reference(req, out, ref) -> list[str]:
    """Agreement with the reference output stored from the seed code."""
    errors = []
    if req.kind == "region":
        if out["status"] != ref["status"] or out["inside"] != ref["inside"]:
            errors.append("status/inside differ from the reference")
            return errors
        for a, b in zip(out["stat"], ref["stat"]):
            if b is not None and abs(a - b) > GRID_STAT_REL * abs(b):
                errors.append(f"grid stat {a!r} differs from reference {b!r}")
                break
        # Nodes sit at cell centres of the unit box, so they span 1 - 1/steps.
        tol = CONTOUR_SPAN_REL * (1.0 - 1.0 / req.steps)
        shape = [(p["closed"], len(p["xy"])) for p in out["contours"]]
        if shape != [(p["closed"], len(p["xy"])) for p in ref["contours"]]:
            errors.append("contour polylines differ in number, length or closure")
        else:
            for p, r in zip(out["contours"], ref["contours"]):
                if any(abs(u - v) > tol for pu, pv in zip(p["xy"], r["xy"]) for u, v in zip(pu, pv)):
                    errors.append("contour vertex differs from the reference")
                    break
    elif req.kind == "fit":
        if out["loglik"] < ref["loglik"] - FIT_LOGLIK_REL * abs(ref["loglik"]):
            errors.append(f"loglik {out['loglik']!r} below reference {ref['loglik']!r}")
        est, rest = out["ar"] + out["ma"], ref["ar"] + ref["ma"]
        if any(abs(a - b) > FIT_ESTIMATE_ABS for a, b in zip(est, rest)):
            errors.append(f"estimate {est} differs from reference {rest}")
    elif req.kind == "interval":
        for end in ("lo", "hi"):
            if abs(out[end] - ref[end]) > INTERVAL_ABS:
                errors.append(f"interval {end} {out[end]!r} differs from reference {ref[end]!r}")
        for flag in ("truncated_lo", "truncated_hi"):
            if out[flag] != ref[flag]:
                errors.append(f"{flag} differs from the reference")
    elif out["payload"] != ref["payload"]:
        errors.append("coverage CSV payload differs from the reference")
    return errors


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict | None:
    path = reference_path(workload)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(workload: str, outputs: dict) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as raw:
        raw.write(json.dumps(outputs, sort_keys=True).encode())
    return path
