"""Workload definitions and seeded input generation for the elspec benchmark.

A workload is a fixed list of requests (one *pass*) over inputs generated
from the run seed.  Series are simulated here with numpy alone, independent
of ``elspec.simulate``, so a change to the program never changes its inputs
and input generation never imports more than numpy.

Request kinds:

* ``fit``      -- ``elspec fit <series> --order p,q`` through ``elspec.cli.main``
* ``region``   -- ``elspec region <series> --order 1,1 --method m --box 0:1,0:1
  --steps s`` through ``elspec.cli.main``
* ``interval`` -- ``elspec.confidence.interval_1d`` on a periodogram computed
  before the measured phase
* ``coverage`` -- ``elspec coverage --plan <plan>`` through ``elspec.cli.main``

Every workload issues every kind, because every end-to-end metric is
reported on every workload.  Each workload's own stress dominates its pass;
the other kinds are small fixed probes (see README.md for the measured
shares).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("region", "coverage", "long-series")
SIZES = ("full", "toy")
DEFAULT_SEED = 1
BURN_IN = 500


@dataclass(frozen=True)
class Series:
    name: str
    ar: tuple
    ma: tuple
    T: int


@dataclass(frozen=True)
class Request:
    kind: str
    key: str
    series: str = ""
    order: tuple = ()
    method: str = ""
    steps: int = 0
    plan: str = ""


@dataclass
class Workload:
    name: str
    series: list = field(default_factory=list)
    plans: dict = field(default_factory=dict)
    requests: list = field(default_factory=list)


def _arma11(name, T):
    return Series(name, (0.7,), (0.5,), T)


def _ma1(name, T):
    return Series(name, (), (0.5,), T)


def _plan(model, params, sizes, noises, methods, reps):
    return {
        "model": model, "params": params, "sample_sizes": sizes, "noises": noises,
        "replications": reps, "level": 0.90, "methods": methods, "a_n": "half_log",
    }


def _scaled(size, full, toy):
    return full if size == "full" else toy


def _fit(s: Series):
    return Request("fit", f"fit/{s.name}", series=s.name, order=(len(s.ar), len(s.ma)))


def _region(s: Series, method, steps):
    return Request("region", f"region/{s.name}/{method}", series=s.name, order=(1, 1),
                   method=method, steps=steps)


def _interval(s: Series, method):
    return Request("interval", f"interval/{s.name}/{method}", series=s.name,
                   order=(len(s.ar), len(s.ma)), method=method)


def _coverage(name):
    return Request("coverage", f"coverage/{name}", plan=name)


def _fit_probes(w: Workload, count: int, lengths: tuple) -> list:
    """Fits of ``count`` ARMA(1,1) series cycling through ``lengths``."""
    reqs = []
    for i in range(count):
        s = _arma11(f"F{i}", lengths[i % len(lengths)])
        w.series.append(s)
        reqs.append(_fit(s))
    return reqs


def _interval_probes(w: Workload) -> list:
    """Intervals on eight MA(1) T=200 series, methods in turn."""
    reqs = []
    for i, method in enumerate(("ael", "el", "eb", "ael") * 2):
        s = _ma1(f"M{i}", 200)
        w.series.append(s)
        reqs.append(_interval(s, method))
    return reqs


def define(workload: str, size: str = "full") -> Workload:
    """The request list of one pass of ``workload`` at ``size``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    w = Workload(workload)
    if workload == "region":
        # Two-dimensional statistic scans at small T: the EL/AEL dual over
        # thousands of grid nodes, ArmaSpec validation and psi_profile.  The
        # T=50 EL scan hits the no-solution (hull failure) path at ~10% of
        # nodes.
        steps = _scaled(size, 60, 6)
        for T in (50, 200):
            s = _arma11(f"A{T}", T)
            w.series.append(s)
            w.requests += [_fit(s), _region(s, "ael", steps), _region(s, "el", steps)]
        # Fit time depends on the drawn series (Nelder-Mead iterations), so
        # fit_s averages more series than the two that are scanned.
        w.requests += _fit_probes(w, _scaled(size, 12, 2), (50, 200))
        w.requests += _interval_probes(w)
        w.plans["Q50"] = _plan("arma11", [[0.7, 0.5]], [50], ["normal"], ["ael"],
                               _scaled(size, 1000, 4))
        w.requests.append(_coverage("Q50"))
    elif workload == "coverage":
        # Seeded Monte Carlo: thousands of small unrelated dual problems with
        # arma.simulate, bartlett and the mc loop; the T=500 plan adds a
        # moderate periodogram share.
        reps = _scaled(size, 1000, 8)
        w.plans["C1"] = _plan("ma1", [0.25], [70], ["normal"], ["el", "ael", "eb"], reps)
        w.plans["C2"] = _plan("ar1", [0.9], [20], ["normal"], ["el", "ael", "eb"], reps)
        w.plans["C3"] = _plan("arma11", [[0.7, 0.5]], [20], ["normal", "chi2_5"],
                              ["el", "ael"], reps)
        w.plans["C4"] = _plan("ma1", [0.5], [_scaled(size, 500, 100)], ["chi2_5"],
                              ["el", "ael", "eb"], _scaled(size, 250, 4))
        w.requests += [_coverage(name) for name in w.plans]
        w.requests += _fit_probes(w, _scaled(size, 8, 2), (100,))
        w.requests += [_region(s, "ael", _scaled(size, 12, 4)) for s in w.series[:2]]
        w.requests += _interval_probes(w)
    else:
        # Long series: the O(T*n) direct periodogram dominates each fit and
        # peak memory; el works on a few tall (n ~ 4000 row) matrices.  The
        # ARMA(2,1) fit runs the five-start Nelder-Mead and the
        # finite-difference gradient used for p+q > 2.
        T = _scaled(size, 8000, 400)
        for s in (Series("R8k", (0.6,), (), T), _ma1("M8k", T)):
            w.series.append(s)
            w.requests.append(_fit(s))
            w.requests += [_interval(s, m) for m in ("ael", "el", "eb")]
        b = Series("B2k", (0.5, 0.3), (0.4,), _scaled(size, 2000, 200))
        w.series.append(b)
        w.requests.append(_fit(b))
        a = _arma11("A2k", _scaled(size, 2000, 200))
        w.series.append(a)
        w.requests.append(_region(a, "ael", _scaled(size, 12, 4)))
        w.plans["L2k"] = _plan("ma1", [0.5], [_scaled(size, 2000, 200)], ["chi2_5"],
                               ["el", "ael", "eb"], _scaled(size, 8, 2))
        w.requests.append(_coverage("L2k"))
    return w


def simulate_arma(rng: np.random.Generator, ar, ma, T: int) -> np.ndarray:
    """phi(B) z_t = theta(B) a_t with standard-normal a_t, elspec's sign
    convention (z_t = sum phi_i z_{t-i} + a_t - sum theta_j a_{t-j}), zero
    start and a discarded burn-in."""
    a = rng.standard_normal(T + BURN_IN).tolist()
    z = [0.0] * (T + BURN_IN)
    for t in range(T + BURN_IN):
        v = a[t]
        for i, phi in enumerate(ar, start=1):
            if t >= i:
                v += phi * z[t - i]
        for j, theta in enumerate(ma, start=1):
            if t >= j:
                v -= theta * a[t - j]
        z[t] = v
    return np.array(z[BURN_IN:])


def generate(w: Workload, seed: int) -> tuple[dict, dict]:
    """Series values and plan dictionaries of ``w``; the same seed gives the
    same inputs."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    values = {}
    for index, s in enumerate(w.series):
        rng = np.random.default_rng([seed, index])
        values[s.name] = simulate_arma(rng, s.ar, s.ma, s.T)
    plans = {}
    for index, (name, plan) in enumerate(sorted(w.plans.items())):
        state = np.random.SeedSequence([seed, 1000 + index]).generate_state(1)[0]
        plans[name] = dict(plan, seed=int(state))
    return values, plans


def write_inputs(workdir: Path, values: dict, plans: dict) -> dict:
    """Write series and plan files; returns name -> path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, vals in values.items():
        path = workdir / f"{name}.txt"
        path.write_text("".join(f"{v!r}\n" for v in vals.tolist()))
        paths[name] = path
    for name, plan in plans.items():
        path = workdir / f"{name}.plan.json"
        path.write_text(json.dumps(plan))
        paths[name] = path
    return paths
