"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured values before asserting.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines even when everything passes.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from elspec import (
    ArmaSpec,
    ExperimentPlan,
    NoiseKind,
    compute_periodogram,
    derive_seeds,
    log_spectral_gradient,
    run_coverage,
    sandwich,
    simulate,
    spectral_density,
    whittle_fit,
)
from elspec.el import HALF_LOG, MAX_HALF_LOG, adjust_rows, solve_dual
from elspec.errors import ConvergenceError, NoSolutionError
from elspec.whittle import psi_profile

from conftest import all_fourier_ordinates

BASE_SEED = 20260810


def _seed(criterion, rep):
    """The seed of replication ``rep`` of a criterion's draws."""
    return int(derive_seeds(BASE_SEED, criterion, [rep])[0])


def _report(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_table1_cell_reproduction():
    # MA(1), theta=0.25, normal noise, series length 70, R=1000, 90% nominal,
    # a_n = log(n)/2: reference coverages AEL 0.894 and EL 0.880, each +-0.03
    t0 = time.time()
    plan = ExperimentPlan(
        model="ma1", params=(0.25,), sample_sizes=(70,), noises=("normal",),
        replications=1000, level=0.90, methods=("el", "ael"), seed=BASE_SEED,
        a_n="half_log",
    )
    report = run_coverage(plan)
    el = report.cell(70, "normal", (0.25,), "el").coverage
    ael = report.cell(70, "normal", (0.25,), "ael").coverage
    elapsed = time.time() - t0
    ok_el = abs(el - 0.880) <= 0.03
    ok_ael = abs(ael - 0.894) <= 0.03
    ok_time = elapsed < 300.0
    _report(
        1, "Table-1 cell MA(1) theta=0.25 n=70",
        ok_el and ok_ael and ok_time,
        f"EL {el:.3f} (ref 0.880+-0.03), AEL {ael:.3f} (ref 0.894+-0.03), {elapsed:.0f}s",
    )
    assert ok_time
    assert ok_ael, f"AEL coverage {ael:.3f} outside 0.894 +- 0.03"
    assert ok_el, f"EL coverage {el:.3f} outside 0.880 +- 0.03"


def test_criterion_2_table2_boundary_cell():
    # AR(1), phi=0.9, normal, series length 20, R=1000: reference EL 0.476
    # and AEL 0.505, each +-0.05; AEL strictly exceeds EL on paired series
    plan = ExperimentPlan(
        model="ar1", params=(0.9,), sample_sizes=(20,), noises=("normal",),
        replications=1000, level=0.90, methods=("el", "ael"), seed=BASE_SEED,
        a_n="half_log",
    )
    report = run_coverage(plan)
    el = report.cell(20, "normal", (0.9,), "el").coverage
    ael = report.cell(20, "normal", (0.9,), "ael").coverage
    strictly_exceeds = ael > el
    ok_el = abs(el - 0.476) <= 0.05
    ok_ael = abs(ael - 0.505) <= 0.05
    _report(
        2, "Table-2 cell AR(1) phi=0.9 n=20",
        ok_el and ok_ael and strictly_exceeds,
        f"EL {el:.3f} (ref 0.476+-0.05), AEL {ael:.3f} (ref 0.505+-0.05), "
        f"AEL>EL {strictly_exceeds}",
    )
    assert strictly_exceeds, "paired AEL coverage must strictly exceed EL"
    assert ok_el, f"EL coverage {el:.3f} outside 0.476 +- 0.05"
    assert ok_ael, f"AEL coverage {ael:.3f} outside 0.505 +- 0.05"


def test_criterion_3_paired_ordering_sweep():
    # MA(1) sweep, R=300: AEL coverage >= EL coverage in every cell, exactly
    plan = ExperimentPlan(
        model="ma1", params=(0.25, 0.5, 0.7), sample_sizes=(20, 40),
        noises=("normal",), replications=300, level=0.90,
        methods=("el", "ael"), seed=BASE_SEED, a_n="half_log",
    )
    report = run_coverage(plan)
    cells = []
    dominated = True
    for T in (20, 40):
        for theta in (0.25, 0.5, 0.7):
            el = report.cell(T, "normal", (theta,), "el").coverage
            ael = report.cell(T, "normal", (theta,), "ael").coverage
            cells.append((T, theta, el, ael))
            dominated &= ael >= el
    detail = "; ".join(f"T={T} th={th}: EL {el:.3f} AEL {ael:.3f}" for T, th, el, ael in cells)
    _report(3, "paired ordering sweep", dominated, detail)
    assert dominated


def test_criterion_4_nesting_and_existence_on_grids():
    # 20 ARMA(1,1) series of length 40, 40x40 grid over (0,1)^2:
    # W* <= W + 1e-8 wherever the EL solve succeeds; AEL solves everywhere
    spec_true = ArmaSpec(ar=[0.7], ma=[0.5])
    nodes = np.linspace(0, 1, 41)
    nodes = (nodes[:-1] + nodes[1:]) / 2  # cell centers, strictly inside
    total = el_solved = nest_violations = ael_failures = 0
    for s in range(20):
        ts = simulate(spec_true, 40, NoiseKind.STANDARD_NORMAL, seed=_seed(4, s))
        pg = compute_periodogram(ts)
        for phi in nodes:
            for theta in nodes:
                spec = ArmaSpec(ar=[phi], ma=[theta])
                psi = psi_profile(pg, spec)
                total += 1
                try:
                    wstar = solve_dual(adjust_rows(psi, MAX_HALF_LOG), adjusted=True).stat
                except (NoSolutionError, ConvergenceError):
                    ael_failures += 1
                    continue
                try:
                    w = solve_dual(psi).stat
                except (NoSolutionError, ConvergenceError):
                    continue
                el_solved += 1
                if wstar > w + 1e-8:
                    nest_violations += 1
    ok = ael_failures == 0 and nest_violations == 0
    _report(
        4, "nesting + adjusted existence",
        ok,
        f"{total} nodes, AEL failures {ael_failures}, EL solved {el_solved}, "
        f"nesting violations {nest_violations}",
    )
    assert ael_failures == 0, "adjusted solve must succeed at 100% of nodes"
    assert nest_violations == 0


def test_criterion_5_chi_square_calibration():
    # MA(1) theta=0.5, T=512, R=2000: mean of W*(theta_true) in [0.85, 1.15]
    # and KS distance to chi-square(1) below 0.05
    spec = ArmaSpec(ma=[0.5])
    stats = np.empty(2000)
    for r in range(2000):
        ts = simulate(spec, 512, NoiseKind.STANDARD_NORMAL, seed=_seed(5, r))
        pg = compute_periodogram(ts)
        stats[r] = solve_dual(adjust_rows(psi_profile(pg, spec), HALF_LOG), adjusted=True).stat
    mean = float(stats.mean())
    ks = float(kstest(stats, chi2(df=1).cdf).statistic)
    coverage = float(np.mean(stats <= chi2.ppf(0.90, 1)))
    ok = 0.85 <= mean <= 1.15 and ks < 0.05 and abs(coverage - 0.90) <= 0.025
    _report(
        5, "chi-square calibration T=512",
        ok,
        f"mean W* {mean:.3f} (want [0.85, 1.15]), KS {ks:.4f} (< 0.05), "
        f"AEL coverage {coverage:.3f} (0.90 +- 0.025)",
    )
    assert 0.85 <= mean <= 1.15
    assert ks < 0.05
    assert abs(coverage - 0.90) <= 0.025


def test_criterion_6_quadratic_approximation():
    # W*(bhat + 0.5/sqrt(n)) matches (n+1) delta' Vhat^{-1} delta within 25%
    # relative error on at least 90% of 200 seeds (T=512 MA(1))
    spec_true = ArmaSpec(ma=[0.5])
    good = used = 0
    for s in range(200):
        ts = simulate(spec_true, 512, NoiseKind.STANDARD_NORMAL, seed=_seed(6, s))
        pg = compute_periodogram(ts)
        fit = whittle_fit(pg, (0, 1), profile=True)
        if not fit.converged:
            continue
        bhat = float(fit.estimate[0])
        diag = sandwich(pg, ArmaSpec.from_beta1((0, 1), fit.estimate), profile=True)
        n = pg.n
        delta = 0.5 / math.sqrt(n)
        psi = psi_profile(pg, ArmaSpec(ma=[bhat + delta]))
        wstar = solve_dual(adjust_rows(psi), adjusted=True).stat
        quad = (n + 1) * delta**2 / diag.v_hat[0, 0]
        used += 1
        good += abs(wstar - quad) / quad <= 0.25
    frac = good / used
    ok = frac >= 0.90 and used >= 195
    _report(
        6, "quadratic approximation",
        ok,
        f"{good}/{used} seeds within 25% relative error ({frac:.1%}, want >= 90%)",
    )
    assert used >= 195
    assert frac >= 0.90


def test_criterion_7_deterministic_oracles():
    t0 = time.time()
    # dual solver against the closed-form scalar example
    sol = solve_dual(np.array([[-1.0], [2.0]]))
    xi_err = abs(sol.xi[0] - 0.25)
    stat_err = abs(sol.stat - 2.0 * math.log(9.0 / 8.0))
    # Parseval identity on a fixed draw
    ts = simulate(ArmaSpec(ar=[0.6]), 157, NoiseKind.STANDARD_NORMAL, seed=BASE_SEED)
    _, ords = all_fourier_ordinates(ts)
    parseval_rel = abs(
        ords.sum() - np.sum((ts.values - ts.mean) ** 2) / (2 * math.pi)
    ) / ords.sum()
    # closed-form gradients against central finite differences
    rng = np.random.default_rng(BASE_SEED)
    grad_err = 0.0
    for _ in range(50):
        phi = rng.uniform(-0.85, 0.85)
        theta = rng.uniform(-0.85, 0.85)
        s2 = rng.uniform(0.3, 2.5)
        w = rng.uniform(0.05, math.pi - 0.05)
        spec = ArmaSpec(ar=[phi], ma=[theta], sigma2=s2)
        got = log_spectral_gradient(spec, w, profile=False)
        h = 1e-6
        fd = np.empty(3)
        for i in range(3):
            up, dn = spec.beta.copy(), spec.beta.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                math.log(spectral_density(ArmaSpec.from_beta((1, 1), up, validate=False), w))
                - math.log(spectral_density(ArmaSpec.from_beta((1, 1), dn, validate=False), w))
            ) / (2 * h)
        grad_err = max(grad_err, float(np.max(np.abs(got - fd))))
    elapsed = time.time() - t0
    ok = xi_err < 1e-9 and stat_err < 1e-9 and parseval_rel < 1e-10 and grad_err < 1e-5 and elapsed < 10
    _report(
        7, "deterministic oracles",
        ok,
        f"xi err {xi_err:.2e}, stat err {stat_err:.2e}, Parseval {parseval_rel:.2e}, "
        f"grad-vs-FD {grad_err:.2e}, {elapsed:.1f}s",
    )
    assert xi_err < 1e-9
    assert stat_err < 1e-9
    assert parseval_rel < 1e-10
    assert grad_err < 1e-5
    assert elapsed < 10


def test_criterion_8_whittle_consistency():
    # T=2000 fits land within +-0.05 of the truth on >= 95% of 100 seeds
    results = {}
    for name, spec_true, order, truth in (
        ("ma1", ArmaSpec(ma=[0.5]), (0, 1), 0.5),
        ("ar1", ArmaSpec(ar=[0.7]), (1, 0), 0.7),
    ):
        hits = 0
        for s in range(100):
            ts = simulate(spec_true, 2000, NoiseKind.STANDARD_NORMAL,
                          seed=_seed(8, 1000 * (order[0]) + s))
            fit = whittle_fit(compute_periodogram(ts), order, profile=True)
            hits += fit.converged and abs(float(fit.estimate[0]) - truth) <= 0.05
        results[name] = hits
    ok = all(h >= 95 for h in results.values())
    _report(
        8, "Whittle consistency T=2000",
        ok,
        f"MA(1) {results['ma1']}/100, AR(1) {results['ar1']}/100 within +-0.05 (want >= 95)",
    )
    assert results["ma1"] >= 95
    assert results["ar1"] >= 95
