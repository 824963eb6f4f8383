import ast
import json
import logging
import re

import numpy as np
import pytest
from scipy.stats import chi2

from elspec import (
    ArmaSpec,
    ExperimentPlan,
    InputError,
    NoiseKind,
    NoSolutionError,
    compute_periodogram,
    derive_seeds,
    load_plan,
    paired_summary,
    psi_profile,
    run_coverage,
    simulate,
)
import elspec.arma
from elspec.arma import batch_slices, lag_table, simulate_stack
from elspec.cli import main
from elspec.confidence import method_stats
from elspec.el import HALF_LOG, adjust_rows, solve_dual
from elspec.errors import ConvergenceError
from elspec.mc import NOISE_BY_NAME
from elspec.periodogram import _fft_slices, periodogram_stack
from elspec.whittle import psi_profile_rows


def small_plan(**overrides):
    base = dict(
        model="ma1", params=(0.5,), sample_sizes=(30,), noises=("normal",),
        replications=40, level=0.90, methods=("el", "ael"), seed=7, a_n="half_log",
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestExperimentPlan:
    def test_valid_plan_normalizes(self):
        plan = small_plan(params=(0.25, 0.5))
        assert plan.params == ((0.25,), (0.5,))
        assert plan.order == (0, 1)

    def test_arma11_params_are_pairs(self):
        plan = small_plan(model="arma11", params=((0.7, 0.5),))
        assert plan.params == ((0.7, 0.5),)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(model="arima"),
            dict(replications=0),
            dict(level=1.0),
            dict(methods=("el", "bogus")),
            dict(noises=("cauchy",)),
            dict(params=(1.5,)),          # outside invertibility region
            dict(sample_sizes=(3,)),
            dict(noise_centering="sometimes"),
            dict(methods=("tb",)),        # tb without constants
            dict(seed=-1),
            dict(seed=1.5),
            dict(seed=True),
            dict(seed="7"),
        ],
    )
    def test_invalid_plans_rejected(self, bad):
        with pytest.raises(InputError):
            small_plan(**bad)

    def test_tb_constants_accepted(self):
        plan = small_plan(methods=("el", "tb"), tb_constants=((0.5, 2.0),))
        assert dict(plan.tb_constants)[(0.5,)] == 2.0

    def test_tb_constant_with_nonpositive_scale_rejected(self):
        # T = 20 gives n = 9, so b = -50 makes 1 + b/n < 0 and every tb
        # replication would count as non-coverage.
        with pytest.raises(InputError, match="Bartlett scale"):
            small_plan(methods=("el", "tb"), sample_sizes=(200, 20), tb_constants=-50.0)
        with pytest.raises(InputError, match="Bartlett scale"):
            small_plan(methods=("el", "tb"), sample_sizes=(20,), tb_constants=-9.0)
        plan = small_plan(methods=("el", "tb"), sample_sizes=(200,), tb_constants=-50.0)
        assert dict(plan.tb_constants)[(0.5,)] == -50.0


class TestRunCoverage:
    def test_deterministic_given_plan(self):
        a = run_coverage(small_plan())
        b = run_coverage(small_plan())
        assert a.cells == b.cells
        c = run_coverage(small_plan(seed=8))
        assert a.cells != c.cells

    def test_r1_coverage_is_zero_or_one(self):
        rep = run_coverage(small_plan(replications=1))
        for cell in rep.cells:
            assert cell.coverage in (0.0, 1.0)
            assert cell.se == 0.0

    def test_se_formula(self):
        rep = run_coverage(small_plan(replications=50))
        for cell in rep.cells:
            p = cell.coverage
            assert cell.se == pytest.approx(np.sqrt(p * (1 - p) / 50))

    def test_paired_dominance_per_replication(self):
        # same series, same threshold: W* <= W makes AEL cover whenever EL does
        plan = small_plan(replications=60, sample_sizes=(20,), params=(0.7,))
        spec = ArmaSpec(ma=[0.7])
        thr = chi2.ppf(0.9, 1)
        for rep in range(60):
            seed = int(derive_seeds(plan.seed, 0, [rep])[0])
            ts = simulate(spec, 20, NoiseKind.STANDARD_NORMAL, seed)
            psi = psi_profile(compute_periodogram(ts), spec)
            try:
                w = solve_dual(psi).stat
            except NoSolutionError:
                continue
            wstar = solve_dual(adjust_rows(psi, HALF_LOG), adjusted=True).stat
            assert wstar <= w + 1e-8
            assert (w <= thr) <= (wstar <= thr)  # coverage implication

    def test_aggregate_dominance(self):
        rep = run_coverage(small_plan(replications=200, params=(0.25, 0.7), sample_sizes=(20, 40)))
        for param in ((0.25,), (0.7,)):
            for T in (20, 40):
                el = rep.cell(T, "normal", param, "el")
                ael = rep.cell(T, "normal", param, "ael")
                assert ael.coverage >= el.coverage

    def test_methods_share_series_within_replication(self):
        # eb and el disagree only through the threshold scale
        rep = run_coverage(small_plan(methods=("el", "eb"), replications=100))
        el = rep.cell(30, "normal", (0.5,), "el")
        eb = rep.cell(30, "normal", (0.5,), "eb")
        assert eb.coverage >= el.coverage  # positive Bartlett factor widens

    def test_chi2_noise_runs(self):
        rep = run_coverage(small_plan(noises=("chi2_5",), replications=30))
        assert len(rep.cells) == 2

    def test_ar1_model(self):
        rep = run_coverage(small_plan(model="ar1", params=(0.5,), replications=30))
        assert rep.cells[0].model == "ar1"

    def test_tb_method_uses_supplied_constant(self):
        rep = run_coverage(
            small_plan(methods=("el", "tb"), tb_constants=((0.5, 5.0),), replications=150)
        )
        el = rep.cell(30, "normal", (0.5,), "el")
        tb = rep.cell(30, "normal", (0.5,), "tb")
        assert tb.coverage >= el.coverage


    def test_stacked_run_matches_per_replication_loop(self, monkeypatch):
        # Under a 4k-entry budget, T = 20 is one dual batch of 150 whose FFT
        # runs in two chunks and whose normal series are simulated in chunks
        # of 7; T = 300 runs six dual batches of up to 27, each FFT in up to
        # five chunks of 6 series.
        monkeypatch.setattr(elspec.arma, "_BATCH_ENTRIES", 1 << 12)
        plan = small_plan(sample_sizes=(20, 300), noises=("normal", "chi2_5"),
                          replications=150, noise_centering="empirical")
        assert len(batch_slices(150, 10)) == 1 and len(_fft_slices(150, 20)) == 2
        assert len(batch_slices(150, 20 + 510)) == 22
        assert len(batch_slices(150, 150)) == 6 and len(_fft_slices(27, 300)) == 5
        report = run_coverage(plan)
        spec = ArmaSpec(ma=[0.5])
        thr = chi2.ppf(plan.level, 1)
        cell_index = 0
        for T in plan.sample_sizes:
            for noise in plan.noises:
                tally = {m: [0, 0, 0] for m in plan.methods}  # hits, nosolution, failures
                for rep in range(plan.replications):
                    ts = simulate(spec, T, NOISE_BY_NAME[noise],
                                  int(derive_seeds(plan.seed, cell_index, [rep])[0]),
                                  plan.noise_centering)
                    psi = psi_profile(compute_periodogram(ts), spec)
                    for m, mat in (("el", psi), ("ael", adjust_rows(psi, plan.policy))):
                        try:
                            tally[m][0] += solve_dual(mat, adjusted=m == "ael").stat <= thr
                        except NoSolutionError:
                            tally[m][1] += 1
                        except ConvergenceError:
                            tally[m][2] += 1
                for m, (hits, nosol, fails) in tally.items():
                    cell = report.cell(T, noise, (0.5,), m)
                    assert cell.coverage == hits / plan.replications
                    assert (cell.nosolution, cell.failures) == (nosol, fails)
                cell_index += 1


def _coverage_lines(tmp_path, plan, name):
    """The metadata lines (timestamp dropped) and the payload of an
    ``elspec coverage`` run of the plan dict ``plan``."""
    path, out = tmp_path / "plan.json", tmp_path / f"{name}.csv"
    path.write_text(json.dumps(plan))
    assert main(["coverage", "--plan", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    meta = [ln for ln in lines if ln.startswith("#") and not ln.startswith("# timestamp:")]
    return meta, "".join(ln for ln in lines if not ln.startswith("#"))


def _coverage_records(records):
    """(replications, dual batches, FFT chunks, Newton steps, no solution,
    failed) of each coverage cell's DEBUG record, the last three as dicts."""
    found = []
    for record in records:
        if record.name != "elspec.mc":
            continue
        assert record.levelno == logging.DEBUG
        match = re.search(r"(\d+) replications, (\d+) dual batches, (\d+) FFT chunks, Newton "
                          r"steps (\{.*\}), no solution (\{.*\}), failed (\{.*\})$",
                          record.getMessage())
        found.append(tuple(int(x) for x in match.groups()[:3])
                     + tuple(ast.literal_eval(x) for x in match.groups()[3:]))
    return found


@pytest.mark.parametrize("plan", [
    {"model": "ar1", "params": [0.5, 0.9], "sample_sizes": [20, 120],
     "noises": ["normal", "chi2_5"], "replications": 120, "methods": ["el", "ael", "eb"],
     "seed": 11, "noise_centering": "exact"},
    {"model": "arma11", "params": [[0.5, 0.3]], "sample_sizes": [30, 120],
     "noises": ["normal", "chi2_5"], "replications": 120, "methods": ["el", "ael"],
     "seed": 12, "noise_centering": "empirical"},
])
def test_payload_does_not_depend_on_batch_budget(plan, tmp_path, monkeypatch, caplog):
    # A 512-entry budget splits every cell into many dual batches, the T =
    # 120 batches into several FFT chunks, and simulates one series at a time.
    meta, payload = _coverage_lines(tmp_path, plan, "default")
    monkeypatch.setattr(elspec.arma, "_BATCH_ENTRIES", 1 << 9)
    with caplog.at_level(logging.DEBUG, logger="elspec"):
        small_meta, small_payload = _coverage_lines(tmp_path, plan, "small")
    assert small_payload == payload and small_meta == meta
    cells = _coverage_records(caplog.records)
    assert len(cells) == len(plan["sample_sizes"]) * 2 * len(plan["params"])
    assert all(batches > 2 for _, batches, _, _, _, _ in cells)
    assert any(chunks >= 2 * batches for _, batches, chunks, _, _, _ in cells)


def test_coverage_debug_record(caplog):
    plan = small_plan(sample_sizes=(300,), replications=500, methods=("el", "ael", "eb"))
    quiet = run_coverage(plan)
    with caplog.at_level(logging.DEBUG, logger="elspec"):
        report = run_coverage(plan)
    assert report.cells == quiet.cells
    [(reps, batches, chunks, steps, nosol, failed)] = _coverage_records(caplog.records)
    # dual batches of 218, 218 and 64 replications; FFT chunks of up to 54
    assert (reps, batches, chunks) == (500, 3, 5 + 5 + 2)
    for m in plan.methods:
        cell = report.cell(300, "normal", (0.5,), m)
        assert (nosol[m], failed[m]) == (cell.nosolution, cell.failures)
    # one cold solve of the whole stack takes the same Newton steps
    spec = ArmaSpec(ma=[0.5])
    freqs, ords = periodogram_stack(simulate_stack(
        spec, 300, derive_seeds(plan.seed, 0, range(500)), NoiseKind.STANDARD_NORMAL, "exact"))
    rows = psi_profile_rows(lag_table(freqs, 1), ords, spec.ar[None], spec.ma[None])
    whole = method_stats(rows, plan.methods, plan.policy)
    assert steps == {m: int(whole[m].iterations.sum()) for m in plan.methods}


class TestPairedSummary:
    def test_single_cell_table(self):
        rep = run_coverage(small_plan(replications=50))
        summary = paired_summary(rep)
        assert summary.n_cells == 1
        row = summary.rows[0]
        assert row.diff == pytest.approx(row.ael - row.el)

    def test_gap_flagged_when_method_missing(self):
        rep = run_coverage(small_plan(methods=("ael",), replications=10))
        summary = paired_summary(rep)
        assert summary.n_gaps == 1
        assert summary.rows[0].diff is None


class TestPlanFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "model": "ma1", "params": [0.25, 0.5], "sample_sizes": [20, 70],
            "noises": ["normal", "chi2_5"], "replications": 100, "level": 0.9,
            "methods": ["el", "ael"], "seed": 42, "a_n": "half_log",
        }))
        plan = load_plan(path)
        assert plan.params == ((0.25,), (0.5,))
        assert plan.sample_sizes == (20, 70)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"model": "ma1", "params": [0.5]}))
        with pytest.raises(InputError, match="sample_sizes"):
            load_plan(path)

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "model": "ma1", "params": [0.5], "sample_sizes": [20], "bogus": 1,
        }))
        with pytest.raises(InputError, match="bogus"):
            load_plan(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="JSON"):
            load_plan(path)

    @pytest.mark.parametrize("rule", ["none", "constant", "bogus"])
    def test_undocumented_a_n_rejected(self, tmp_path, rule):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "model": "ma1", "params": [0.5], "sample_sizes": [20], "a_n": rule,
        }))
        with pytest.raises(InputError, match="a_n"):
            load_plan(path)

    def test_tb_constants_mapping(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "model": "arma11", "params": [[0.7, 0.5]], "sample_sizes": [40],
            "methods": ["tb"], "tb_constants": {"0.7,0.5": 3.0}, "replications": 5,
        }))
        plan = load_plan(path)
        assert dict(plan.tb_constants)[(0.7, 0.5)] == 3.0


class TestDeriveSeed:
    @pytest.mark.parametrize("base", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100 + 17])
    @pytest.mark.parametrize("cell", [0, 5, 2**32 + 1])
    def test_matches_seed_sequence(self, base, cell):
        # 2**100 + 17 makes the entropy wider than SeedSequence's 4-word pool
        got = derive_seeds(base, cell, range(300))
        assert got.dtype == np.uint64 and got.shape == (300,)
        for r, seed in enumerate(got):
            ref = np.random.SeedSequence((base, cell, r)).generate_state(1, np.uint64)[0]
            assert seed == ref
        assert derive_seeds(base, cell, [299])[0] == got[-1]

    def test_reps_of_mixed_width(self):
        reps = [0, 2**32 - 1, 2**32, 2**70 + 3, 5]
        expected = [np.random.SeedSequence((3, 1, r)).generate_state(1, np.uint64)[0]
                    for r in reps]
        assert derive_seeds(3, 1, reps).tolist() == [int(e) for e in expected]
        assert derive_seeds(3, 1, []).shape == (0,)

    @pytest.mark.parametrize("args", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1.5, 0, 0)])
    def test_rejects_negative_and_non_integers(self, args):
        with pytest.raises(InputError, match="seeds must be"):
            derive_seeds(*args[:2], [args[2]])

    def test_distinct_and_reproducible(self):
        seeds = {int(s) for c in range(5) for s in derive_seeds(1, c, range(50))}
        assert len(seeds) == 250
        assert derive_seeds(1, 2, [3])[0] == derive_seeds(1, 2, [3])[0]
