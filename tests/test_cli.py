import json
from pathlib import Path

import numpy as np
import pytest

from elspec import ArmaSpec, NoiseKind, simulate
from elspec.cli import main


def write_series(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


@pytest.fixture
def wn_file(tmp_path):
    ts = simulate(ArmaSpec(), 200, NoiseKind.STANDARD_NORMAL, seed=31)
    return write_series(tmp_path / "wn.txt", ts.values)


@pytest.fixture
def ma1_file(tmp_path):
    ts = simulate(ArmaSpec(ma=[0.5]), 2000, NoiseKind.STANDARD_NORMAL, seed=12)
    return write_series(tmp_path / "ma1.txt", ts.values)


def payload_lines(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


class TestPeriodogramCommand:
    def test_constant_file_single_zero_row(self, tmp_path, capsys):
        src = write_series(tmp_path / "c.txt", [5.0, 5.0, 5.0, 5.0])
        out = tmp_path / "pg.csv"
        assert main(["periodogram", src, "--out", str(out)]) == 0
        rows = payload_lines(out)
        assert rows[0] == "j,omega,ordinate"
        assert len(rows) == 2  # header + n = floor(3/2) = 1 ordinate
        assert float(rows[1].split(",")[2]) == 0.0

    def test_t100_gives_49_rows(self, tmp_path, wn_file):
        ts = simulate(ArmaSpec(), 100, NoiseKind.STANDARD_NORMAL, seed=2)
        src = write_series(tmp_path / "t100.txt", ts.values)
        out = tmp_path / "pg.csv"
        assert main(["periodogram", src, "--out", str(out)]) == 0
        assert len(payload_lines(out)) == 50  # header + 49

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["periodogram", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]) == 2

    def test_short_file_exit_2(self, tmp_path):
        src = write_series(tmp_path / "short.txt", [1.0, 2.0])
        assert main(["periodogram", src, "--out", str(tmp_path / "o")]) == 2

    def test_parse_error_names_line(self, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("1.0\n2.0\nnot-a-number\n4.0\n")
        code = main(["periodogram", str(tmp_path / "bad.txt"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert ":3:" in capsys.readouterr().err

    def test_comments_and_blanks_skipped(self, tmp_path):
        (tmp_path / "c.txt").write_text("# header\n1.0\n\n2.0\n3.0\n# x\n4.0\n5.0\n")
        out = tmp_path / "pg.csv"
        assert main(["periodogram", str(tmp_path / "c.txt"), "--out", str(out)]) == 0
        assert len(payload_lines(out)) == 3  # header + floor(4/2) = 2

    def test_json_format(self, tmp_path, wn_file):
        out = tmp_path / "pg.json"
        assert main(["periodogram", wn_file, "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["command"] == "periodogram"
        assert len(doc["payload"]) == 99

    def test_input_not_mutated(self, tmp_path, wn_file):
        before = Path(wn_file).read_text()
        main(["periodogram", wn_file, "--out", str(tmp_path / "o.csv")])
        assert Path(wn_file).read_text() == before


class TestFitCommand:
    def test_white_noise_sigma2_close_to_sample_variance(self, wn_file, capsys):
        code = main(["fit", wn_file, "--order", "0,0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        vals = np.loadtxt(wn_file)
        assert doc["sigma2_hat"] == pytest.approx(vals.var(), rel=0.10)

    def test_bad_order_exit_2(self, wn_file):
        assert main(["fit", wn_file, "--order", "banana"]) == 2

    def test_ma1_estimate_close_to_truth(self, ma1_file, capsys):
        code = main(["fit", ma1_file, "--order", "0,1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.45 <= doc["ma"][0] <= 0.55
        assert doc["converged"] is True
        assert doc["v_hat"] is not None

    def test_seed_flag_rejected(self, ma1_file):
        # the fit's starts are fixed, so it takes no seed
        assert main(["fit", ma1_file, "--order", "0,1", "--seed", "3"]) == 2

    def test_out_file_written(self, ma1_file, tmp_path, capsys):
        out = tmp_path / "fit.json"
        main(["fit", ma1_file, "--order", "0,1", "--out", str(out)])
        capsys.readouterr()
        assert json.loads(out.read_text())["order"] == [0, 1]


class TestRegionCommand:
    def test_threshold_in_metadata(self, tmp_path, capsys):
        ts = simulate(ArmaSpec(ar=[0.6], ma=[0.3]), 120, NoiseKind.STANDARD_NORMAL, seed=5)
        src = write_series(tmp_path / "s.txt", ts.values)
        out = tmp_path / "grid.csv"
        code = main(["region", src, "--order", "1,1", "--method", "ael", "--alpha", "0.1",
                     "--box", "0:1,0:1", "--steps", "12,12", "--out", str(out)])
        assert code == 0
        meta = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
        thr = [ln for ln in meta if ln.startswith("# threshold:")][0]
        assert float(thr.split(":", 1)[1]) == pytest.approx(4.60517, abs=1e-5)
        assert (tmp_path / "grid.csv.contours.csv").exists()

    def test_ael_region_at_least_as_large_as_el(self, tmp_path, capsys):
        ts = simulate(ArmaSpec(ar=[0.6], ma=[0.3]), 120, NoiseKind.STANDARD_NORMAL, seed=5)
        src = write_series(tmp_path / "s.txt", ts.values)
        counts = {}
        for method in ("el", "ael"):
            out = tmp_path / f"{method}.csv"
            assert main(["region", src, "--order", "1,1", "--method", method,
                         "--box", "0:1,0:1", "--steps", "15,15", "--out", str(out)]) == 0
            rows = payload_lines(out)[1:]
            counts[method] = sum(int(r.split(",")[-1]) for r in rows)
        assert counts["ael"] >= counts["el"]

    def test_empty_region_ok(self, tmp_path, capsys):
        ts = simulate(ArmaSpec(ma=[0.2]), 400, NoiseKind.STANDARD_NORMAL, seed=9)
        src = write_series(tmp_path / "s.txt", ts.values)
        out = tmp_path / "grid.csv"
        # absurd box far from the estimate: no node inside, exit still 0
        code = main(["region", src, "--order", "0,1", "--method", "ael",
                     "--box", "0.9:0.99", "--steps", "8", "--out", str(out)])
        assert code == 0
        rows = payload_lines(out)[1:]
        assert all(r.split(",")[-1] == "0" for r in rows)

    def test_box_outside_region_exit_2(self, tmp_path):
        ts = simulate(ArmaSpec(ma=[0.2]), 100, NoiseKind.STANDARD_NORMAL, seed=9)
        src = write_series(tmp_path / "s.txt", ts.values)
        assert main(["region", src, "--order", "0,1", "--method", "ael",
                     "--box", "0.5:1.5", "--steps", "8", "--out", str(tmp_path / "g.csv")]) == 2

    def test_tb_requires_constant(self, tmp_path, wn_file):
        assert main(["region", wn_file, "--order", "0,1", "--method", "tb",
                     "--box", "0:0.5", "--steps", "5", "--out", str(tmp_path / "g.csv")]) == 2

    def test_alpha_outside_unit_interval_exit_2(self, tmp_path, wn_file, capsys):
        assert main(["region", wn_file, "--order", "0,1", "--alpha", "1.5",
                     "--box", "0:0.5", "--steps", "5", "--out", str(tmp_path / "g.csv")]) == 2
        assert "level" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_nosolution_cells_carry_sentinel(self, tmp_path, capsys):
        # k=2 EL scans far from the estimate produce undefined cells on some
        # draws; the status column must record them rather than a number
        ts = simulate(ArmaSpec(ar=[0.85], ma=[0.1]), 40, NoiseKind.STANDARD_NORMAL, seed=3)
        src = write_series(tmp_path / "s.txt", ts.values)
        out = tmp_path / "grid.csv"
        assert main(["region", src, "--order", "1,1", "--method", "el",
                     "--box=-0.9:0.9,-0.9:0.9", "--steps", "12,12", "--out", str(out)]) == 0
        rows = [r.split(",") for r in payload_lines(out)[1:]]
        statuses = {r[3] for r in rows}
        assert statuses <= {"ok", "nosolution", "failed", "invalid"}
        for r in rows:
            if r[3] != "ok":
                assert r[2] == ""  # no fabricated statistic


class TestCoverageCommand:
    def plan_file(self, tmp_path, reps=20):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "model": "ma1", "params": [0.5], "sample_sizes": [20],
            "noises": ["normal"], "replications": reps, "level": 0.9,
            "methods": ["el", "ael"], "seed": 99, "a_n": "half_log",
        }))
        return str(path)

    def test_r1_coverage_zero_or_one(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        code = main(["coverage", "--plan", self.plan_file(tmp_path), "--out", str(out),
                     "--replications", "1"])
        assert code == 0
        for row in payload_lines(out)[1:]:
            assert float(row.split(",")[5]) in (0.0, 1.0)

    def test_rerun_payload_byte_identical(self, tmp_path, capsys):
        plan = self.plan_file(tmp_path)
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        assert main(["coverage", "--plan", plan, "--out", str(out1)]) == 0
        assert main(["coverage", "--plan", plan, "--out", str(out2)]) == 0
        assert payload_lines(out1) == payload_lines(out2)

    def test_header_columns(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        main(["coverage", "--plan", self.plan_file(tmp_path), "--out", str(out)])
        header = payload_lines(out)[0]
        assert header.startswith("model,n,noise,param,method,coverage,se,nosolution_count")

    def test_plan_schema_violation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"model": "ma1", "params": [0.5]}))
        assert main(["coverage", "--plan", str(path), "--out", str(tmp_path / "c.csv")]) == 2
        assert "sample_sizes" in capsys.readouterr().err

    def test_paired_summary_printed(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        main(["coverage", "--plan", self.plan_file(tmp_path), "--out", str(out)])
        assert "AEL closer to nominal" in capsys.readouterr().out


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2
