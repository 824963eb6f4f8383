import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import elspec
import elspec.cli
from elspec import (
    ArmaSpec,
    InputError,
    NoiseKind,
    SingularMatrixError,
    TimeSeries,
    compute_periodogram,
    profile_sigma2,
    scan_region,
    simulate,
)
from elspec.cli import main, read_series
from elspec.confidence import STATUS_LABELS, STATUS_NO_SOLUTION, STATUS_OK, RegionGrid, grid_axis


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


def _read_series_line_loop(path):
    """The line-by-line parser that read_series replaced (test oracle)."""
    values = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise InputError(f"{path}:{lineno}: cannot parse {text!r} as a number")
    except OSError as exc:
        raise InputError(f"cannot read series file {path}: {exc}")
    if len(values) < 4:
        raise InputError(f"{path}: need at least 4 observations, found {len(values)}")
    return TimeSeries(np.array(values))


def _outcome(reader, path):
    """The values' bytes, or the InputError message."""
    try:
        return reader(path).values.tobytes()
    except InputError as exc:
        return str(exc)


# |x| <= 1e300 keeps TimeSeries' mean of up to 12 values finite
_SERIES_FLOATS = st.floats(-1e300, 1e300)
_SERIES_LINES = st.one_of(
    _SERIES_FLOATS.map(repr),
    _SERIES_FLOATS.map(lambda x: f" \t{x!r}  "),
    st.sampled_from(["", " ", "\t", " \t \x0c", "# comment", "   # indented", "\t#1.0",
                     "1_000", "1.5 # x", "abc", "nan", "-inf", "\x851.25\u2028", "1.0 2.0"]),
)


class TestReadSeries:
    @given(lines=st.lists(st.tuples(_SERIES_LINES, st.sampled_from(["\n", "\r\n", "\r"])),
                          max_size=12),
           final_newline=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_line_loop(self, lines, final_newline):
        # bitwise-equal values, or the same message, for every mix of line
        # kinds and endings, with or without a final newline
        text = "".join(line + end for line, end in lines)
        if lines and not final_newline:
            text = text[: -len(lines[-1][1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "series.txt")
            with open(path, "wb") as fh:
                fh.write(text.encode())
            assert _outcome(read_series, path) == _outcome(_read_series_line_loop, path)

    def test_first_bad_line_is_named(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"# x\r\n1.0\r\n\r\n  2.0\rbad\n3.0\nworse\n4.0\n")
        with pytest.raises(InputError) as exc:
            read_series(str(path))
        assert str(exc.value) == f"{path}:5: cannot parse 'bad' as a number"

    @pytest.mark.parametrize("argv", [
        ["fit", "--order", "0,1"],
        ["region", "--order", "0,1", "--box=-0.5:0.5", "--out", "o.csv"],
        ["periodogram", "--out", "o.csv"],
    ], ids=lambda argv: argv[0])
    def test_undecodable_file_exit_2(self, tmp_path, capsys, argv):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"1.0\r\n2.0\r\n\xff3.0\r\n4.0\r\n5.0\r\n")
        argv = [str(tmp_path / a) if a == "o.csv" else a for a in argv]
        assert main([argv[0], str(src), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert f"error: {src}:3: cannot decode the line as " in err


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

    @pytest.mark.parametrize("order", ["0,0", "1,0", "0,1", "1,1", "2,1"])
    @pytest.mark.parametrize("singular", [False, True], ids=["sandwich", "singular"])
    def test_sigma2_hat_is_profile_sigma2_bitwise(self, ma1_file, capsys, monkeypatch, order,
                                                  singular):
        # taken from the sandwich's evaluation, or from profile_sigma2 where
        # there is no sandwich (order 0,0) or it raises
        if singular:
            def raising(*args, **kwargs):
                raise SingularMatrixError("singular", cond=np.inf)

            monkeypatch.setattr(elspec.cli, "sandwich", raising)
        assert main(["fit", ma1_file, "--order", order]) in (0, 3)
        doc = json.loads(capsys.readouterr().out)
        assert ("v_hat" in doc) == (order != "0,0")
        if order != "0,0":
            assert (doc["v_hat"] is None) == singular
        pg = compute_periodogram(read_series(ma1_file))
        assert doc["sigma2_hat"] == profile_sigma2(pg, ArmaSpec(ar=doc["ar"], ma=doc["ma"]))

    def test_bad_order_exit_2(self, wn_file):
        assert main(["fit", wn_file, "--order", "banana"]) == 2

    def test_ma1_estimate_close_to_truth(self, ma1_file, capsys):
        code = main(["fit", ma1_file, "--order", "0,1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.45 <= doc["ma"][0] <= 0.55
        assert doc["converged"] is True and doc["boundary"] is False
        assert doc["v_hat"] is not None

    def test_seed_flag_rejected(self, ma1_file):
        # the fit's starts are fixed, so it takes no seed
        assert main(["fit", ma1_file, "--order", "0,1", "--seed", "3"]) == 2

    def test_out_file_written(self, ma1_file, tmp_path, capsys):
        out = tmp_path / "fit.json"
        main(["fit", ma1_file, "--order", "0,1", "--out", str(out)])
        capsys.readouterr()
        assert json.loads(out.read_text())["order"] == [0, 1]

    def test_constant_series_exit_2(self, tmp_path, capsys):
        # mean-centring leaves ordinates ~1e-60 for this constant; centring
        # by the common value leaves exact zeros
        src = write_series(tmp_path / "c.txt", [27.39233746429086] * 258)
        assert main(["fit", src, "--order", "1,0"]) == 2
        assert "constant series" in capsys.readouterr().err

    def test_logged_fit_prints_only_its_payload(self, tmp_path):
        # an MA unit root: the fit's boundary record goes to the elspec
        # logger, and a fresh interpreter prints only the payload
        e = np.random.default_rng(1).standard_normal(51)
        src = write_series(tmp_path / "od.txt", np.diff(e))
        env = dict(os.environ)
        root = str(Path(elspec.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "elspec", "fit", src, "--order", "0,1"],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0 and proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert round(doc["ma"][0], 4) == 1.0 and doc["boundary"] is True


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

    def test_non_finite_box_exit_2_without_warning(self, tmp_path, wn_file, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["region", wn_file, "--order", "1,1", "--box", "0:inf,0:1",
                         "--steps", "5", "--out", str(tmp_path / "g.csv")])
        assert code == 2
        assert "axis range [0.0, inf] is not finite" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("box", [["--box", "-0.5:0.5,-0.5:0.5"], ["--box=-0.5:0.5,-0.5:0.5"]],
                             ids=["space", "equals"])
    def test_box_with_negative_bound(self, tmp_path, wn_file, capsys, box):
        out = tmp_path / "g.csv"
        assert main(["region", wn_file, "--order", "1,1", *box, "--steps", "4",
                     "--out", str(out)]) == 0
        params = {tuple(r.split(",")[:2]) for r in payload_lines(out)[1:]}
        assert min(float(a) for a, _ in params) < 0 and min(float(b) for _, b in params) < 0

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


    def test_contour_closed_flag_is_exact(self, tmp_path, wn_file, monkeypatch, capsys):
        # One node 1e-8 below the level: the open polyline around it has its
        # two ends about 7e-9 apart, within np.allclose's tolerance.
        stat = np.full((2, 3), 2.0)
        stat[0, 1] = 1.0 - 1e-8
        grid = RegionGrid(axes=(grid_axis(0.0, 1.0, 2), grid_axis(0.0, 1.0, 3)), stat=stat,
                          status=np.full(stat.shape, STATUS_OK), threshold=1.0, method="ael",
                          alpha=0.1, order=(1, 1))
        monkeypatch.setattr("elspec.cli.scan_region", lambda *args, **kwargs: grid)
        out = tmp_path / "grid.csv"
        assert main(["region", wn_file, "--order", "1,1", "--box", "0:1,0:1", "--steps", "2,3",
                     "--out", str(out)]) == 0
        rows = [r.split(",") for r in payload_lines(tmp_path / "grid.csv.contours.csv")[1:]]
        assert len(rows) == 3
        assert [r[-1] for r in rows] == ["0"] * 3


def _per_node_lines(grid):
    """Region CSV payload rows formatted node by node, coordinates included."""
    inside = grid.inside()
    lines = []
    for idx in np.ndindex(*grid.stat.shape):
        coords = [f"{grid.axes[d][idx[d]]:.12g}" for d in range(len(grid.axes))]
        stat = grid.stat[idx]
        row = coords + ["" if np.isnan(stat) else f"{stat:.12g}",
                        STATUS_LABELS[int(grid.status[idx])], int(inside[idx])]
        lines.append(",".join(str(x) for x in row))
    return lines


@pytest.mark.parametrize("spec,T,seed,order,box,steps", [
    # 2-D EL grid with a nosolution node
    (ArmaSpec(ar=[0.85], ma=[0.1]), 40, 3, "1,1", "-0.9:0.9,-0.9:0.9", "12,12"),
    # 1-D EL grid with nosolution nodes
    (ArmaSpec(ma=[0.5]), 30, 4, "0,1", "-0.95:0.95", "25"),
    # 2-D EL grid solved in ten batches, so most nodes are warm-started, with
    # nosolution nodes
    (ArmaSpec(ar=[0.7], ma=[0.5]), 200, 0, "1,1", "-0.9:0.9,-0.9:0.9", "40,40"),
])
def test_region_rows_match_per_node_formatting(tmp_path, capsys, spec, T, seed, order, box, steps):
    ts = simulate(spec, T, NoiseKind.STANDARD_NORMAL, seed=seed)
    src = write_series(tmp_path / "s.txt", ts.values)
    out = tmp_path / "grid.csv"
    assert main(["region", src, "--order", order, "--method", "el", f"--box={box}",
                 "--steps", steps, "--out", str(out)]) == 0
    grid = scan_region(compute_periodogram(ts), tuple(map(int, order.split(","))),
                       [tuple(map(float, r.split(":"))) for r in box.split(",")],
                       [int(x) for x in steps.split(",")], method="el")
    assert np.any(grid.status == STATUS_NO_SOLUTION)
    assert payload_lines(out)[1:] == _per_node_lines(grid)


@pytest.mark.parametrize("argv", [
    ("fit", "--order", "1,1"),
    ("fit", "--order", "1,0", "--no-profile"),
    ("region", "--order", "1,1", "--box", "0:1,0:1", "--steps", "6"),
])
def test_constant_series_exit_2_without_warning(tmp_path, capsys, argv):
    command, *options = argv
    src = write_series(tmp_path / "c.txt", [3.0] * 50)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, src, *options, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "constant series" in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("values, cause", [
    ([1e308, 1.5e308, -1e308, 1.7e308, 1e308, 1e308], "mean is not finite"),
    ([1e200, -2e200, 3e200, 1e200, -1e200, 2e200], "ordinates are not finite"),
])
@pytest.mark.parametrize("argv", [
    ("periodogram",),
    ("fit", "--order", "1,0"),
    ("region", "--order", "1,0", "--box", "0.1:0.9", "--steps", "6"),
])
def test_overflowing_series_exit_2_without_warning(tmp_path, capsys, values, cause, argv):
    command, *options = argv
    src = write_series(tmp_path / "big.txt", values)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, src, *options, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert cause in err and "Warning" not in err
    assert not out.exists()


class TestCoverageCommand:
    def plan_file(self, tmp_path, reps=20, seed=99):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "model": "ma1", "params": [0.5], "sample_sizes": [20],
            "noises": ["normal"], "replications": reps, "level": 0.9,
            "methods": ["el", "ael"], "seed": seed, "a_n": "half_log",
        }))
        return str(path)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_plan_seed_exit_2(self, tmp_path, capsys, seed):
        plan = self.plan_file(tmp_path, seed=seed)
        assert main(["coverage", "--plan", plan, "--out", str(tmp_path / "c.csv")]) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err

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

    def test_plan_naming_trim_exit_2(self, tmp_path, capsys):
        # psibar is always the mean row, so the removed "trim" key is unknown
        path = Path(self.plan_file(tmp_path))
        path.write_text(json.dumps({**json.loads(path.read_text()), "trim": True}))
        assert main(["coverage", "--plan", str(path), "--out", str(tmp_path / "c.csv")]) == 2
        assert "trim" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        {"replications": "ten"},
        {"level": "high"},
        {"methods": ["tb"], "tb_constants": {"abc": 1.0}},
        {"params": ["x"]},
    ], ids=["replications", "level", "tb_constants", "params"])
    def test_plan_field_of_wrong_type_exit_2(self, tmp_path, capsys, field):
        path = Path(self.plan_file(tmp_path))
        path.write_text(json.dumps({**json.loads(path.read_text()), **field}))
        assert main(["coverage", "--plan", str(path), "--out", str(tmp_path / "c.csv")]) == 2
        assert f"error: plan file {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("replications", {"replications": "ten"}),
        ("level", {"level": "high"}),
        ("tb_constants", {"methods": ["tb"], "tb_constants": {"abc": 1.0}}),
        ("tb_constants", {"methods": ["tb"], "tb_constants": {"0.5": "big"}}),
        ("params", {"params": ["x"]}),
        ("params", {"params": [[0.5, 0.2]]}),
        ("sample_sizes", {"sample_sizes": ["many"]}),
    ], ids=["replications", "level", "tb_key", "tb_value", "params", "params_length",
            "sample_sizes"])
    def test_plan_error_names_the_field(self, tmp_path, capsys, field, value):
        # each field is converted before it is compared, so a value of the
        # wrong type is reported against its field, not as a bare TypeError
        path = Path(self.plan_file(tmp_path))
        path.write_text(json.dumps({**json.loads(path.read_text()), **value}))
        assert main(["coverage", "--plan", str(path), "--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert f"error: plan file {path}: {field}: " in err
        assert "not supported between" not in err

    def test_undecodable_plan_exit_2(self, tmp_path, capsys):
        path = Path(self.plan_file(tmp_path))
        path.write_bytes(path.read_bytes().replace(b'"ma1"', b'"ma1\xff"'))
        assert main(["coverage", "--plan", str(path), "--out", str(tmp_path / "c.csv")]) == 2
        assert f"error: plan file {path}: not " in capsys.readouterr().err

    def test_missing_plan_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["coverage", "--plan", str(path), "--out", str(tmp_path / "c.csv")]) == 2
        assert f"cannot read plan file {path}" in capsys.readouterr().err

    def test_paired_summary_printed(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        main(["coverage", "--plan", self.plan_file(tmp_path), "--out", str(out)])
        assert "AEL closer to nominal" in capsys.readouterr().out


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_one_parser_parses_each_call_afresh(self, tmp_path, wn_file, capsys):
        # main builds its parser once; flags of one call must not leak into
        # the next, and errors and --help keep their exit codes in between
        parser = elspec.cli._parser()
        region = parser.parse_args(["region", wn_file, "--order", "1,0", "--box", "0.1:0.6",
                                    "--alpha", "0.05", "--a-n", "half_log", "--out", "r.csv"])
        fit = parser.parse_args(["fit", wn_file, "--order", "0,1", "--no-profile"])
        again = parser.parse_args(["region", wn_file, "--order", "1,0", "--box", "0.1:0.6",
                                   "--out", "r.csv"])
        assert (region.alpha, region.a_n, region.steps) == (0.05, "half_log", [60])
        assert (fit.command, fit.order, fit.profile, fit.out) == ("fit", (0, 1), False, None)
        assert not hasattr(fit, "alpha") and not hasattr(fit, "box")
        assert (again.alpha, again.a_n, again.steps) == (0.10, "max_half_log", [60])
        assert elspec.cli._parser() is parser

        out = tmp_path / "fit.json"
        assert main(["fit", wn_file, "--order", "0,1", "--no-profile", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["profile"] is False
        assert main(["fit", wn_file, "--order", "0,1", "--bogus"]) == 2
        assert main(["--help"]) == 0
        assert main(["fit", wn_file, "--order", "0,1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["profile"] is True
        assert main(["periodogram", wn_file, "--out", str(tmp_path / "pg.json"),
                     "--format", "json"]) == 0
        assert main(["periodogram", wn_file, "--out", str(tmp_path / "pg.csv")]) == 0
        assert payload_lines(tmp_path / "pg.csv")[0] == "j,omega,ordinate"
        assert main(["region", "--help"]) == 0
        assert main(["region", wn_file, "--order", "1,0"]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2
