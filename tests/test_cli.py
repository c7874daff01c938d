"""Command-line interface: parsing, CSV round-trips, figure presets."""

import csv
import dataclasses
import hashlib
import io
import math
import os
import pickle
from pathlib import Path

import csv_rows
import numpy as np
import pytest

from restartfp import (
    BENEFICIAL,
    CycleTrap,
    GeometricRestart,
    SharpRestart,
    TwoPoint,
    cycle_trap_sharp_classify,
    mean_T_sharp,
)
from restartfp import cli, models
from restartfp.cli import (
    DEFAULT_SEED,
    RHO_SWEEP_HI,
    RHO_SWEEP_LO,
    RHO_SWEEP_POINTS,
    SEED_ENV_VAR,
    SweepResult,
    SweepRow,
    UsageError,
    _fmt,
    _parse_real,
    default_rho_sweep,
    emit_sweep_csv,
    main,
    parse_model,
    parse_restart,
    parse_sweep_csv,
    run_figure,
    run_sweep,
)

TP_FAST_TEXT = "two-point:t1=1,w1=0.75,t2=20"


def analyze_lines(capsys):
    out = capsys.readouterr().out
    pairs = [line.split(" = ", 1) for line in out.strip().splitlines()]
    return {key: value for key, value in pairs}


class TestParsers:
    def test_model_descriptors(self):
        model = parse_model("cycle-trap:p=0.75,L=2,M=14")
        assert isinstance(model, CycleTrap)
        assert (model.p, model.L, model.M) == (0.75, 2, 14)
        assert isinstance(parse_model("brw:p=0.3,m=1"), type(parse_model("brw:m=1,p=0.3")))
        tp = parse_model(TP_FAST_TEXT)
        assert isinstance(tp, TwoPoint)
        assert tp.mean() == 5.75

    def test_restart_descriptors(self):
        spec = parse_restart("geometric:rho=0.2")
        assert isinstance(spec, GeometricRestart)
        assert spec.rho == 0.2
        assert parse_restart("sharp:N=8").n_restart == 8

    @pytest.mark.parametrize(
        "text",
        [
            "cycle-trap",
            "cycle-trap:",
            "cycle-trap:p=0.5",
            "cycle-trap:p=0.5,L=2,M=4,extra=1",
            "cycle-trap:p=0.5,p=0.6,L=2,M=4",
            "cycle-trap:p=oops,L=2,M=4",
            "cycle-trap:p=1.5,L=2,M=4",
            "mystery:p=0.5",
            "cycle-trap:p=0.5,L=2,M",
            "cycle-trap:p=,L=2,M=4",
            "cycle-trap:=0.5,L=2,M=4",
        ],
    )
    def test_model_errors(self, text):
        with pytest.raises(UsageError):
            parse_model(text)

    @pytest.mark.parametrize(
        "text",
        ["geometric", "geometric:rho=0", "geometric:rho=1", "sharp:N=0", "poisson:lam=1"],
    )
    def test_restart_errors(self, text):
        with pytest.raises(UsageError):
            parse_restart(text)


class TestValueFormatting:
    def test_fmt(self):
        assert _fmt(None) == ""
        assert _fmt(True) == "true"
        assert _fmt(False) == "false"
        assert _fmt(38.0) == "38"
        assert _fmt(7) == "7"
        assert _fmt(math.inf) == "inf"
        assert _fmt(-math.inf) == "-inf"
        assert _fmt(math.nan) == ""
        assert float(_fmt(0.1)) == 0.1

    def test_floats_print_as_seventeen_digits(self):
        # Whole floats print as integers and infinities as "inf" through
        # ".17g" alone.  -0.0 would print "-0", but no CLI value is -0.0.
        rng = np.random.default_rng(5)
        whole = [0.0, 1.0, -1.0, 38.0, 1e15, 2.0**52, 2.0**53 - 1, 1 - 2.0**53,
                 *rng.integers(-2**53 + 1, 2**53, 200).astype(float)]
        reals = [math.inf, 0.1, 1 / 3, 5e-324, 1e300, *rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200)]
        for value in whole + reals:
            for x in (value, -value, np.float64(value)):
                assert _fmt(x) == format(x, ".17g")
        for value in whole:
            assert _fmt(value) == _fmt(np.float64(value)) == str(int(value))
        assert (_fmt(math.inf), _fmt(-math.inf), _fmt(np.float64(-math.inf))) == ("inf", "-inf", "-inf")

    def test_seventeen_digit_round_trip(self):
        for value in (0.1, 1 / 3, 150 / 156, 4.1764711353568655, 2**-40 + 1):
            assert _parse_real(_fmt(value)) == value

    def test_parse_real(self):
        assert _parse_real("") is None
        assert _parse_real("38") == 38
        assert _parse_real("inf") == math.inf
        assert _parse_real("-inf") == -math.inf


class TestSweep:
    def test_default_grid(self):
        grid = default_rho_sweep()
        assert len(grid) == RHO_SWEEP_POINTS
        assert grid[0] == RHO_SWEEP_LO
        assert grid[-1] == RHO_SWEEP_HI
        expected = np.linspace(RHO_SWEEP_LO, RHO_SWEEP_HI, RHO_SWEEP_POINTS)
        assert np.array_equal(grid, expected)

    def test_analytic_only_round_trip(self):
        result = run_sweep(parse_model(TP_FAST_TEXT), "geometric", default_rho_sweep())
        text = emit_sweep_csv(result)
        assert parse_sweep_csv(text) == result
        assert text.count("\n") == RHO_SWEEP_POINTS + 1

    def test_monte_carlo_round_trip(self):
        result = run_sweep(
            parse_model(TP_FAST_TEXT), "geometric", [0.05, 0.1, 0.3], trials=50, seed=3
        )
        parsed = parse_sweep_csv(emit_sweep_csv(result))
        assert parsed == result
        for row in parsed.rows:
            assert row.ci_low <= row.mean_t_mc <= row.ci_high

    def test_infinite_rows_skip_monte_carlo(self):
        result = run_sweep(CycleTrap(0.25, 5, 10), "sharp", range(2, 10), trials=30, seed=1)
        for row in result.rows:
            if row.param <= 5:
                assert row.mean_t_analytic == math.inf
                assert row.mean_t_mc is None
            else:
                assert row.mean_t_mc is not None

    def test_beneficial_column_matches_classifier(self):
        result = run_sweep(CycleTrap(0.25, 5, 10), "sharp", range(6, 51))
        for row in result.rows:
            expected = cycle_trap_sharp_classify(5, 10, int(row.param)) == BENEFICIAL
            assert row.beneficial is expected, row.param

    def test_ascending_sharp_rows_hold_the_longest_prefix(self, prefix_horizons):
        # One-row sweeps at N = 2..120, as figures 8-10 are timed row by row:
        # the first row with mass below N asks U to N - 1 = 3 for the
        # cursor's sums; that one extension holds a block, past 119, with the
        # bytes of one first expansion, so no later row asks U again.
        model = parse_model("brw:p=0.65,m=3")
        for n in range(2, 121):
            run_sweep(model, "sharp", [n])
        assert prefix_horizons == [3]
        assert model._held.size == models._BLOCK
        assert model._held.tobytes() == parse_model("brw:p=0.65,m=3").pmf(models._BLOCK - 1).coefficients.tobytes()

    @pytest.mark.parametrize("text", ["cycle-trap:p=0.25,L=7,M=5", "brw:p=0.8,m=3", "brw:p=0.65,m=3", "brw:p=0.54,m=3"])
    def test_ascending_sharp_rows_extend_once(self, text, atom_ranges):
        # The sharp figures' models (5, 8, 9, 10) swept one row at a time
        # compute U's masses in one block, not one extension a row.
        model = parse_model(text)
        for n in range(2, 121):
            run_sweep(model, "sharp", [n])
        assert atom_ranges == [(0, models._BLOCK)]

    def test_empty_grid_rejected(self):
        with pytest.raises(UsageError):
            run_sweep(parse_model(TP_FAST_TEXT), "geometric", [])

    def test_unknown_family_rejected(self):
        with pytest.raises(UsageError):
            run_sweep(parse_model(TP_FAST_TEXT), "poisson", [0.1])

    def test_csv_header_enforced(self):
        with pytest.raises(UsageError):
            parse_sweep_csv("a,b,c\n1,2,3\n")
        with pytest.raises(UsageError):
            parse_sweep_csv("")
        header = emit_sweep_csv(run_sweep(parse_model(TP_FAST_TEXT), "geometric", [0.1])).split("\n", 1)[0]
        for text in (header, header + "\n\n"):
            with pytest.raises(UsageError, match="CSV has no data rows"):
                parse_sweep_csv(text)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda row: row[:8],
            lambda row: row[:3],
            lambda row: row + ["1"],
            lambda row: row[:8] + ["maybe"],
            lambda row: row[:8] + ["True"],
            lambda row: row[:8] + [""],
            lambda row: row[:3] + ["x"] + row[4:],
            lambda row: row[:2] + ["1.5.2"] + row[3:],
            lambda row: row[:5] + ["--1"] + row[6:],
            # emit_sweep_csv writes a number for these three on every row.
            lambda row: row[:2] + [""] + row[3:],
            lambda row: row[:3] + [""] + row[4:],
            lambda row: row[:4] + [""] + row[5:],
            lambda row: row[:2] + ["nan"] + row[3:],
            lambda row: row[:3] + ["nan"] + row[4:],
            lambda row: row[:4] + ["nan"] + row[5:],
        ],
        ids=["short", "descriptor-only", "extra-field", "maybe", "capitalised", "empty-verdict",
             "param", "baseline", "ci", "empty-baseline", "empty-param", "empty-analytic", "nan-baseline",
             "nan-param", "nan-analytic"],
    )
    def test_malformed_rows_rejected(self, edit):
        text = emit_sweep_csv(run_sweep(parse_model(TP_FAST_TEXT), "geometric", [0.1, 0.3], trials=20, seed=3))
        header, first, second = csv.reader(io.StringIO(text))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, first, edit(second)])
        assert parse_sweep_csv(text).rows[1].mean_t_mc is not None
        with pytest.raises(UsageError):
            parse_sweep_csv(buf.getvalue())

    def test_round_trip_with_empty_and_infinite_fields(self):
        # Rows 2..5 are preemptive (infinite mean, no Monte Carlo columns).
        result = run_sweep(CycleTrap(0.25, 5, 10), "sharp", range(2, 9), trials=30, seed=1)
        text = emit_sweep_csv(result)
        assert ",inf,,,,false" in text
        assert parse_sweep_csv(text) == result
        assert emit_sweep_csv(parse_sweep_csv(text)) == text
        # Blank lines between rows are skipped.
        assert parse_sweep_csv(text.replace("\n", "\n\n")) == result

    def test_mixed_sweeps_rejected(self):
        a = emit_sweep_csv(run_sweep(parse_model(TP_FAST_TEXT), "geometric", [0.1]))
        b = emit_sweep_csv(run_sweep(CycleTrap(0.5, 2, 4), "geometric", [0.1]))
        merged = a + b.split("\n", 1)[1]
        with pytest.raises(UsageError):
            parse_sweep_csv(merged)


# The sharp figures' models: the walks of figures 8-10, the traps of 5 and 6.
SHARP_FIGURE_MODELS = ["brw:p=0.8,m=3", "brw:p=0.65,m=3", "brw:p=0.54,m=3", "cycle-trap:p=0.25,L=7,M=5",
                       "cycle-trap:p=0.25,L=5,M=10"]
SHARP_GRID = list(range(2, 121))
SHUFFLED_GRID = SHARP_GRID[:]
np.random.default_rng(7).shuffle(SHUFFLED_GRID)
ROW_ORDERS = {
    "ascending": SHARP_GRID,
    "descending": SHARP_GRID[::-1],
    "shuffled": SHUFFLED_GRID,
    "repeated": [n for n in SHARP_GRID for _ in range(2)],
}


def _row_bits(row):
    return row.param, row.mean_t_analytic.hex(), row.mean_t_mc, row.ci_low, row.ci_high, row.beneficial


class TestSweepFastPaths:
    """One-row sweeps, the rows run_sweep builds and the CSV lines
    emit_sweep_csv joins keep the bits of one full sweep, of publicly built
    values and of the csv.writer emitter (``tests/csv_rows.py``)."""

    @pytest.mark.parametrize("order", list(ROW_ORDERS))
    @pytest.mark.parametrize("text", SHARP_FIGURE_MODELS)
    def test_one_row_sweeps_equal_one_full_sweep(self, text, order):
        full = run_sweep(parse_model(text), "sharp", SHARP_GRID)
        expected = {row.param: _row_bits(row) for row in full.rows}
        model = parse_model(text)
        for n in ROW_ORDERS[order]:
            result = run_sweep(model, "sharp", [n])
            assert (result.model_descriptor, result.restart_family, result.baseline_mean_u.hex()) == (
                full.model_descriptor, "sharp", full.baseline_mean_u.hex())
            assert [_row_bits(row) for row in result.rows] == [expected[n]], n

    def test_one_row_sweeps_convert_only_the_masses_crossed(self, monkeypatch):
        # Each row's cursor converts u(t) and fl(t u(t)) of each nonzero
        # mass it crosses, added on the way up and subtracted on the way
        # down; a repeated N converts nothing.
        model = parse_model("brw:p=0.65,m=3")
        head = parse_model("brw:p=0.65,m=3").pmf(120).coefficients
        converted = []
        fixed = models._fixed
        monkeypatch.setattr(models, "_fixed", lambda x: converted.append(x) or fixed(x))
        at = -1  # no row reads U below its support, N - 1 < 3
        for n in range(4, 121):
            converted.clear()
            run_sweep(model, "sharp", [n])
            assert converted == [x for t in range(at + 1, n) if head[t] for x in (head[t], t * head[t])], n
            at = n - 1
            converted.clear()
            run_sweep(model, "sharp", [n])
            assert converted == [], n
        for n in range(119, 3, -1):
            converted.clear()
            run_sweep(model, "sharp", [n])
            assert converted == ([-head[n], -(n * head[n])] if head[n] else []), n

    def test_rows_and_results_act_as_publicly_built_ones(self):
        result = run_sweep(CycleTrap(0.25, 5, 10), "sharp", range(4, 9), trials=30, seed=1)
        public = SweepResult(result.model_descriptor, result.restart_family, result.baseline_mean_u,
                             tuple(SweepRow(*dataclasses.astuple(row)) for row in result.rows))
        pairs = [(result, public), *zip(result.rows, public.rows)]
        for built, made in pairs:
            assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
            assert dataclasses.asdict(built) == dataclasses.asdict(made)
            assert list(vars(built).items()) == list(vars(made).items())
            assert pickle.loads(pickle.dumps(built)) == made
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, dataclasses.fields(built)[0].name, None)
        assert result.rows[0].mean_t_mc is None and result.rows[-1].mean_t_mc is not None

    @pytest.mark.parametrize("make", [
        lambda: run_sweep(parse_model("brw:p=0.65,m=3"), "sharp", range(1, 60)),
        lambda: run_sweep(CycleTrap(0.25, 5, 10), "sharp", range(2, 30), trials=30, seed=1),
        lambda: run_sweep(parse_model(TP_FAST_TEXT), "geometric", default_rho_sweep()),
        lambda: run_sweep(parse_model(TP_FAST_TEXT), "geometric", [0.05, 0.1, 0.3], trials=50, seed=3),
        lambda: SweepResult('odd "model",\nname\r', "sharp, quoted", -2.5, (
            SweepRow(3, math.inf, None, None, None, False),
            SweepRow(np.int64(4), np.float64(1.25), 1.0, math.nan, 1.5, True),
        )),
        lambda: SweepResult("", "", math.nan, (SweepRow(0.5, 0.0, None, None, None, False),)),
        lambda: SweepResult("brw:p=0.65,m=3", "sharp", 1.0, ()),
    ], ids=["sharp", "sharp-mc", "geometric", "geometric-mc", "quoted-descriptor", "empty-lead", "no-rows"])
    def test_emit_equals_the_csv_writer(self, make):
        result = make()
        assert emit_sweep_csv(result) == csv_rows.emit_sweep_csv(result)


class TestAnalyzeCommand:
    def test_beneficial_geometric_pair(self, capsys):
        code = main(
            ["analyze", "--model", "cycle-trap:p=0.75,L=2,M=14", "--restart", "geometric:rho=0.2"]
        )
        assert code == 0
        values = analyze_lines(capsys)
        assert values["hit_prob_underlying"] == "1"
        assert values["hit_prob_restarted"] == "1"
        assert float(values["mean_restarted"]) == pytest.approx(5.325040697685331, rel=1e-12)
        assert values["beneficial"] == "true"
        assert values["preemptive"] == "false"

    def test_defective_walk(self, capsys):
        code = main(["analyze", "--model", "brw:p=0.3,m=1", "--restart", "geometric:rho=0.2"])
        assert code == 0
        values = analyze_lines(capsys)
        assert float(values["hit_prob_underlying"]) == pytest.approx(3 / 7, rel=1e-12)
        assert values["hit_prob_restarted"] == "1"
        assert values["mean_underlying"] == "inf"
        assert float(values["mean_restarted"]) == pytest.approx(12.5, rel=1e-9)
        assert values["beneficial"] == "true"

    def test_sharp_closed_form(self, capsys):
        code = main(
            ["analyze", "--model", "cycle-trap:p=0.25,L=7,M=5", "--restart", "sharp:N=8"]
        )
        assert code == 0
        values = analyze_lines(capsys)
        assert values["mean_restarted"] == "31"
        assert values["p_restart_wins"] == "0.75"
        assert values["beneficial"] == "false"

    def test_preemptive_pair(self, capsys):
        code = main(
            ["analyze", "--model", "cycle-trap:p=0.25,L=7,M=5", "--restart", "sharp:N=7"]
        )
        assert code == 0
        values = analyze_lines(capsys)
        assert values["preemptive"] == "true"
        assert values["mean_restarted"] == "inf"
        assert values["hit_prob_restarted"] == "0"
        assert values["expected_restarts"] == "inf"
        assert values["beneficial"] == "false"


class TestAnalyzeAgreesWithSweep:
    # Renewal denominators in (0, 1e-12]: both pairs hit with probability 1.
    @pytest.mark.parametrize(
        "model, restart, grid",
        [
            ("cycle-trap:p=0.5,L=300,M=3", "geometric:rho=0.1", ["--rho-min", "0.1", "--rho-max", "0.1", "--points", "1"]),
            ("brw:p=0.00001,m=3", "sharp:N=4", ["--n-min", "4", "--n-max", "4"]),
        ],
    )
    def test_same_mean_and_verdict(self, capsys, model, restart, grid):
        assert main(["analyze", "--model", model, "--restart", restart]) == 0
        values = analyze_lines(capsys)
        assert main(["sweep", "--model", model, "--restart-family", restart.split(":")[0], *grid]) == 0
        (row,) = parse_sweep_csv(capsys.readouterr().out).rows
        assert values["preemptive"] == "false"
        assert values["hit_prob_restarted"] == "1"
        assert math.isfinite(row.mean_t_analytic)
        assert values["mean_restarted"] == _fmt(row.mean_t_analytic)
        assert values["beneficial"] == _fmt(row.beneficial)


class TestSweepCommand:
    def test_stdout_csv(self, capsys):
        code = main(["sweep", "--model", TP_FAST_TEXT, "--restart-family", "geometric"])
        assert code == 0
        out = capsys.readouterr().out
        result = parse_sweep_csv(out)
        assert len(result.rows) == 60
        assert result.baseline_mean_u == 5.75
        near_tenth = min(result.rows, key=lambda row: abs(row.param - 0.1))
        assert near_tenth.beneficial

    def test_output_file_and_sharp_family(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--model",
                "cycle-trap:p=0.25,L=7,M=5",
                "--restart-family",
                "sharp",
                "--n-min",
                "8",
                "--n-max",
                "20",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        result = parse_sweep_csv(path.read_text())
        trap = CycleTrap(0.25, 7, 5)
        assert [row.param for row in result.rows] == list(range(8, 21))
        for row in result.rows:
            assert row.mean_t_analytic == pytest.approx(mean_T_sharp(trap, row.param), rel=1e-12)
            assert not row.beneficial

    def test_seed_env_variable(self, tmp_path, capsys, monkeypatch):
        args = [
            "sweep",
            "--model",
            TP_FAST_TEXT,
            "--restart-family",
            "geometric",
            "--points",
            "3",
            "--trials",
            "30",
        ]
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        assert main(args) == 0
        via_env = capsys.readouterr().out
        monkeypatch.delenv(SEED_ENV_VAR)
        assert main(args + ["--seed", "77"]) == 0
        via_flag = capsys.readouterr().out
        assert via_env == via_flag
        assert main(args + ["--seed", "78"]) == 0
        assert capsys.readouterr().out != via_env

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        code = main(
            ["sweep", "--model", TP_FAST_TEXT, "--restart-family", "geometric", "--trials", "5"]
        )
        assert code == 2

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        args = [
            "sweep",
            "--model",
            TP_FAST_TEXT,
            "--restart-family",
            "geometric",
            "--points",
            "2",
            "--trials",
            "20",
            "--seed",
            str(DEFAULT_SEED),
        ]
        assert main(args) == 0
        with_flag = capsys.readouterr().out
        monkeypatch.delenv(SEED_ENV_VAR)
        assert main(args) == 0
        assert capsys.readouterr().out == with_flag


class TestCensoredRows:
    def test_sweep_warns_once_per_censored_row(self, capsys):
        args = [
            "sweep", "--model", "brw:p=0.55,m=3", "--restart-family", "sharp",
            "--n-min", "200", "--n-max", "201", "--trials", "50", "--step-cap", "300",
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        warnings = captured.err.strip().splitlines()
        assert len(warnings) == 1
        assert "param=201" in warnings[0]
        assert "1 of 50 trials censored" in warnings[0]
        # The CSV keeps its nine columns and still prints the censored mean.
        assert [len(record) for record in csv.reader(io.StringIO(captured.out))] == [9, 9, 9]
        result = parse_sweep_csv(captured.out)
        assert result.rows[1].mean_t_mc == pytest.approx(25.69, abs=0.005)

    def test_figure_warns_too(self, tmp_path, capsys):
        code = main(["figure", "6", "--outdir", str(tmp_path), "--trials", "5", "--step-cap", "12"])
        assert code == 0
        warnings = capsys.readouterr().err.strip().splitlines()
        assert warnings
        assert all(line.startswith("warning: sharp param=") for line in warnings)

    def test_uncensored_sweep_is_silent(self, capsys):
        assert main(["sweep", "--model", TP_FAST_TEXT, "--restart-family", "geometric",
                     "--points", "3", "--trials", "20"]) == 0
        assert capsys.readouterr().err == ""


class TestFigureCommand:
    def test_sharp_figure_analytic_only(self, tmp_path, capsys):
        code = main(["figure", "5", "--outdir", str(tmp_path), "--no-mc"])
        assert code == 0
        paths = capsys.readouterr().out.strip().splitlines()
        assert len(paths) == 1
        assert os.path.basename(paths[0]) == "fig5_cycle-trap_p0.25-L7-M5_sharp.csv"
        result = parse_sweep_csv(Path(paths[0]).read_text())
        assert [row.param for row in result.rows] == list(range(2, 61))
        for row in result.rows:
            if row.param <= 7:
                assert row.mean_t_analytic == math.inf
            else:
                assert row.mean_t_analytic > 25.0
            assert row.mean_t_mc is None

    def test_walk_threshold_table(self, tmp_path):
        (path,) = run_figure("7", outdir=str(tmp_path))
        lines = Path(path).read_text().strip().splitlines()
        assert lines[0] == "m,p_star"
        assert lines[1] == "1,0.75"
        assert len(lines) == 21
        row_three = dict(zip(("m", "p_star"), lines[3].split(",")))
        assert float(row_three["p_star"]) == pytest.approx((1 + math.sqrt(17)) / 8, rel=1e-15)

    def test_trap_threshold_table(self, tmp_path):
        (path,) = run_figure("3-bound", outdir=str(tmp_path))
        lines = Path(path).read_text().strip().splitlines()
        assert lines[0] == "L,M,p_star"
        assert len(lines) == 1 + 5 * 60
        table = {}
        for line in lines[1:]:
            L, M, p_star = line.split(",")
            table[(int(L), int(M))] = p_star
        assert float(table[(2, 14)]) == 150 / 156
        assert table[(2, 2)] == "-inf"
        assert table[(3, 2)] == "-inf"

    def test_geometric_figure_with_small_trials(self, tmp_path):
        paths = run_figure("1", outdir=str(tmp_path), trials=40, seed=2)
        result = parse_sweep_csv(Path(paths[0]).read_text())
        assert len(result.rows) == 60
        mc_rows = [row for row in result.rows if row.mean_t_mc is not None]
        assert len(mc_rows) == 60
        for row in mc_rows:
            assert row.ci_low <= row.mean_t_mc <= row.ci_high

    # SHA-256 of the figure CSVs at trials=40, seed=3, recorded from the
    # per-trial Generator(Philox(...)) engine: any drift in the Monte Carlo
    # streams or the step semantics changes these bytes.
    FIGURE_DIGESTS = {
        "fig1_two-point_t11-w10.75-t220_geometric.csv":
            "4f3e05f25c1b7488e7beb49cbe4ad0f5ee14ce3623558cfc9dc39fe570540967",
        "fig4_cycle-trap_p0.75-L2-M14_geometric.csv":
            "e720e826727f2fef9e97fa0ea07a03e820f9e68bd6a055293edc709430506b66",
        "fig4_cycle-trap_p0.5-L2-M4_geometric.csv":
            "4418854bf2a0ae0818d503549adc56291584a859213e547836fae595d6f2ad88",
        "fig6_cycle-trap_p0.25-L5-M10_sharp.csv":
            "f81da830c47cf70ad724b6ee67a8738fb9c967d99a8a4ebfa7dd9e21e4103695",
    }

    @pytest.mark.parametrize("figure_id", ["1", "4", "6"])
    def test_monte_carlo_figure_bytes_are_frozen(self, tmp_path, figure_id):
        paths = run_figure(figure_id, outdir=str(tmp_path), trials=40, seed=3)
        assert paths
        for path in paths:
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            assert digest == self.FIGURE_DIGESTS[os.path.basename(path)]

    # SHA-256 of the four sharp figures' analytic CSVs (trials=0, the default
    # seed): any drift in the sharp closed-form mean's bits changes these.
    # Figure 8's row N = 120 prints a known wrong `beneficial` flag (ROADMAP
    # item 3), so its digest is expected to move when item 3 lands.
    SHARP_DIGESTS = {
        "fig5_cycle-trap_p0.25-L7-M5_sharp.csv":
            "adcd47e06646169182b73dc7437c3babf19ee1849f8daa43768601e71edbd0b9",
        "fig8_brw_p0.8-m3_sharp.csv":
            "e29fc7716fba0a2aa0c8079c6b0bacf45f068e4c3f9a405c8e1f2163bf1f57a0",
        "fig9_brw_p0.65-m3_sharp.csv":
            "37054715fd20335359fca8ee3f85e4f893ccedbe9f6bbe531c1ed7f7e38d14b6",
        "fig10_brw_p0.54-m3_sharp.csv":
            "c9e39b5a29f3cfd3bb5690c42a384618cc7b74564787eab46216a2d2474db599",
    }

    @pytest.mark.parametrize("figure_id", ["5", "8", "9", "10"])
    def test_sharp_figure_bytes_are_frozen(self, tmp_path, figure_id):
        (path,) = run_figure(figure_id, outdir=str(tmp_path), trials=0)
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert digest == self.SHARP_DIGESTS[os.path.basename(path)]

    def test_two_trap_figure_writes_both_files(self, tmp_path):
        paths = run_figure("4", outdir=str(tmp_path), trials=0)
        assert len(paths) == 2
        names = sorted(os.path.basename(p) for p in paths)
        assert names == [
            "fig4_cycle-trap_p0.5-L2-M4_geometric.csv",
            "fig4_cycle-trap_p0.75-L2-M14_geometric.csv",
        ]

    def test_unknown_figure(self, tmp_path, capsys):
        with pytest.raises(UsageError):
            run_figure("11", outdir=str(tmp_path))
        assert main(["figure", "11", "--outdir", str(tmp_path)]) == 2


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        assert main(["analyze", "--model", "bogus:x=1", "--restart", "geometric:rho=0.2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_argparse_failure_is_two(self, capsys):
        assert main(["analyze", "--model", TP_FAST_TEXT]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    SWEEP = ["sweep", "--model", TP_FAST_TEXT, "--restart-family", "geometric", "--points", "3"]

    def test_negative_trials_is_two(self, capsys):
        assert main(self.SWEEP + ["--trials", "-5"]) == 2
        assert "error: --trials" in capsys.readouterr().err
        assert main(["figure", "1", "--trials", "-5"]) == 2
        assert "error: --trials" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "10"])
    def test_zero_step_cap_is_two(self, capsys, trials):
        assert main(self.SWEEP + ["--step-cap", "0", "--trials", trials]) == 2
        assert "error: --step-cap" in capsys.readouterr().err

    def test_negative_seed_is_two(self, capsys):
        assert main(self.SWEEP + ["--seed", "-1", "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert "error: seed -1" in captured.err
        assert captured.out == ""

    def test_negative_env_seed_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
        assert main(self.SWEEP + ["--trials", "10"]) == 2
        assert "error: seed -1" in capsys.readouterr().err

    def test_last_row_seed_must_fit_64_bits(self, capsys):
        # Three rows use seeds s, s+1, s+2; the last must stay below 2**64.
        assert main(self.SWEEP + ["--seed", str(2**64 - 2), "--trials", "2"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(self.SWEEP + ["--seed", str(2**64 - 3), "--trials", "2"]) == 0
        capsys.readouterr()

    def test_missing_outdir_is_two(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["figure", "1", "--outdir", str(missing), "--no-mc"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert main(self.SWEEP + ["--output", str(missing / "sweep.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "family_args",
        [
            ["geometric", "--rho-min", "0", "--points", "1"],
            ["geometric", "--rho-min", "0.5", "--rho-max", "1.5"],
            ["sharp", "--n-min", "0", "--n-max", "5"],
        ],
    )
    def test_out_of_range_sweep_parameter_is_two(self, capsys, monkeypatch, family_args):
        # Every row's spec is checked before the first row runs, so the
        # valid rows ahead of the bad one do no Monte Carlo.
        calls = []
        monkeypatch.setattr(cli, "simulate_fpur", lambda *args: calls.append(args))
        argv = ["sweep", "--model", TP_FAST_TEXT, "--trials", "10", "--restart-family"]
        assert main(argv + family_args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid ")
        assert captured.out == ""
        assert calls == []

    @pytest.mark.parametrize(
        "family_args, message",
        [
            (["geometric", "--points", "0"], "--points must be >= 1"),
            (["sharp", "--n-min", "5", "--n-max", "4"], "--n-max must be >= --n-min"),
        ],
        ids=["no-points", "n-max-below-n-min"],
    )
    def test_empty_sweep_grid_is_two(self, capsys, family_args, message):
        assert main(["sweep", "--model", TP_FAST_TEXT, "--restart-family", *family_args]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_numerical_failure_is_one(self, capsys, monkeypatch):
        def fail(model, spec):
            raise ArithmeticError("series did not converge")

        monkeypatch.setattr(cli.fpur, "mean_T", fail)
        assert main(self.SWEEP) == 1
        assert "numerical failure: series did not converge" in capsys.readouterr().err
