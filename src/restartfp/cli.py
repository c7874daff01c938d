"""Command-line surface: analyze one configuration, sweep a restart
parameter, or emit the preset CSV data sets.

Models and restart specs are written as ``family:key=value,...`` strings,
e.g. ``cycle-trap:p=0.75,L=2,M=14`` or ``geometric:rho=0.2``.  All CSV output
uses 17 significant digits, the token ``inf`` for infinities, and lowercase
``true``/``false``, so files parse back losslessly.

Exit codes: 0 success, 2 usage or parse error, 1 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import fpur
from .models import (
    BiasedWalk,
    CycleTrap,
    GeometricRestart,
    ProcessModel,
    RestartSpec,
    SharpRestart,
    TwoPoint,
)
from .montecarlo import DEFAULT_STEP_CAP, SimConfig, simulate_fpur
from .series import _built

DEFAULT_SEED = 1
SEED_ENV_VAR = "RESTARTFP_SEED"

# Default geometric sweep grid: 60 evenly spaced rates on [0.01, 0.841].
RHO_SWEEP_LO = 0.01
RHO_SWEEP_HI = 0.841
RHO_SWEEP_POINTS = 60


class UsageError(ValueError):
    """Malformed command-line input."""


@dataclass(frozen=True)
class SweepRow:
    param: float
    mean_t_analytic: float
    mean_t_mc: float | None
    ci_low: float | None
    ci_high: float | None
    beneficial: bool


@dataclass(frozen=True)
class SweepResult:
    model_descriptor: str
    restart_family: str
    baseline_mean_u: float
    rows: tuple[SweepRow, ...]


# The sweep's columns, then one per SweepRow field in its order, for header and rows alike.
_ROW_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow))
_SWEEP_HEADER = ("model", "restart_family", "baseline_mean_u", *_ROW_FIELDS)
_row_values = operator.attrgetter(*_ROW_FIELDS)


# ---------------------------------------------------------------------------
# Parameter mini-language
# ---------------------------------------------------------------------------


def _parse_fields(text: str, kind: str) -> tuple[str, dict[str, str]]:
    family, sep, rest = text.partition(":")
    if not sep or not family or not rest:
        raise UsageError(f"malformed {kind} {text!r}: expected family:key=value,...")
    fields: dict[str, str] = {}
    for item in rest.split(","):
        key, eq, value = item.partition("=")
        if not eq or not key or not value:
            raise UsageError(f"malformed {kind} {text!r}: bad field {item!r}")
        if key in fields:
            raise UsageError(f"malformed {kind} {text!r}: duplicate key {key!r}")
        fields[key] = value
    return family, fields


def _take(fields: dict[str, str], text: str, key: str, convert):
    if key not in fields:
        raise UsageError(f"malformed parameter {text!r}: missing key {key!r}")
    raw = fields.pop(key)
    try:
        return convert(raw)
    except ValueError as exc:
        raise UsageError(f"malformed parameter {text!r}: {key}={raw!r}") from exc


# Family name -> (constructor, its arguments as (key, type) in order).
_MODEL_FAMILIES = {
    "cycle-trap": (CycleTrap, (("p", float), ("L", int), ("M", int))),
    "brw": (BiasedWalk, (("p", float), ("m", int))),
    "two-point": (TwoPoint, (("t1", int), ("w1", float), ("t2", int))),
}
# A sweep varies the single argument of a restart family.
_RESTART_FAMILIES = {
    "geometric": (GeometricRestart, (("rho", float),)),
    "sharp": (SharpRestart, (("N", int),)),
}


def _parse_family(text: str, kind: str, families: dict):
    family, fields = _parse_fields(text, kind)
    if family not in families:
        raise UsageError(f"unknown {kind} family {family!r}")
    make, keys = families[family]
    args = [_take(fields, text, key, convert) for key, convert in keys]
    try:
        value = make(*args)
    except ValueError as exc:
        raise UsageError(f"invalid {kind} {text!r}: {exc}") from exc
    if fields:
        raise UsageError(f"malformed {kind} {text!r}: unknown keys {sorted(fields)}")
    return value


def parse_model(text: str) -> ProcessModel:
    return _parse_family(text, "model", _MODEL_FAMILIES)


def parse_restart(text: str) -> RestartSpec:
    return _parse_family(text, "restart", _RESTART_FAMILIES)


# ---------------------------------------------------------------------------
# CSV formatting
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return ""
    return format(value, ".17g")


def _parse_real(token: str):
    for kind in (int, float):
        try:
            return kind(token) if token else None
        except ValueError:
            pass
    raise UsageError(f"unparseable number {token!r} in CSV")


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


_HEADER_LINE = _csv_line(_SWEEP_HEADER)


def emit_sweep_csv(result: SweepResult) -> str:
    # Every row opens with the sweep's model, family and baseline, quoted by
    # csv once (the trailing empty field keeps the comma after them).  The
    # row's own fields are numbers and flags, which csv never quotes.
    lead = _csv_line((result.model_descriptor, result.restart_family, _fmt(result.baseline_mean_u), ""))[:-1]
    return _HEADER_LINE + "".join([f"{lead}{','.join(map(_fmt, _row_values(row)))}\n" for row in result.rows])


def parse_sweep_csv(text: str) -> SweepResult:
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise UsageError("empty CSV") from None
    if header != _SWEEP_HEADER:
        raise UsageError(f"unexpected CSV header {header!r}")
    rows = []
    descriptor = family = baseline = None
    for record in reader:
        if not record:
            continue
        if len(record) != len(_SWEEP_HEADER) or record[8] not in ("true", "false"):
            raise UsageError(f"malformed CSV row {record!r}")
        values = list(map(_parse_real, record[2:8]))
        # emit_sweep_csv writes a number for the baseline, param and analytic mean on every row.
        if any(value is None or math.isnan(value) for value in values[:3]):
            raise UsageError(f"malformed CSV row {record!r}")
        if descriptor is None:
            descriptor, family, baseline = record[0], record[1], values[0]
        elif (record[0], record[1]) != (descriptor, family):
            raise UsageError("CSV mixes multiple sweeps")
        rows.append(SweepRow(*values[1:], beneficial=record[8] == "true"))
    if descriptor is None:
        raise UsageError("CSV has no data rows")
    return SweepResult(descriptor, family, baseline, tuple(rows))


# ---------------------------------------------------------------------------
# Sweep engine
# ---------------------------------------------------------------------------


def default_rho_sweep() -> list[float]:
    return [float(r) for r in np.linspace(RHO_SWEEP_LO, RHO_SWEEP_HI, RHO_SWEEP_POINTS)]


def run_sweep(
    model: ProcessModel,
    family: str,
    grid,
    trials: int = 0,
    seed: int = DEFAULT_SEED,
    step_cap: int = DEFAULT_STEP_CAP,
) -> SweepResult:
    """Analytic (and optionally Monte Carlo) restarted means over a grid.

    Every row's restart spec is built from its grid value as given before
    any row runs, so a value outside the family's domain (a sharp 7.9 too)
    is a usage error that costs no work; a row's ``param`` is its clock's.
    Monte Carlo is skipped on rows whose analytic mean is infinite
    (preemptive or defective); each row uses seed + row index.  A row with
    censored trials gets a warning on stderr: its mean is a lower bound.
    """
    grid = list(grid)
    if not grid:
        raise UsageError("sweep grid is empty")
    if family not in _RESTART_FAMILIES:
        raise UsageError(f"unknown restart family {family!r}")
    if not 0 <= seed <= 2**64 - len(grid):
        raise UsageError(f"seed {seed} out of range: row seeds seed..seed+{len(grid) - 1} "
                         "must lie in [0, 2**64)")
    make = _RESTART_FAMILIES[family][0]
    specs = []
    for param in grid:
        try:
            specs.append(make(param))
        except ValueError as exc:
            raise UsageError(f"invalid {family} sweep parameter {param!r}: {exc}") from exc
    name = make.__match_args__[0]  # the clock's one parameter
    baseline = model.mean()
    rows = []
    for index, spec in enumerate(specs):
        param = getattr(spec, name)
        analytic = fpur.mean_T(model, spec)
        mc = ci_low = ci_high = None
        if trials > 0 and math.isfinite(analytic):
            est = simulate_fpur(model, spec, SimConfig(trials, seed + index, step_cap))
            if est.censored:
                print(f"warning: {family} param={_fmt(param)}: {est.censored} of {trials} trials censored "
                      f"at step cap {step_cap}; mean_t_mc is a lower bound", file=sys.stderr)
            if est.trials_used > 0:
                mc = est.mean
            if est.trials_used > 1:  # one trial has no spread, so no interval
                ci_low, ci_high = est.ci_low, est.ci_high
        rows.append(_built(SweepRow, param=param, mean_t_analytic=analytic, mean_t_mc=mc, ci_low=ci_low,
                           ci_high=ci_high, beneficial=analytic < baseline))
    return _built(SweepResult, model_descriptor=model.describe(), restart_family=family, baseline_mean_u=baseline,
                  rows=tuple(rows))


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

# (model string, restart family, caption trial count, grid)
_FIGURE_SWEEPS: dict[str, list[tuple[str, str, int, object]]] = {
    "1": [("two-point:t1=1,w1=0.75,t2=20", "geometric", 2000, default_rho_sweep())],
    "2": [("two-point:t1=1,w1=0.25,t2=20", "geometric", 2000, default_rho_sweep())],
    "4": [
        ("cycle-trap:p=0.75,L=2,M=14", "geometric", 500, default_rho_sweep()),
        ("cycle-trap:p=0.5,L=2,M=4", "geometric", 500, default_rho_sweep()),
    ],
    "5": [("cycle-trap:p=0.25,L=7,M=5", "sharp", 50000, range(2, 61))],
    "6": [("cycle-trap:p=0.25,L=5,M=10", "sharp", 50000, range(2, 61))],
    "8": [("brw:p=0.8,m=3", "sharp", 0, range(2, 121))],
    "9": [("brw:p=0.65,m=3", "sharp", 0, range(2, 121))],
    "10": [("brw:p=0.54,m=3", "sharp", 0, range(2, 121))],
}
# The threshold tables: (file name, header, row builder).  FIGURE_IDS lists both kinds in figure order.
_FIGURE_TABLES = {
    "3-bound": ("fig3-bound_cycle-trap_thresholds.csv", ("L", "M", "p_star"),
                lambda: [(L, M, fpur.cycle_trap_geometric_threshold(L, M)) for L in range(1, 6) for M in range(1, 61)]),
    "7": ("fig7_brw_thresholds.csv", ("m", "p_star"),
          lambda: [(m, fpur.brw_geometric_threshold_p(m)) for m in range(1, 21)]),
}
FIGURE_IDS = tuple(sorted([*_FIGURE_SWEEPS, *_FIGURE_TABLES], key=lambda name: int(name.partition("-")[0])))


def _slug(text: str) -> str:
    return text.replace(":", "_").replace("=", "").replace(",", "-")


def _write_file(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(content)


def run_figure(
    figure_id: str,
    outdir: str = ".",
    trials: int | None = None,
    seed: int = DEFAULT_SEED,
    step_cap: int = DEFAULT_STEP_CAP,
) -> list[str]:
    """Write the CSV files behind one preset figure; returns the paths."""
    if figure_id in _FIGURE_TABLES:
        name, header, rows = _FIGURE_TABLES[figure_id]
        path = os.path.join(outdir, name)
        _write_file(path, _csv_line(header) + "".join([_csv_line(map(_fmt, row)) for row in rows()]))
        return [path]
    if figure_id not in _FIGURE_SWEEPS:
        raise UsageError(f"unknown figure id {figure_id!r}; choose from {', '.join(FIGURE_IDS)}")
    paths: list[str] = []
    for model_text, family, preset_trials, grid in _FIGURE_SWEEPS[figure_id]:
        model = parse_model(model_text)
        n_trials = preset_trials if trials is None else trials
        result = run_sweep(model, family, grid, n_trials, seed, step_cap)
        path = os.path.join(outdir, f"fig{figure_id}_{_slug(model_text)}_{family}.csv")
        _write_file(path, emit_sweep_csv(result))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    return DEFAULT_SEED


def _check_run_counts(args) -> None:
    if args.trials is not None and args.trials < 0:
        raise UsageError("--trials must be >= 0")
    if args.step_cap < 1:
        raise UsageError("--step-cap must be >= 1")


def cmd_analyze(args) -> int:
    model = parse_model(args.model)
    spec = parse_restart(args.restart)
    report = fpur.analyze(model, spec)
    baseline = model.mean()
    lines = [
        f"model = {model.describe()}",
        f"restart = {spec.describe()}",
        f"hit_prob_underlying = {_fmt(model.hit_prob())}",
        f"mean_underlying = {_fmt(baseline)}",
        f"hit_prob_restarted = {_fmt(report.hit_prob)}",
        f"mean_restarted = {_fmt(report.mean_T)}",
        f"p_restart_wins = {_fmt(report.p_restart_wins)}",
        f"expected_restarts = {_fmt(report.expected_restarts)}",
        f"preemptive = {_fmt(report.preemptive)}",
        f"beneficial = {_fmt(report.mean_T < baseline)}",
    ]
    print("\n".join(lines))
    return 0


def cmd_sweep(args) -> int:
    _check_run_counts(args)
    model = parse_model(args.model)
    if args.restart_family == "geometric":
        if not args.points >= 1:
            raise UsageError("--points must be >= 1")
        grid = [float(r) for r in np.linspace(args.rho_min, args.rho_max, args.points)]
    else:
        if args.n_max < args.n_min:
            raise UsageError("--n-max must be >= --n-min")
        grid = list(range(args.n_min, args.n_max + 1))
    result = run_sweep(
        model,
        args.restart_family,
        grid,
        trials=args.trials,
        seed=_resolve_seed(args.seed),
        step_cap=args.step_cap,
    )
    text = emit_sweep_csv(result)
    if args.output is None:
        sys.stdout.write(text)
    else:
        _write_file(args.output, text)
    return 0


def cmd_figure(args) -> int:
    _check_run_counts(args)
    paths = run_figure(
        args.figure_id,
        outdir=args.outdir,
        trials=0 if args.no_mc else args.trials,
        seed=_resolve_seed(args.seed),
        step_cap=args.step_cap,
    )
    for path in paths:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restartfp",
        description="First-passage statistics of discrete-time processes under restart.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="report one (model, restart) pair")
    p_analyze.add_argument("--model", required=True, help="e.g. cycle-trap:p=0.75,L=2,M=14")
    p_analyze.add_argument("--restart", required=True, help="e.g. geometric:rho=0.2 or sharp:N=8")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="sweep a restart parameter, emit CSV")
    p_sweep.add_argument("--model", required=True)
    p_sweep.add_argument("--restart-family", required=True, choices=("geometric", "sharp"))
    p_sweep.add_argument("--rho-min", type=float, default=RHO_SWEEP_LO)
    p_sweep.add_argument("--rho-max", type=float, default=RHO_SWEEP_HI)
    p_sweep.add_argument("--points", type=int, default=RHO_SWEEP_POINTS)
    p_sweep.add_argument("--n-min", type=int, default=1)
    p_sweep.add_argument("--n-max", type=int, default=60)
    p_sweep.add_argument("--trials", type=int, default=0, help="Monte Carlo trials per row (0 = analytic only)")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP)
    p_sweep.add_argument("--output", default=None, help="CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_figure = sub.add_parser("figure", help="emit a preset data set as CSV files")
    p_figure.add_argument("figure_id", metavar="ID", help=f"one of {', '.join(FIGURE_IDS)}")
    p_figure.add_argument("--outdir", default=".")
    p_figure.add_argument("--trials", type=int, default=None, help="override preset trial count")
    p_figure.add_argument("--no-mc", action="store_true", help="analytic columns only")
    p_figure.add_argument("--seed", type=int, default=None)
    p_figure.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP)
    p_figure.set_defaults(func=cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: --output or --outdir not writable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
