"""Workloads of the restartfp benchmark.

A workload turns a seed into a :class:`Plan`: a factory for the operations
one pass issues back to back, the checks on their results, and the warm-up
operation that set-up time includes.  Every pass of a run repeats the same
inputs on model objects built afresh for that pass; within a pass, rows of
one sweep share their model as they do under ``restartfp figure``.  So the
counts a traced pass records repeat exactly.  Operations look library
functions up through their module (``cli.run_sweep``, ``fpur.fpur_pmf``)
at call time, so the tracer's wrappers see every call.

Why each workload exists is recorded in NOTES.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from restartfp import cli, fpur, models

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

# Monte Carlo sweeps take their seed from --seed modulo this; the row
# fingerprints of every such seed are recorded in fingerprints.json.
FINGERPRINT_SEEDS = 32

# Closed-form agreement for the exact layers.  Relative, so a blocked or
# reordered series division that changes the last bits still passes.
MEAN_RTOL = 1e-9
# Mass plus residual must equal 1 within the series module's own tolerance.
MASS_TOL = 1e-9

# An operation receives the results of the earlier operations of its pass.
Op = Callable[[list], object]
# A check receives one operation's result and all results of its pass, and
# returns None when the result is correct, else the reason it is not.
Check = Callable[[object, list], "str | None"]


@dataclass(frozen=True)
class Plan:
    # Builds the labelled operations of one pass on fresh model objects.
    new_pass: Callable[[], list[tuple[str, Op]]]
    # Builds one check per operation; references are computed here, once.
    make_checks: Callable[[], list[Check]]
    # Monte Carlo trials a pass ran, from its results.
    count_trials: Callable[[list], int]
    # Index of the operation a fresh process runs as its warm-up.
    warmup: int


def verdicts(checks: list[Check], results: list) -> list:
    """One verdict per operation: None when its result is correct."""
    out = []
    for result, check in zip(results, checks):
        if isinstance(result, BaseException):
            out.append(f"raised {result!r}")
            continue
        try:
            out.append(check(result, results))
        except Exception as exc:  # a malformed result is a failed operation
            out.append(f"check raised {exc!r}")
    return out


def _emit_op(first: int, count: int) -> Op:
    """emit_sweep_csv over the one-row sweep results done[first:first+count]."""

    def op(done):
        rows = done[first:first + count]
        head = rows[0]
        merged = cli.SweepResult(
            head.model_descriptor,
            head.restart_family,
            head.baseline_mean_u,
            tuple(r.rows[0] for r in rows),
        )
        return cli.emit_sweep_csv(merged)

    return op


def _sweep_ops(text: str, family: str, grid, first: int, trials: int = 0, seed: int = 0) -> list[tuple[str, Op]]:
    """One operation per row, then one emit_sweep_csv; ``first`` is the pass
    index of the first row.

    A one-row sweep seeded seed + index reproduces row ``index`` of the full
    sweep seeded ``seed`` bit for bit, so rows can be timed one by one.
    """
    model = cli.parse_model(text)
    ops = [
        (f"run_sweep {text} {family} {param}",
         lambda _done, param=param, index=index: cli.run_sweep(model, family, [param], trials, seed + index))
        for index, param in enumerate(grid)
    ]
    ops.append((f"emit_sweep_csv {text}", _emit_op(first, len(grid))))
    return ops


# ---------------------------------------------------------------------------
# Monte Carlo sweeps: mc-short and mc-long
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    model: str
    family: str
    grid: tuple
    trials: int

    def as_json(self) -> dict:
        return {"model": self.model, "family": self.family, "grid": list(self.grid), "trials": self.trials}


MC_SWEEPS = {
    # Figure 6: trials of about 40 steps, so per-trial stream setup dominates.
    "mc-short": SweepSpec("cycle-trap:p=0.25,L=5,M=10", "sharp", tuple(range(2, 61)), 1000),
    # Trials of 430-860 steps with a heavy-tailed length: the step loop dominates.
    "mc-long": SweepSpec("brw:p=0.55,m=40", "geometric",
                         (0.0005, 0.00075, 0.001, 0.0015, 0.002, 0.003, 0.004, 0.005), 750),
}


def sweep_seed(seed: int) -> int:
    return seed % FINGERPRINT_SEEDS


def csv_row_digests(csv_text: str) -> list[str]:
    """Short SHA-256 digests of each data line of a sweep CSV."""
    return [hashlib.sha256(line.encode()).hexdigest()[:16] for line in csv_text.splitlines()[1:]]


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text())


def mc_plan(name: str, seed: int) -> Plan:
    spec = MC_SWEEPS[name]
    base = sweep_seed(seed)
    count = len(spec.grid)

    def new_pass():
        return _sweep_ops(spec.model, spec.family, spec.grid, 0, spec.trials, base)

    def emitted_digests(results):
        csv_text = results[count]
        return None if isinstance(csv_text, BaseException) else csv_row_digests(csv_text)

    def fingerprint_check(index, expected):
        def check(_row, results):
            if expected is None:
                return "no fingerprint recorded for this sweep and seed"
            got = emitted_digests(results)
            if got is None:
                return "rows were not emitted"
            if index >= len(got) or got[index] != expected[index]:
                return "row differs from its recorded fingerprint"
            return None

        return check

    def emit_check(csv_text, _results):
        if len(cli.parse_sweep_csv(csv_text).rows) != count:
            return "emitted CSV has the wrong row count"
        return None

    def count_trials(results):
        return sum(
            spec.trials
            for r in results[:count]
            if not isinstance(r, BaseException) and math.isfinite(r.rows[0].mean_t_analytic)
        )

    def make_checks():
        recorded = load_fingerprints().get(name, {})
        expected = recorded.get("seeds", {}).get(str(base)) if recorded.get("spec") == spec.as_json() else None
        return [fingerprint_check(i, expected) for i in range(count)] + [emit_check]

    # The last row: one sweep row with Monte Carlo, as a CLI sweep starts.
    return Plan(new_pass, make_checks, count_trials, warmup=count - 1)


# ---------------------------------------------------------------------------
# exact-law
# ---------------------------------------------------------------------------

TRAP = (0.75, 2, 14)
WALK = (0.55, 3)
CRITICAL_WALK = (0.5, 1)
CRITICAL_RHO = 0.1
FIGURE_WALKS = ("brw:p=0.8,m=3", "brw:p=0.65,m=3", "brw:p=0.54,m=3")  # figures 8-10
FIGURE_GRID = tuple(range(2, 121))


def _close(value: float, reference: float) -> bool:
    if math.isinf(reference) or math.isinf(value):
        return value == reference
    return abs(value - reference) <= MEAN_RTOL * abs(reference)


def _law_check(reference: float) -> Check:
    def check(law, _results):
        mass = math.fsum(law.coefficients) + law.residual
        if abs(mass - 1.0) > MASS_TOL:
            return f"mass plus residual is {mass!r}"
        if not _close(law.mean(), reference):
            return f"law mean {law.mean()!r} differs from closed form {reference!r}"
        return None

    return check


def _row_check(reference: float) -> Check:
    def check(result, _results):
        value = result.rows[0].mean_t_analytic
        return None if _close(value, reference) else f"row mean {value!r}, renewal identity {reference!r}"

    return check


def _figure_emit_check(first: int, count: int) -> Check:
    def check(csv_text, results):
        parsed = cli.parse_sweep_csv(csv_text).rows
        rows = [r.rows[0] for r in results[first:first + count]]
        if len(parsed) != count:
            return "emitted CSV has the wrong row count"
        for got, row in zip(parsed, rows):
            if got.param != row.param or got.beneficial != row.beneficial or not _close(
                float(got.mean_t_analytic), row.mean_t_analytic
            ):
                return "emitted CSV does not parse back to its rows"
        return None

    return check


def _subject(which: str) -> models.ProcessModel:
    return models.CycleTrap(*TRAP) if which == "trap" else models.BiasedWalk(*WALK)


def _closed_form_mean(which: str, spec) -> float:
    if isinstance(spec, models.GeometricRestart):
        return fpur.mean_T_geometric(_subject(which), spec.rho)
    if which == "trap":
        return fpur.cycle_trap_sharp_mean(*TRAP, spec.n_restart)
    return fpur.mean_T_sharp(_subject(which), spec.n_restart)


def exact_plan(seed: int) -> Plan:
    rng = random.Random(seed)
    trap_rho = rng.choice((0.1, 0.15, 0.2, 0.25, 0.3))
    trap_n = rng.randrange(6, 20)
    walk_rho = rng.choice((0.02, 0.05, 0.1))
    walk_n = rng.randrange(8, 40)
    # Geometric restart makes the renewal denominator dense; sharp restart
    # gives it a single non-zero coefficient.
    laws = [
        ("trap", models.GeometricRestart(trap_rho), 16000),
        ("trap", models.SharpRestart(trap_n), 16000),
        ("trap", models.GeometricRestart(trap_rho), 4000),
        ("trap", models.SharpRestart(trap_n), 4000),
        ("walk", models.GeometricRestart(walk_rho), 8000),
        ("walk", models.SharpRestart(walk_n), 8000),
        ("walk", models.GeometricRestart(walk_rho), 2000),
        ("walk", models.SharpRestart(walk_n), 2000),
    ]

    def make_checks():
        checks = [_law_check(_closed_form_mean(which, spec)) for which, spec, _ in laws]
        critical = fpur.brw_geometric_mean(*CRITICAL_WALK, CRITICAL_RHO)

        def analyze_check(report, _results):
            if report.hit_prob != 1.0 or not _close(report.mean_T, critical):
                return f"analyze gave {report!r}, closed form mean {critical!r}"
            return None

        checks.append(analyze_check)
        for text in FIGURE_WALKS:
            first = len(checks)
            model = cli.parse_model(text)
            # The renewal identity is an independent route to the sharp mean;
            # a horizon of N makes it exact for a restart at N.
            checks.extend(
                _row_check(fpur.mean_T_generic(model, models.SharpRestart(n), max(n, model.min_support())))
                for n in FIGURE_GRID
            )
            checks.append(_figure_emit_check(first, len(FIGURE_GRID)))
        return checks

    def new_pass():
        subjects = {which: _subject(which) for which in ("trap", "walk")}
        ops = [
            (f"fpur_pmf {which} {spec.describe()} t_max={t_max}",
             lambda _done, m=subjects[which], s=spec, t=t_max: fpur.fpur_pmf(m, s, t))
            for which, spec, t_max in laws
        ]
        ops.append(("analyze critical walk", lambda _done: fpur.analyze(
            models.BiasedWalk(*CRITICAL_WALK), models.GeometricRestart(CRITICAL_RHO))))
        for text in FIGURE_WALKS:
            ops.extend(_sweep_ops(text, "sharp", FIGURE_GRID, len(ops)))
        return ops

    return Plan(new_pass, make_checks, count_trials=lambda _results: 0, warmup=0)



def make_plan(name: str, seed: int) -> Plan:
    if name == "exact-law":
        return exact_plan(seed)
    return mc_plan(name, seed)
