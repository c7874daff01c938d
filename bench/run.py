"""The restartfp benchmark: one workload, measured in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; restartfp is imported from src/.
Load is closed-loop: one caller issues the workload's operations back to
back, pass after pass.  The S measured seconds are split over WORKERS fresh
processes run one after another, never at once, and their samples are
pooled: each process lays out its hash tables and memory differently, which
moves its timings by several per cent, and pooling averages that out.  Every
result is checked; a mismatch or an exception counts as a failed operation.
Every time, the S seconds included, is counted at the reference host speed
of hostspeed.py, which takes the shared host's slow and fast phases out of
the figures; the raw times are printed beside them.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes and reports per-layer numbers per
pass; the difference between the two pass walls is the tracing overhead.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it say how
each number was produced and record the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("mc-short", "mc-long", "exact-law")
# Fresh processes per run; set-up time is the median of theirs.  The build
# machine's speed drifted on a scale of seconds, so more processes sample
# more of that drift.
WORKERS = 10
# Every worker must have ended by then, so the run ends within 180 s.
RUN_BUDGET_S = 170
# Tail percentile: the highest of these with at least TAIL_BEYOND samples
# beyond it.
TAIL_PERCENTILES = (50, 90, 99, 99.9, 99.99)
TAIL_BEYOND = 10
# Fixed-cost probe: TwoPoint(1, 1.0, 1) under SharpRestart(2) makes one
# restart draw and one step per trial.
PROBE_TRIALS = 4000
PROBE_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _blas(np):
    """BLAS library and its thread count, from the OpenBLAS numpy loaded."""
    info = {"library": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            mapped = {fields[5] for fields in map(str.split, maps) if len(fields) >= 6}
    except OSError:
        return info
    paths = [path for path in mapped if "openblas" in Path(path).name.lower()]
    import ctypes

    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    import numpy as np

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_workers(args) -> tuple[list[dict], list[str]]:
    """Samples of WORKERS fresh processes, run one at a time."""
    reports, errors = [], []
    window = args.seconds / WORKERS
    started = perf_counter()
    for index in range(WORKERS):
        budget = RUN_BUDGET_S - (perf_counter() - started)
        if budget <= 0:
            errors.append("no time left for a worker process")
            continue
        command = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed), str(window),
                   str(args.trace), str(index)]
        try:
            proc = subprocess.run(command, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            errors.append("worker process timed out")
            continue
        try:
            reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        except (IndexError, json.JSONDecodeError):
            errors.append(f"worker process exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    for report in reports:
        errors.extend(report["failures"])
    return reports, errors


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    chosen = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            chosen = p
    return chosen, ordered[max(1, math.ceil(chosen / 100 * n)) - 1]


def probe_trial_fixed_us(seed: int) -> tuple[float, str | None]:
    """Median microseconds per trial of the one-draw, one-step probe."""
    from restartfp import models, montecarlo

    per_trial = []
    for repeat in range(PROBE_REPEATS):
        config = montecarlo.SimConfig(trials=PROBE_TRIALS, seed=(seed + repeat) % 2**64)
        before = hostspeed.kernel_s()
        start = perf_counter()
        estimate = montecarlo.simulate_fpur(models.TwoPoint(1, 1.0, 1), models.SharpRestart(2), config)
        elapsed = perf_counter() - start
        reference = (before + hostspeed.kernel_s()) / 2
        per_trial.append(elapsed / PROBE_TRIALS * hostspeed.NOMINAL_S / reference)
        if estimate.mean != 1.0 or estimate.trials_used != PROBE_TRIALS or estimate.mean_restarts != 0.0:
            return math.nan, f"probe estimate {estimate!r}"
    return statistics.median(per_trial) * 1e6, None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reports, say) -> dict:
    walls = [w for r in reports for w in r["walls"]]
    passes = [times for r in reports for times in r["op_times"]]
    op_times = [t for times in passes for t in times]
    setups = [r["setup_s"] for r in reports]
    trials = sum(r["trials"] for r in reports)
    # The wall of a pass in which every operation took its median time: a
    # burst of interference from outside slows single operations, not all
    # passes of one operation.
    wall = math.fsum(statistics.median(column) for column in zip(*passes))
    pct, tail_s = tail(op_times)
    rss_mb = statistics.median(r["rss_mb"] for r in reports)
    raw_walls = [w for r in reports for w in r["raw_walls"]]
    kernel_s = statistics.median(k for r in reports for k in r["references"])
    say(f"passes           {len(walls)} over {len(reports)} processes, {math.fsum(raw_walls):.3f} s of measured operations, raw")
    say(f"host speed       reference kernel median {kernel_s * 1e3:.4f} ms, nominal {hostspeed.NOMINAL_S * 1e3:.4f} ms;"
        " every time below is at the nominal speed")
    say(f"wall_s           {wall:.6f} s     sum over the pass's operations of each one's median time"
        f" (median pass wall {statistics.median(walls):.6f} s; raw {statistics.median(raw_walls):.6f} s)")
    say(f"setup_s          {statistics.median(setups):.6f} s     median over the processes of import restartfp"
        f" + warm-up operation (all: {', '.join(f'{t:.4f}' for t in setups)};"
        f" raw median {statistics.median(r['raw_setup_s'] for r in reports):.6f} s)")
    say(f"op_p50_ms        {statistics.median(op_times) * 1e3:.6f} ms    n={len(op_times)} operations")
    say(f"op_tail_ms       {tail_s * 1e3:.6f} ms    p{pct:g}, n={len(op_times)}")
    if trials:
        say(f"trials_per_s     {trials / len(walls) / wall:.3f} 1/s   "
            f"{trials // len(walls)} trials per pass over wall_s")
    say(f"peak_rss_mb      {rss_mb:.3f} MB    median over the processes of ru_maxrss")
    return {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "op_p50_ms": metric(statistics.median(op_times) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(reports, seed: int, say) -> tuple[dict, list[str]]:
    import tracing

    problems = []
    passes = sum(len(r["traced_walls"]) for r in reports)
    layer_s = {layer: math.fsum(r["self_s"][layer] for r in reports) / passes for layer in tracing.LAYERS}
    traced_wall = statistics.fmean(w for r in reports for w in r["traced_walls"])
    plain_wall = statistics.fmean(w for r in reports for w in r["walls"])
    unattributed = traced_wall - math.fsum(layer_s.values())
    every = [c for r in reports for c in r["counts"]]
    counts = every[0]
    if any(c != counts for c in every):
        problems.append("counts differ between traced passes of the same inputs")
    fixed_us, probe_error = probe_trial_fixed_us(seed)
    if probe_error:
        problems.append(probe_error)

    def count(key):
        return counts.get(key, 0)

    trials, steps = count("montecarlo.trials"), count("montecarlo.steps")
    sim_s = layer_s["montecarlo.simulate_fpur"]
    step_ns = (sim_s - trials * fixed_us * 1e-6) / (steps - trials) * 1e9 if steps > trials else 0.0
    pmf_calls = count("models.pmf.calls")
    metrics = {
        "montecarlo.simulate_fpur.s": metric(sim_s, "s"),
        "montecarlo.trials": metric(trials, "count"),
        "montecarlo.steps": metric(steps, "count"),
        "montecarlo.trial_fixed_us": metric(fixed_us, "us"),
        "montecarlo.step_ns": metric(step_ns, "ns"),
        "series.series_divide.calls": metric(count("series.series_divide.calls"), "count"),
        "series.series_divide.s": metric(layer_s["series.series_divide"], "s"),
        "series.series_divide.madds": metric(count("series.series_divide.madds"), "madd_computed"),
        "series.series_divide.bytes": metric(count("series.series_divide.bytes"), "B_computed"),
        "models.pmf.calls": metric(pmf_calls, "count"),
        "models.pmf.s": metric(layer_s["models.pmf"], "s"),
        "models.pmf.terms": metric(count("models.pmf.terms"), "count"),
        "models.pmf.unique_ratio": metric(count("models.pmf.unique") / pmf_calls if pmf_calls else 0.0, "ratio"),
        "fpur.fpur_pmf.self_s": metric(layer_s["fpur.fpur_pmf"], "s"),
        "fpur.mean_T_sharp.calls": metric(count("fpur.mean_T_sharp.calls"), "count"),
        "fpur.mean_T_sharp.self_s": metric(layer_s["fpur.mean_T_sharp"], "s"),
        "fpur.analyze.self_s": metric(layer_s["fpur.analyze"], "s"),
        "cli.run_sweep.self_s": metric(layer_s["cli.run_sweep"], "s"),
        "cli.emit_sweep_csv.s": metric(layer_s["cli.emit_sweep_csv"], "s"),
        "trace.wall_s": metric(traced_wall, "s"),
        "trace.unattributed_s": metric(unattributed, "s"),
        "trace.overhead_s": metric(traced_wall - plain_wall, "s"),
    }
    say(f"traced passes    {passes} over {len(reports)} processes, each paired with an untraced one;"
        " times are means per pass, counts are per pass")
    for name, entry in metrics.items():
        say(f"{name:<32} {entry['value']:.9g} {entry['unit']}")
    say(f"self times + unattributed = {math.fsum(layer_s.values()) + unattributed:.9g} s"
        f" = traced pass wall {traced_wall:.9g} s; untraced pass wall {plain_wall:.9g} s")
    say("madds and bytes are computed from array sizes.  trial_fixed_us is the probe's time per trial"
        " (one restart draw, one step); step_ns = (simulate_fpur.s - trials * trial_fixed) / (steps - trials)")
    if count("montecarlo.censored"):
        say(f"{count('montecarlo.censored')} censored trials per pass, each counted as step_cap steps")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "restartfp" / "__init__.py").is_file():
        print(f"error: {SRC / 'restartfp'} not found; run from a restartfp source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def say(line: str) -> None:
        print(line, flush=True)

    say(f"restartfp benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}; closed loop, one caller")
    reports, failures = run_workers(args)
    if not reports:
        for reason in failures:
            print(reason, file=sys.stderr)
        return 1
    say("environment " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        metrics, problems = per_layer(reports, args.seed, say)
    else:
        metrics, problems = end_to_end(reports, say), []
    # A worker that gave no report counts as one failed operation; a traced
    # run adds two checks of its own, the probe and the repeat of counts.
    attempted = sum(r["attempted"] for r in reports) + WORKERS - len(reports) + 2 * args.trace
    failed = len(failures) + len(problems)
    say(f"fail_ratio       {failed / attempted:.6g}    {failed} of {attempted} operations")
    for reason in sorted(set(failures + problems))[:10]:
        say(f"  failure: {reason}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
