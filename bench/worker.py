"""One fresh benchmark process: set-up, then measured passes.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE INDEX

Times ``import restartfp`` plus the workload's warm-up operation, the
set-up a CLI user pays on every run.  Then it issues the workload's passes
back to back for SECONDS at the reference host speed, checking every
result; with TRACE 1 it alternates untraced and traced passes.  INDEX is the
process's place in its run.
Every time is reported at the reference host speed of hostspeed.py: the
reference kernel runs before and after each stretch of about SEGMENT_S of
operations, and an operation's time is scaled by the mean of the two kernel
times around it.  Prints one JSON object of samples, which bench/run.py
pools across processes.
"""

import functools
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

SRC = Path(__file__).resolve().parent.parent / "src"

# Seconds of operations between two runs of the reference kernel; the
# kernel adds about 3 % to a pass.
SEGMENT_S = 0.05
# Kernel runs whose median scales the set-up time.  They run after it,
# because the kernel imports numpy, which the timed import includes.
SETUP_REFERENCES = 3


def run_pass(ops) -> tuple[list[float], list[float], list]:
    """Issue one pass's operations back to back; an exception is a result.

    Returns each operation's raw time, the reference kernel time around it
    (the mean of the kernel runs before and after its segment), and the
    results."""
    results, times, segment_of = [], [], []
    references = [hostspeed.kernel_s()]
    segment = 0.0
    for _, op in ops:
        begin = perf_counter()
        try:
            result = op(results)
        except Exception as exc:  # counted as a failed operation
            result = exc
        elapsed = perf_counter() - begin
        times.append(elapsed)
        results.append(result)
        segment_of.append(len(references) - 1)
        segment += elapsed
        if segment >= SEGMENT_S:
            references.append(hostspeed.kernel_s())
            segment = 0.0
    if segment_of and segment_of[-1] == len(references) - 1:
        references.append(hostspeed.kernel_s())
    around = [(references[k] + references[k + 1]) / 2 for k in segment_of]
    return times, around, results


def main() -> int:
    name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    trace, index = sys.argv[4] == "1", int(sys.argv[5])
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import restartfp  # noqa: F401  (timed: the import a CLI user pays)

    setup = perf_counter() - start
    import tracing
    import workloads

    plan = workloads.make_plan(name, seed)
    warmup = plan.new_pass()[plan.warmup][1]
    failures = []
    start = perf_counter()
    try:
        warmup([])
    except Exception as exc:  # the warm-up is an attempted operation
        failures.append(f"warm-up raised {exc!r}")
    setup += perf_counter() - start
    reference = statistics.median(hostspeed.kernel_s() for _ in range(SETUP_REFERENCES))

    judge = functools.partial(workloads.verdicts, plan.make_checks())
    report = {"setup_s": setup * hostspeed.NOMINAL_S / reference, "raw_setup_s": setup,
              "walls": [], "raw_walls": [], "op_times": [], "references": [], "trials": 0,
              "attempted": 1, "traced_walls": [], "self_s": dict.fromkeys(tracing.LAYERS, 0.0),
              "counts": []}

    def record(ops, wall, around, results, walls):
        walls.append(wall)
        report["references"].extend(around)
        report["attempted"] += len(results)
        report["trials"] += plan.count_trials(results)
        failures.extend(f"{label}: {verdict}" for (label, _), verdict in zip(ops, judge(results))
                        if verdict is not None)

    tracer = tracing.Tracer()
    used = step = 0.0
    # Start another pass only if it is expected to end by half past SECONDS,
    # so the time measured averages SECONDS however long a pass is.  Time is
    # counted at the reference speed, so the number of passes, and with it
    # the tail percentile a run can report, does not move with the host's
    # phases.
    while not report["walls"] or used + step / 2 < seconds:
        step = 0.0
        # A traced run alternates which kind of pass comes first, across
        # processes and iterations, so a first-pass effect biases neither.
        order = [False, True] if trace else [False]
        if (index + len(report["walls"])) % 2:
            order.reverse()
        for traced in order:
            ops = plan.new_pass()
            if not traced:
                times, around, results = run_pass(ops)
                scaled = [t * hostspeed.NOMINAL_S / r for t, r in zip(times, around)]
                record(ops, sum(scaled), around, results, report["walls"])
                step += sum(scaled)
                report["raw_walls"].append(sum(times))
                report["op_times"].append(scaled)
                continue
            with tracing.installed(tracer):
                times, around, results = run_pass(ops)
            # A traced pass is scaled as a whole, by its median kernel time,
            # so its layer self times still add up to its wall.
            scale = hostspeed.NOMINAL_S / statistics.median(around)
            record(ops, sum(times) * scale, around, results, report["traced_walls"])
            step += sum(times) * scale
            self_s, counts = tracer.take()
            for layer, value in self_s.items():
                report["self_s"][layer] += value * scale
            report["counts"].append(dict(counts))
        used += step
    report["failures"] = failures
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
