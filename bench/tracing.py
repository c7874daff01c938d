"""Spans and counts recorded around the public entry points of each layer.

The tracer wraps names where their callers look them up: ``cli`` binds
``simulate_fpur`` at import and ``fpur`` binds ``series_divide`` at import,
so those module attributes are replaced, and ``pmf`` is replaced on every
process-model class that defines it.  Spans stay in memory; :meth:`Tracer.take`
hands back a pass's spans and counts and starts the next pass empty.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from restartfp import cli, fpur, models

# Every wrapped layer, in report order.  A layer's self time is its spans'
# time minus the part of it their child spans cover.
LAYERS = (
    "montecarlo.simulate_fpur",
    "series.series_divide",
    "models.pmf",
    "fpur.fpur_pmf",
    "fpur.mean_T_sharp",
    "fpur.analyze",
    "cli.run_sweep",
    "cli.emit_sweep_csv",
)


def divide_work(denominator_size: int, numerator_size: int, t_max: int) -> tuple[int, int]:
    """(multiply-adds, bytes) of the long-division recurrence, computed from
    array sizes: quotient n takes min(n, D-1) products of two float64 reads,
    plus one numerator read and one quotient write."""
    k = denominator_size - 1
    if t_max <= k:
        madds = t_max * (t_max + 1) // 2
    else:
        madds = k * (k + 1) // 2 + (t_max - k) * k
    return madds, 16 * madds + 8 * (t_max + 1) + 8 * min(numerator_size, t_max + 1)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.counts: Counter = Counter()
        self.pmf_keys: set = set()
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [layer, perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            self.counts[layer + ".calls"] += 1
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def take(self) -> tuple[dict, Counter]:
        """Self time per layer and the counts since the last call."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        for layer, start, end, _ in self.spans:
            self_s[layer] += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        counts = self.counts
        counts["models.pmf.unique"] = len(self.pmf_keys)
        self.spans, self.counts, self.pmf_keys = [], Counter(), set()
        return self_s, counts


def _count_simulation(tracer, args, _kwargs, estimate) -> None:
    config = args[2]
    tracer.counts["montecarlo.trials"] += config.trials
    # Completed trials sum to mean * trials_used steps; a censored trial
    # stops after exactly step_cap steps, so the count stays exact.
    completed = round(estimate.mean * estimate.trials_used) if estimate.trials_used else 0
    tracer.counts["montecarlo.steps"] += completed + estimate.censored * config.step_cap
    tracer.counts["montecarlo.censored"] += estimate.censored


def _count_divide(tracer, args, _kwargs, _quotient) -> None:
    numerator, denominator, t_max = args
    madds, nbytes = divide_work(len(denominator), len(numerator), t_max)
    tracer.counts["series.series_divide.madds"] += madds
    tracer.counts["series.series_divide.bytes"] += nbytes


def _count_pmf(tracer, args, kwargs, pmf) -> None:
    model = args[0]
    t_max = args[1] if len(args) > 1 else kwargs.get("t_max")
    tracer.counts["models.pmf.terms"] += pmf.coefficients.size
    tracer.pmf_keys.add((type(model).__name__, model.describe(), t_max))


def _pmf_classes():
    pending, found = [models.ProcessModel], []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "pmf" in vars(cls) and cls is not models.ProcessModel:
            found.append(cls)
    return found


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer's entry points for the duration of the block."""
    targets = [
        (cli, "simulate_fpur", "montecarlo.simulate_fpur", _count_simulation),
        (fpur, "series_divide", "series.series_divide", _count_divide),
        (fpur, "fpur_pmf", "fpur.fpur_pmf", None),
        (fpur, "mean_T_sharp", "fpur.mean_T_sharp", None),
        (fpur, "analyze", "fpur.analyze", None),
        (cli, "run_sweep", "cli.run_sweep", None),
        (cli, "emit_sweep_csv", "cli.emit_sweep_csv", None),
    ]
    targets += [(cls, "pmf", "models.pmf", _count_pmf) for cls in _pmf_classes()]
    originals = [(owner, name, vars(owner)[name]) for owner, name, _, _ in targets]
    try:
        for owner, name, layer, count in targets:
            setattr(owner, name, tracer.wrap(layer, vars(owner)[name], count))
        yield tracer
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
