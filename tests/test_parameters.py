"""One rule for model, clock and horizon parameters, at every entry point
that reads one: integers through ``series._index`` and real parameters
through ``series._real``, each with the message of the class (or function)
that owns the parameter.  A numpy scalar reads as the Python value it
stands for, so it gives that value's result, Python-typed."""

import dataclasses
import math
import re

import numpy as np
import pytest

from restartfp import (
    BiasedWalk,
    CycleTrap,
    ExplicitRestart,
    GeometricRestart,
    SharpRestart,
    TruncatedPMF,
    TwoPoint,
    brw_geometric_mean,
    brw_geometric_threshold_m,
    brw_geometric_threshold_p,
    cycle_trap_geometric_threshold,
    cycle_trap_sharp_classify,
    cycle_trap_sharp_drop,
    cycle_trap_sharp_mean,
    fpur_pmf,
    mean_T_geometric,
    mean_T_sharp,
    series_divide,
)
from restartfp import cli
from restartfp.cli import emit_sweep_csv, parse_sweep_csv, run_sweep


def _held(value, name):
    return value.describe(), getattr(value, name)


def _law(law):
    return law.coefficients.tolist(), law.residual, law.residual_kind


def _sweep(family, x):
    return dataclasses.astuple(run_sweep(CycleTrap(0.5, 2, 4), family, [x]))


P_IN = "p must lie in (0, 1]"
P_INSIDE = "p must lie strictly inside (0, 1)"
RHO = "rho must lie strictly inside (0, 1)"
LM = "L and M must be integers"
M_WALK = "m must be an integer >= 1"
N = "n_restart must be an integer >= 1"
HORIZON = "t_max must be an integer >= 0"
TIME = "n must be an integer or infinity"
LAW = TruncatedPMF([0.0, 0.5, 0.25, 0.125], residual=0.125)

# (entry point and parameter, a call reading the parameter x as a result of
# Python values, a valid x, the owner's message for an invalid x)
ENTRIES = [
    ("CycleTrap.p", lambda x: _held(CycleTrap(x, 2, 4), "p"), 0.5, P_IN),
    ("CycleTrap.L", lambda x: _held(CycleTrap(0.5, x, 4), "L"), 2, LM),
    ("CycleTrap.M", lambda x: _held(CycleTrap(0.5, 2, x), "M"), 4, LM),
    ("BiasedWalk.p", lambda x: _held(BiasedWalk(x, 3), "p"), 0.6, P_INSIDE),
    ("BiasedWalk.m", lambda x: _held(BiasedWalk(0.6, x), "m"), 3, M_WALK),
    ("TwoPoint.t1", lambda x: _held(TwoPoint(x, 0.75, 20), "t1"), 1, "t1 and t2 must be integers"),
    ("TwoPoint.w1", lambda x: _held(TwoPoint(1, x, 20), "w1"), 0.75, "w1 must lie in [0, 1]"),
    ("TwoPoint.t2", lambda x: _held(TwoPoint(1, 0.75, x), "t2"), 20, "t1 and t2 must be integers"),
    ("GeometricRestart.rho", lambda x: _held(GeometricRestart(x), "rho"), 0.2, RHO),
    ("SharpRestart.n_restart", lambda x: _held(SharpRestart(x), "n_restart"), 9, N),
    ("mean_T_geometric.rho", lambda x: mean_T_geometric(CycleTrap(0.5, 2, 4), x), 0.2, RHO),
    ("mean_T_sharp.n_restart", lambda x: mean_T_sharp(CycleTrap(0.5, 2, 4), x), 9, N),
    ("cycle_trap_sharp_mean.p", lambda x: cycle_trap_sharp_mean(x, 2, 4, 9), 0.5, P_IN),
    ("cycle_trap_sharp_mean.L", lambda x: cycle_trap_sharp_mean(0.5, x, 4, 9), 2, LM),
    ("cycle_trap_sharp_mean.M", lambda x: cycle_trap_sharp_mean(0.5, 2, x, 9), 4, LM),
    ("cycle_trap_sharp_mean.n_restart", lambda x: cycle_trap_sharp_mean(0.5, 2, 4, x), 9, N),
    ("cycle_trap_sharp_drop.p", lambda x: cycle_trap_sharp_drop(x, 2, 4, 2), 0.5, P_IN),
    ("cycle_trap_sharp_drop.L", lambda x: cycle_trap_sharp_drop(0.5, x, 4, 2), 2, LM),
    ("cycle_trap_sharp_drop.M", lambda x: cycle_trap_sharp_drop(0.5, 2, x, 2), 4, LM),
    ("cycle_trap_sharp_drop.a", lambda x: cycle_trap_sharp_drop(0.5, 2, 4, x), 2, "a must be an integer >= 1"),
    ("cycle_trap_geometric_threshold.L", lambda x: cycle_trap_geometric_threshold(x, 14), 2, LM),
    ("cycle_trap_geometric_threshold.M", lambda x: cycle_trap_geometric_threshold(2, x), 14, LM),
    ("brw_geometric_threshold_p.m", brw_geometric_threshold_p, 3, M_WALK),
    ("brw_geometric_threshold_m.p", brw_geometric_threshold_m, 0.7,
     "threshold is defined only for downward bias 1/2 < p < 1"),
    ("cycle_trap_sharp_classify.L", lambda x: cycle_trap_sharp_classify(x, 4, 9), 2, LM),
    ("cycle_trap_sharp_classify.M", lambda x: cycle_trap_sharp_classify(2, x, 9), 4, LM),
    ("cycle_trap_sharp_classify.n_restart", lambda x: cycle_trap_sharp_classify(2, 4, x), 9, N),
    ("brw_geometric_mean.p", lambda x: brw_geometric_mean(x, 3, 0.2), 0.6, P_INSIDE),
    ("brw_geometric_mean.m", lambda x: brw_geometric_mean(0.6, x, 0.2), 3, M_WALK),
    ("brw_geometric_mean.rho", lambda x: brw_geometric_mean(0.6, 3, x), 0.2, RHO),
    ("series_divide.t_max", lambda x: series_divide([1.0], [1.0, -0.5], x).tolist(), 6, HORIZON),
    ("fpur_pmf.t_max-sharp", lambda x: _law(fpur_pmf(CycleTrap(0.5, 2, 4), SharpRestart(9), x)), 30, HORIZON),
    ("fpur_pmf.t_max-geometric", lambda x: _law(fpur_pmf(BiasedWalk(0.6, 3), GeometricRestart(0.2), x)), 30,
     HORIZON),
    ("ProcessModel.pmf.t_max", lambda x: _law(BiasedWalk(0.6, 3).pmf(x)), 30, "t_max must be an integer"),
    ("run_sweep.sharp", lambda x: _sweep("sharp", x), 9, N),
    ("run_sweep.geometric", lambda x: _sweep("geometric", x), 0.2, RHO),
    # A clock's or a law's time argument: R and U take integer values.
    ("GeometricRestart.survival.n", lambda x: GeometricRestart(0.5).survival(x), 2, TIME),
    ("GeometricRestart.cdf.n", lambda x: GeometricRestart(0.5).cdf(x), 2, TIME),
    ("SharpRestart.survival.n", lambda x: SharpRestart(3).survival(x), 2, TIME),
    ("ExplicitRestart.survival.n", lambda x: ExplicitRestart(LAW).survival(x), 2, TIME),
    ("ExplicitRestart.cdf.n", lambda x: ExplicitRestart(LAW).cdf(x), 2, TIME),
    ("TruncatedPMF.survival.n", LAW.survival, 2, TIME),
    ("TruncatedPMF.cumulative.n", LAW.cumulative, 2, TIME),
]
IDS = [entry[0] for entry in ENTRIES]


def _python_typed(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(map(_python_typed, value))
    return value is None or type(value) in (bool, int, float, str)


@pytest.mark.parametrize("name, call, valid, message", ENTRIES, ids=IDS)
@pytest.mark.parametrize("bad", [2.5, "text"], ids=["float", "string"])
def test_invalid_value_raises_the_owners_message(name, call, valid, message, bad):
    # 2.5 is not an integer, and lies outside every real parameter's domain.
    with pytest.raises(ValueError, match=re.escape(message)):
        call(str(valid) if bad == "text" else bad)


@pytest.mark.parametrize("name, call, valid, message", ENTRIES, ids=IDS)
def test_numpy_scalars_read_as_python_values(name, call, valid, message):
    scalars = [np.int64(valid)] if isinstance(valid, int) else [np.float64(valid), np.float32(valid)]
    for scalar in scalars:
        result, plain = call(scalar), call(scalar.item())
        assert _python_typed(result) and _python_typed(plain), (scalar, result)
        assert result == plain, scalar


def test_sweep_on_numpy_parameters_round_trips():
    # A trap built from np.float64 describes itself with the Python float
    # and flags rows with Python bools, so its CSV parses back.
    result = run_sweep(CycleTrap(np.float64(0.75), np.int64(2), 14), "geometric", [0.1, 0.2, 0.6])
    text = emit_sweep_csv(result)
    assert result.model_descriptor == "cycle-trap:p=0.75,L=2,M=14"
    assert [row.beneficial for row in result.rows] == [True, True, False]
    assert parse_sweep_csv(text) == result


def test_non_integer_sharp_sweep_value_runs_no_row(monkeypatch):
    # 7.9 is not truncated to N = 7: each grid value is read by its clock,
    # every one before the first row runs.
    calls = []
    monkeypatch.setattr(cli.fpur, "mean_T", lambda *args: calls.append(args))
    with pytest.raises(cli.UsageError, match=re.escape(N)):
        run_sweep(CycleTrap(0.25, 5, 10), "sharp", [8, 7.9])
    assert calls == []


# P at infinity and at -3 of each time argument's entry: hit_prob reads
# survival at infinity, and before 0 nothing has happened.
AT_INF_AND_BEFORE = {
    "GeometricRestart.survival.n": (0.0, 1.0),
    "GeometricRestart.cdf.n": (1.0, 0.0),
    "SharpRestart.survival.n": (0.0, 1.0),
    "ExplicitRestart.survival.n": (0.125, 1.0),
    "ExplicitRestart.cdf.n": (0.875, 0.0),
    "TruncatedPMF.survival.n": (0.125, 1.0),
    "TruncatedPMF.cumulative.n": (0.875, 0.0),
}
TIME_ENTRIES = [entry[:2] for entry in ENTRIES if entry[3] == TIME]


@pytest.mark.parametrize("name, call", TIME_ENTRIES, ids=[name for name, _ in TIME_ENTRIES])
def test_time_arguments_take_infinity_and_negative_integers(name, call):
    assert (call(math.inf), call(-3)) == AT_INF_AND_BEFORE[name]
    assert (call(np.float64(math.inf)), call(np.int64(-3))) == AT_INF_AND_BEFORE[name]
    # A whole float is no int either: a time is read as an integer or not at all.
    with pytest.raises(ValueError, match=re.escape(TIME)):
        call(2.0)


def test_geometric_clock_at_integer_times():
    # R is integer-valued: P(R > 2) = (1/2)^2, not (1/2)^2.5 at 2.5.
    clock = GeometricRestart(0.5)
    assert (clock.survival(2), clock.cdf(2), clock.survival(math.inf), clock.hit_prob()) == (0.25, 0.75, 0.0, 1.0)
    assert ExplicitRestart(LAW).hit_prob() == 0.875 and LAW.cumulative(math.inf) == 0.875
