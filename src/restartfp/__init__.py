"""First-passage statistics of discrete-time stochastic processes under
restart: exact generating-function formulas, beneficial-restart criteria,
and trajectory-level Monte Carlo validation."""

from types import ModuleType as _ModuleType

from .series import AT_INFINITY, TRUNCATION, TruncatedPMF, series_divide
from .models import (
    BiasedWalk,
    CycleTrap,
    ExplicitProcess,
    ExplicitRestart,
    GeometricRestart,
    ProcessModel,
    RestartSpec,
    SharpRestart,
    TwoPoint,
)
from .fpur import (
    BENEFICIAL,
    EQUAL,
    PREEMPTIVE,
    WORSE,
    FpurReport,
    analyze,
    best_geometric_rho,
    brw_geometric_mean,
    brw_geometric_threshold_m,
    brw_geometric_threshold_p,
    cycle_trap_geometric_threshold,
    cycle_trap_sharp_classify,
    cycle_trap_sharp_drop,
    cycle_trap_sharp_mean,
    default_rho_grid,
    derivative_criterion_D,
    fpur_pgf,
    fpur_pmf,
    hitting_prob_T,
    mean_T,
    mean_T_generic,
    mean_T_geometric,
    mean_T_sharp,
    p_restart_wins,
)
from .montecarlo import (
    SimConfig,
    SimEstimate,
    sample_restart,
    simulate_fpur,
    simulate_underlying,
    underlying_samples,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))]
__all__.append("__version__")
