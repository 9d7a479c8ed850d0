"""Numerical laboratory for the damped compressible Euler-Fourier system.

The package provides a periodic pseudo-spectral solver for the full
nonlinear system, exact mode-level analysis of its linearisation, a
Littlewood-Paley/Besov norm toolbox with an inequality validator, shell
Lyapunov functionals, and a decay-rate harness tying them together.
"""

from .decay import (
    InitialDataSpec,
    RateTarget,
    damped_mode_check,
    fit_rate,
    generate_initial_data,
    run_decay_experiment,
    time_weighted_functionals,
)
from .grid import PeriodicGrid, StateFields
from .inequalities import (
    check_bernstein,
    check_commutator,
    check_interpolation,
    check_product,
)
from .linear import (
    RadialProfile,
    SemigroupCurve,
    mode_propagator,
    reduced_symbol,
    saturating_profile,
    semigroup_besov_decay,
    symbol_matrix,
)
from .littlewood import DyadicCutoffs, FrequencySplit, LittlewoodPaley, ShellSeries, build_cutoffs
from .lyapunov import (
    coercivity_margin,
    lyapunov_residual,
    shell_functionals,
)
from .solver import SolverConfig, TrajectoryRecord, integrate

__version__ = "0.1.0"

__all__ = [
    "PeriodicGrid",
    "StateFields",
    "DyadicCutoffs",
    "FrequencySplit",
    "LittlewoodPaley",
    "ShellSeries",
    "build_cutoffs",
    "RadialProfile",
    "SemigroupCurve",
    "mode_propagator",
    "reduced_symbol",
    "saturating_profile",
    "semigroup_besov_decay",
    "symbol_matrix",
    "SolverConfig",
    "TrajectoryRecord",
    "integrate",
    "InitialDataSpec",
    "RateTarget",
    "fit_rate",
    "generate_initial_data",
    "run_decay_experiment",
    "damped_mode_check",
    "time_weighted_functionals",
    "check_bernstein",
    "check_commutator",
    "check_interpolation",
    "check_product",
    "coercivity_margin",
    "shell_functionals",
    "lyapunov_residual",
    "__version__",
]
