"""Small-value probabilities for branching processes in random environment.

Library layout:

  laws         offspring laws (finite support / linear fractional)
  environment  environment models, tilting, rate function, regimes
  pgf          batched truncated-series kernels (*_rows) for pgf composition
  exact        quenched and annealed exact probabilities, subadditive bounds
  lf           linear-fractional decay rate
  simulate     forward / conditioned-spine samplers, MRCA
  rates        decay-rate reports (the monotone case included) and the
               two-environment example suites
  cli          command-line front end
"""

from .environment import (
    EnvironmentModel,
    Regime,
    classify_regime,
    lattice_span,
    rate_function_at_zero,
    solve_critical_tilt,
    tilt,
)
from .errors import (
    BpreError,
    BudgetError,
    ContractError,
    DegenerateLawError,
    NotSupercriticalError,
    PopulationCapError,
    TruncationError,
)
from .exact import (
    EnvSequence,
    FeketeTable,
    annealed_pmf,
    annealed_pmf_row,
    fekete_bounds,
    quenched_survival,
    smallest_reachable,
    subtree_extinction_identity,
)
from .laws import FiniteLaw, LinearFractionalLaw, OffspringLaw
from .lf import lf_rho
from .rates import (
    MrcaRegimeReport,
    RhoReport,
    example1_suite,
    example2_suite,
    mrca_regime_suite,
    rho_report,
)
from .simulate import (
    ImportanceEstimate,
    MrcaDistribution,
    SpineSample,
    Trajectory,
    conditioned_mrca_sample,
    geiger_sample,
    importance_estimate,
    simulate_forward,
    stream,
    subseed,
    worker_count,
)

__all__ = [name for name in dir() if not name.startswith("_")]
