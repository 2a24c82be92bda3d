"""Linear-fractional decay rate ``lf_rho`` and quenched survival bounds.

LF laws are stable under composition: given the environment, the law of Z_n
is again linear fractional,

    f_{0,n}(s) = 1 - p (1-s) / (a + r (1-s)),   p = P(Z_n > 0 | env),

where a = A/D and r = B/D are the bounded ratios of the suffix statistics
A = exp(-S_n), B = sum_{k=0}^{n-1} eta_{k+1} exp(-S_k) (eta = b m^{-2} / 2)
and D = A + B = 1/p.  The quenched closed forms live in ``exact``, whose
``_lf_suffix`` carries (p, a, r), all in [0, 1], for the closed-form route
of ``horizon_rows`` and ``survival_rows``; a survival that a double can
hold is kept at any horizon, where exp(-S_n) itself would underflow or
overflow.  This module holds what is built on top of them: the two-regime
rate of P(Z_n = j) for an LF environment model, and the survival bounds.

Conventions: the exact LF survival uses ``eta_lf = b/(2 m^2)``.  The
general survival lower bound uses ``eta_general = b/m^2``; for LF laws the
eta_lf expression is an exact identity while the eta_general expression
remains a strict lower bound, and both are exposed side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import EnvironmentModel, Regime, classify_regime, rate_function_at_zero, regime_tilt
from .errors import ContractError
from .exact import EnvSequence, survival_rows
from .laws import LinearFractionalLaw


@dataclass(frozen=True)
class LFRho:
    rho: float
    regime: Regime


def lf_rho(model: EnvironmentModel) -> LFRho:
    """Two-regime decay rate of P(Z_n = j) for an LF environment model.

    Strongly / intermediate (E[X exp(-X)] >= 0): rho = -log E[exp(-X)].
    Weakly (E[X exp(-X)] < 0): rho = Lambda(0), the walk's lower-deviation
    rate at zero.  At the boundary the two expressions coincide and this is
    asserted.
    """
    if not model.is_lf_pure:
        raise ContractError("closed form requires LF")
    if model.drift <= 0.0:
        raise ContractError("rate formula needs E[X] > 0")
    if model.extinction_in_one_step <= 0.0:
        raise ContractError("rate formula needs P(Z_1 = 0) > 0")
    regime = classify_regime(model)
    rho = -math.log(model.tilted_moment(regime_tilt(model)))
    if regime is Regime.INTERMEDIATE:
        lambda0 = rate_function_at_zero(model).value
        if abs(lambda0 - rho) > 1e-10:
            raise ContractError(
                f"boundary mismatch: -log E[e^-X] = {rho} vs Lambda(0) = {lambda0}"
            )
    return LFRho(rho=rho, regime=regime)


@dataclass(frozen=True)
class SurvivalBounds:
    """Lower / upper bounds on quenched survival, plus the LF exact value."""

    lower: float
    upper: float
    lf_exact: float | None


def agresti_survival_bounds(env: EnvSequence) -> SurvivalBounds:
    """Bounds on P(Z_n > 0 | env, Z_0 = 1).

    lower: 1 / (exp(-S_n) + sum eta_general_{i+1} exp(-S_i)), valid for any
    offspring laws.  upper: exp(min(0, S_1..S_n)).  For an all-LF environment
    the exact survival probability, the same expression with eta_lf, is
    returned as ``lf_exact`` from ``exact.survival_rows``.
    """
    s = env.walk
    try:
        s_exp = math.exp(-s[-1])
    except OverflowError:  # the lower bound is below the smallest double
        s_exp = math.inf
    # sum eta_lf_{i+1} exp(-S_i); eta_general = 2 eta_lf, and doubling is exact
    eta = np.array([law.eta_lf for law in env.laws])
    with np.errstate(over="ignore"):  # no inf * 0 where eta_lf = 0
        terms = np.multiply(eta, np.exp(-s[:-1]), out=np.zeros(env.n), where=eta > 0.0)
        h_lf = float(np.cumsum(terms)[-1]) if env.n >= 1 else 0.0
    lower = 1.0 / (s_exp + 2.0 * h_lf)
    upper = math.exp(min(0.0, float(np.min(s[1:])))) if env.n >= 1 else 1.0
    lf_exact = None
    if all(isinstance(law, LinearFractionalLaw) for law in env.laws):
        lf_exact = float(survival_rows(*env._indexed)[0])
    return SurvivalBounds(lower=lower, upper=upper, lf_exact=lf_exact)
