"""Linear-fractional decay rate ``lf_rho``.

LF laws are stable under composition: given the environment, the law of Z_n
is again linear fractional,

    f_{0,n}(s) = 1 - p (1-s) / (a + r (1-s)),   p = P(Z_n > 0 | env),

where a = A/D and r = B/D are the bounded ratios of the suffix statistics
A = exp(-S_n), B = sum_{k=0}^{n-1} eta_{k+1} exp(-S_k) (eta = ``eta_lf`` =
b m^{-2} / 2) and D = A + B = 1/p.  The quenched closed forms live in
``exact``, whose ``_lf_suffix`` carries (p, a, r), all in [0, 1], for the
closed-form route of ``horizon_rows`` and ``survival_rows``; a survival that
a double can hold is kept at any horizon, where exp(-S_n) itself would
underflow or overflow.  This module holds the rate built on top of them: the
two-regime rate of P(Z_n = j) for an LF environment model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .environment import EnvironmentModel, Regime, classify_regime, rate_function_at_zero, regime_tilt
from .errors import ContractError


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
