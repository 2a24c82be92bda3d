"""Closed-form quenched analytics for linear-fractional environments.

LF laws are stable under composition: the generating function of Z_n given
the environment is again linear fractional, with sufficient statistics

    s_exp   = exp(-S_n),
    eta_sum = sum_{k=0}^{n-1} eta_{k+1} exp(-S_k),   eta = b m^{-2} / 2,

so that f_{0,n}(s) = 1 - (1-s) / (s_exp + (1-s) eta_sum).  The pair forms a
semigroup under environment concatenation, which is what makes single-pass
folds and O(1) per-generation updates possible.

Conventions: the composed-law formulas here use ``eta_lf = b/(2 m^2)``.  The
general survival lower bound uses ``eta_general = b/m^2``; for LF laws the
eta_lf expression is an exact identity while the eta_general expression
remains a strict lower bound, and both are exposed side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import EnvironmentModel, Regime, classify_regime, rate_function_at_zero
from .errors import ContractError
from .exact import EnvSequence
from .laws import LinearFractionalLaw, OffspringLaw
from .pgf import pow_rows


@dataclass(frozen=True)
class LFQuenchedState:
    """Sufficient statistics (exp(-S_n), eta accumulator) of a composed LF law."""

    s_exp: float
    eta_sum: float

    def __post_init__(self):
        if not (self.s_exp > 0.0 and self.eta_sum >= 0.0):
            raise ContractError("invalid LF quenched state")

    @classmethod
    def identity(cls) -> "LFQuenchedState":
        return cls(1.0, 0.0)

    @classmethod
    def from_law(cls, law: LinearFractionalLaw) -> "LFQuenchedState":
        return cls(1.0 / law.m, law.eta_lf)

    @classmethod
    def from_env(cls, env: EnvSequence | tuple[OffspringLaw, ...]) -> "LFQuenchedState":
        laws = env.laws if isinstance(env, EnvSequence) else tuple(env)
        state = cls.identity()
        for law in laws:
            state = state.extend(law)
        return state

    def extend(self, law: OffspringLaw) -> "LFQuenchedState":
        """Append one more generation at the end of the environment."""
        if not isinstance(law, LinearFractionalLaw):
            raise ContractError("closed form requires LF")
        return LFQuenchedState(
            s_exp=self.s_exp / law.m,
            eta_sum=self.eta_sum + law.eta_lf * self.s_exp,
        )

    def combine(self, other: "LFQuenchedState") -> "LFQuenchedState":
        """Concatenate environments: self first, then other."""
        return LFQuenchedState(
            s_exp=self.s_exp * other.s_exp,
            eta_sum=self.eta_sum + self.s_exp * other.eta_sum,
        )


def lf_fgen(state: LFQuenchedState, s: float) -> float:
    """f_{0,n}(s); at s = 0 this is the quenched extinction probability."""
    u = 1.0 - s
    return 1.0 - u / (state.s_exp + u * state.eta_sum)


def lf_derivative(state: LFQuenchedState, s: float) -> float:
    """f_{0,n}'(s); at s = 1 equals exp(S_n), the quenched mean."""
    denom = state.s_exp + (1.0 - s) * state.eta_sum
    return state.s_exp / (denom * denom)


def lf_composed_law(state: LFQuenchedState) -> LinearFractionalLaw:
    """The law of Z_n given the environment, itself linear fractional."""
    m = 1.0 / state.s_exp
    b = 2.0 * state.eta_sum * m * m
    return LinearFractionalLaw(m=m, b=b)


def lf_quenched_pmf(state: LFQuenchedState, z0: int, j: int) -> float:
    """Exact P(Z_n = j | env, Z_0 = z0) from the composed geometric law."""
    if z0 < 1:
        raise ContractError("initial size must be >= 1")
    law = lf_composed_law(state)
    if z0 == 1:
        return law.prob(j)
    row = law.coefficients(j)[None, :]
    return float(pow_rows(row, z0)[0][j])


@dataclass(frozen=True)
class LFRho:
    rho: float
    regime: Regime


def lf_rho(model: EnvironmentModel, tol: float = 1e-12) -> LFRho:
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
    regime = classify_regime(model, tol)
    gamma = model.tilted_moment(1.0)
    if regime is Regime.WEAKLY:
        return LFRho(rho=rate_function_at_zero(model).value, regime=regime)
    rho = -math.log(gamma)
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
    the same expression with eta_lf is the exact survival probability and is
    returned as ``lf_exact``.
    """
    s = env.walk
    s_exp = math.exp(-s[-1])
    # sum eta_lf_{i+1} exp(-S_i); eta_general = 2 eta_lf, and doubling is exact
    terms = np.array([law.eta_lf for law in env.laws]) * np.exp(-s[:-1])
    h_lf = float(np.cumsum(terms)[-1]) if env.n >= 1 else 0.0
    lower = 1.0 / (s_exp + 2.0 * h_lf)
    upper = math.exp(min(0.0, float(np.min(s[1:])))) if env.n >= 1 else 1.0
    lf_exact = None
    if all(isinstance(law, LinearFractionalLaw) for law in env.laws):
        lf_exact = 1.0 / (s_exp + h_lf)
    return SurvivalBounds(lower=lower, upper=upper, lf_exact=lf_exact)
