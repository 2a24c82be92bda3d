"""Closed-form quenched analytics for linear-fractional environments.

LF laws are stable under composition: given the environment, the law of Z_n
is again linear fractional,

    f_{0,n}(s) = 1 - p (1-s) / (a + r (1-s)),   p = P(Z_n > 0 | env),

where a = A/D and r = B/D are the bounded ratios of the suffix statistics
A = exp(-S_n), B = sum_{k=0}^{n-1} eta_{k+1} exp(-S_k) (eta = b m^{-2} / 2)
and D = A + B = 1/p.  ``LFQuenchedState`` holds (p, a, r), all in [0, 1],
from ``exact._lf_suffix``, the recursion of the closed-form route of
``exact.horizon_rows``.  So these functions agree with that kernel, and a
survival that a double can hold is kept at any horizon, where exp(-S_n)
itself would underflow or overflow.

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
from .exact import EnvSequence, _lf_layers, _lf_suffix
from .laws import LinearFractionalLaw, OffspringLaw
from .pgf import pow_rows


@dataclass(frozen=True)
class LFQuenchedState:
    """A composed LF law: its survival P(Z_n > 0 | env) and the ratios a = A/D, r = B/D."""

    survival: float
    a: float
    r: float

    def __post_init__(self):
        if not all(v >= 0.0 for v in (self.survival, self.a, self.r)):
            raise ContractError("invalid LF quenched state")

    @classmethod
    def from_law(cls, law: LinearFractionalLaw) -> "LFQuenchedState":
        return cls.from_env((law,))

    @classmethod
    def from_env(cls, env: EnvSequence | tuple[OffspringLaw, ...]) -> "LFQuenchedState":
        states, idx = (env if isinstance(env, EnvSequence) else EnvSequence(env))._indexed
        if not all(isinstance(law, LinearFractionalLaw) for law in states):
            raise ContractError("closed form requires LF")
        return cls(*(float(v[0, 0]) for v in _lf_suffix(states, idx, 2, False)))

    @property
    def s_exp(self) -> float:
        """exp(-S_n) = A; inf where D = 1/survival overflows."""
        return self.a / self.survival if self.survival else math.inf

    @property
    def eta_sum(self) -> float:
        """sum_k eta_{k+1} exp(-S_k) = B; inf where D = 1/survival overflows."""
        return self.r / self.survival if self.survival else math.inf


def lf_fgen(state: LFQuenchedState, s: float) -> float:
    """f_{0,n}(s); at s = 0 this is the quenched extinction probability."""
    u = 1.0 - s
    return 1.0 - state.survival * u / (state.a + state.r * u) if u else 1.0


def lf_derivative(state: LFQuenchedState, s: float) -> float:
    """f_{0,n}'(s); at s = 1 equals exp(S_n), the quenched mean (inf where it overflows)."""
    denom = state.a + (1.0 - s) * state.r
    return state.survival * state.a / denom / denom if denom else math.inf


def lf_composed_law(state: LFQuenchedState) -> LinearFractionalLaw:
    """The law of Z_n given the environment, itself linear fractional."""
    m = 1.0 / state.s_exp if state.a else math.inf
    b = 2.0 * state.eta_sum * m * m
    if not (0.0 < m < math.inf and b < math.inf):
        raise ContractError(f"composed LF law (m, b) = ({m}, {b}) is not representable")
    return LinearFractionalLaw(m=m, b=b)


def lf_quenched_pmf(state: LFQuenchedState, z0: int, j: int) -> float:
    """Exact P(Z_n = j | env, Z_0 = z0) from the kernel's closed-form row."""
    if z0 < 1:
        raise ContractError("initial size must be >= 1")
    if j < 0:
        raise ContractError("population size must be >= 0")
    row = _lf_layers(*(np.array([[v]]) for v in (state.survival, state.a, state.r)), j + 1)[0]
    return float(pow_rows(row, z0)[0, j])


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
    the exact survival probability, the same expression with eta_lf, is
    returned as ``lf_exact`` from ``LFQuenchedState``.
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
        lf_exact = LFQuenchedState.from_env(env).survival
    return SurvivalBounds(lower=lower, upper=upper, lf_exact=lf_exact)
