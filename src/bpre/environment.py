"""Finite-alphabet environment models and the associated random walk.

The environment draws an offspring law i.i.d. from a finite alphabet; the
walk increment of state ``a`` is ``x_a = log m_a``.  A model keeps only its
states of positive weight, the law of the step X.  This module computes the
drift, exponential tilts ``w_a <- w_a exp(-nu x_a) / mu``, the lower-deviation
rate value ``Lambda(0) = -log inf_{lambda>=0} E[exp(-lambda X)]``, and the
sign-of-``E[X exp(-X)]`` regime classification used by the linear-fractional
closed forms.  The convex E[exp(-lambda X)] is least at the root lambda* of
E[X exp(-lambda X)] = 0, found once by ``solve_critical_tilt``: it is the
minimiser behind Lambda(0), and ``regime_tilt`` takes it as the tilt of the
weakly supercritical regime.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, NotSupercriticalError
from .laws import (
    PROB_TOL,
    LinearFractionalLaw,
    OffspringLaw,
    json_numbers,
    law_from_json,
    law_to_json,
    walk_increment,
)


class Regime(enum.Enum):
    STRONGLY = "strongly"
    INTERMEDIATE = "intermediate"
    WEAKLY = "weakly"


@dataclass(frozen=True)
class EnvironmentModel:
    """Distribution over offspring laws: ``states[a]`` drawn with ``weights[a]``.

    A state of weight <= 0 (within rounding) is validated, then dropped, so
    the kept states, in their order, are exactly the law of the step X.
    """

    states: tuple[OffspringLaw, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        states = tuple(self.states)
        weights = tuple(float(w) for w in self.weights)
        if len(states) < 1:
            raise ContractError("environment model needs at least one state")
        if len(states) != len(weights):
            raise ContractError("states and weights length mismatch")
        if not all(math.isfinite(w) for w in weights):
            raise ContractError("environment weights must be finite")
        if any(w < -PROB_TOL for w in weights):
            raise ContractError("negative environment weight")
        if abs(sum(weights) - 1.0) > PROB_TOL:
            raise ContractError(f"environment weights sum to {sum(weights)!r}, not 1")
        kept = [(law, w) for law, w in zip(states, weights) if w > 0.0]
        object.__setattr__(self, "states", tuple(law for law, _ in kept))
        object.__setattr__(self, "weights", tuple(w for _, w in kept))

    @cached_property
    def x_values(self) -> tuple[float, ...]:
        """Walk increments log m_a; a state with mean 0 has increment -inf."""
        return tuple(map(walk_increment, self.states))

    @cached_property
    def _w(self) -> np.ndarray:
        w = np.asarray(self.weights, dtype=float)
        w.flags.writeable = False
        return w

    @cached_property
    def _x(self) -> np.ndarray:
        x = np.asarray(self.x_values, dtype=float)
        x.flags.writeable = False
        return x

    @property
    def drift(self) -> float:
        return float(np.dot(self._w, self._x))

    def tilted_moment(self, lam: float) -> float:
        """E[exp(-lam X)]."""
        return float(np.dot(self._w, np.exp(-lam * self._x)))

    def tilted_cross_moment(self, lam: float) -> float:
        """E[X exp(-lam X)]."""
        return float(np.dot(self._w, self._x * np.exp(-lam * self._x)))

    @property
    def extinction_in_one_step(self) -> float:
        """P(Z_1 = 0 | Z_0 = 1)."""
        return float(np.dot(self._w, [law.p0 for law in self.states]))

    @property
    def assumption1_gamma(self) -> float:
        """Witness 1 - max q_a(0); Assumption 1 needs it > 0."""
        return 1.0 - max(law.p0 for law in self.states)

    @property
    def is_lf_pure(self) -> bool:
        """Whether every state is linear fractional."""
        return all(isinstance(law, LinearFractionalLaw) for law in self.states)

    @cached_property
    def _raw_bounds(self) -> tuple[np.uint64, ...]:
        """Each state boundary cum_a as a bound on raw 64-bit words: ceil(cum_a 2^53) << 11.

        A word w gives the double u = (w >> 11) 2^-53, so u >= cum_a exactly
        when w is at least the bound.  A boundary at or above 1 is never
        crossed and has no bound, as ceil(cum_a 2^53) << 11 fits no uint64.
        """
        tops = (math.ceil(c * 2.0**53) for c in np.cumsum(self._w)[:-1].tolist())
        return tuple(np.uint64(t << 11) for t in tops if t < 2**53)

    def sample_indices(self, rng: np.random.Generator, size) -> np.ndarray:
        """States drawn i.i.d. from ``size`` raw words of ``rng``'s bit generator.

        The index of each word is the ``state_indices`` of its double
        (w >> 11) 2^-53, the double ``rng.random`` makes of it with Philox and
        PCG64, so the indices are those of ``state_indices(rng.random(size))``
        bit for bit and the stream advances by the same words; the words are
        compared with integer bounds (``_raw_bounds``), and no double is
        formed.  The count runs in the smallest unsigned type that holds the
        number of states less one and is widened to int64 once.
        """
        words = rng.bit_generator.random_raw(size)
        count = np.zeros(words.shape, dtype=np.min_scalar_type(len(self._w) - 1))
        for bound in self._raw_bounds:
            count += (words >= bound).view(np.uint8)
        return count.astype(np.int64)

    def state_indices(self, u: np.ndarray) -> np.ndarray:
        """States by inversion of the uniforms u: index #{a : cum_a <= u} of each.

        The count is formed by one comparison per state boundary, which gives
        the indices of ``searchsorted(cum, u, side="right")`` with the last
        boundary taken as 1: it lies above every u and is never compared.
        The count runs in the smallest unsigned type that holds the number of
        states less one and is widened to int64 once.
        """
        count = np.zeros(u.shape, dtype=np.min_scalar_type(len(self._w) - 1))
        for c in np.cumsum(self._w)[:-1]:
            count += (u >= c).view(np.uint8)
        return count.astype(np.int64)

    def to_json(self) -> dict:
        return {
            "states": [law_to_json(law) for law in self.states],
            "weights": list(self.weights),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EnvironmentModel":
        if not isinstance(obj, dict):
            raise ContractError("model JSON must be an object with 'states' and 'weights'")
        if "states" not in obj or "weights" not in obj:
            raise ContractError("model JSON needs 'states' and 'weights'")
        if not isinstance(obj["states"], list):
            raise ContractError("model JSON 'states' must be a list of laws")
        states = tuple(law_from_json(s) for s in obj["states"])
        return cls(states, json_numbers(obj, "weights", many=True))

    @property
    def model_id(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class RateFunctionAtZero:
    """Minimizer and value of ``-log inf_{lambda>=0} E[exp(-lambda X)]``.

    ``flag`` is "interior" when the infimum is attained at finite lambda,
    "boundary" when it is only attained in the lambda -> infinity limit
    (then the value equals ``-log P(X = 0)``), and "no-small-value" when
    X > 0 a.s. so the infimum is 0 and the rate is infinite.
    """

    lambda_star: float
    value: float
    flag: str


def rate_function_at_zero(model: EnvironmentModel) -> RateFunctionAtZero:
    if model.drift <= 0.0:
        raise NotSupercriticalError("not supercritical: E[X] <= 0")
    min_x = float(np.min(model._x))
    if min_x > 0.0:
        return RateFunctionAtZero(math.inf, math.inf, "no-small-value")
    if min_x == 0.0:
        mass_at_zero = float(np.sum(model._w[model._x == 0.0]))
        return RateFunctionAtZero(math.inf, -math.log(mass_at_zero), "boundary")
    lam = solve_critical_tilt(model)
    return RateFunctionAtZero(lam, -math.log(model.tilted_moment(lam)), "interior")


def tilt(model: EnvironmentModel, nu: float) -> tuple[EnvironmentModel, float]:
    """Reweight the environment by ``exp(-nu X) / mu``; returns (model, mu).

    nu = 0 is the identity tilt, (model, 1.0), also where a state has mean
    0 (X = -inf, where 0 X is not a number).  An infinite or vanishing mu
    raises ContractError, with no NumPy warning.
    """
    if nu == 0.0:
        return model, 1.0
    with np.errstate(over="ignore", under="ignore"):
        factors = np.exp(-nu * model._x)
        mu = float(np.dot(model._w, factors))
    if not math.isfinite(mu) or mu <= 0.0:
        raise ContractError("tilt normalizer is not finite and positive")
    return EnvironmentModel(model.states, tuple((model._w * factors / mu).tolist())), mu


def solve_critical_tilt(model: EnvironmentModel) -> float:
    """The root of h(nu) = E[X exp(-nu X)]; needs E[X] > 0 and P(X < 0) > 0.

    h is decreasing, so the root is the minimiser of E[exp(-nu X)].  The
    bracket [0, 2^k] is bisected until h(mid) is finite and
    |h(mid)| <= 1e-14 E[|X| exp(-mid X)], a test that does not depend on the
    scale of X, or until no double lies strictly inside the bracket.
    """
    if model.drift <= 0.0:
        raise NotSupercriticalError("critical tilt needs E[X] > 0")
    w, x = model._w, model._x
    if float(np.min(x)) >= 0.0:
        raise ContractError("no negative increments: critical tilt undefined")
    h = model.tilted_cross_moment
    lo, hi = 0.0, 1.0
    with np.errstate(over="ignore"):  # h is -inf where exp(-nu X) overflows
        while h(hi) >= 0.0:
            hi *= 2.0
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return mid
            e = np.exp(-mid * x)
            val = float(np.dot(w, x * e))
            if math.isfinite(val) and abs(val) <= 1e-14 * float(np.dot(w, np.abs(x) * e)):
                return mid
            if val > 0.0:
                lo = mid
            else:
                hi = mid


def classify_regime(model: EnvironmentModel) -> Regime:
    """Sign of E[X exp(-X)]: > 1e-12 strongly, < -1e-12 weakly, else intermediate."""
    if model.drift <= 0.0:
        raise NotSupercriticalError("regime classification needs E[X] > 0")
    c = model.tilted_cross_moment(1.0)
    if c > 1e-12:
        return Regime.STRONGLY
    if c < -1e-12:
        return Regime.WEAKLY
    return Regime.INTERMEDIATE


def regime_tilt(model: EnvironmentModel) -> float:
    """lambda* if weakly supercritical, else 1: ``lf_rho`` is -log E[exp(-nu X)] at this nu."""
    return solve_critical_tilt(model) if classify_regime(model) is Regime.WEAKLY else 1.0


def lattice_span(model: EnvironmentModel) -> float | None:
    """Span r > 0 if all increments lie on r Z (diagnostic only), else None.

    A span of 0.0 means X = 0 almost surely; an increment -inf (mean 0) lies
    on no lattice.
    """
    tol = 1e-9  # increments and remainders below this count as 0
    xs = model.x_values
    if not all(map(math.isfinite, xs)):
        return None
    nonzero = [abs(x) for x in xs if abs(x) > tol]
    if not nonzero:
        return 0.0
    g = nonzero[0]
    for v in nonzero[1:]:
        a, b = max(g, v), min(g, v)
        while b > tol:
            a, b = b, a % b
        g = a
    if g <= tol:
        return None
    for x in nonzero:
        if abs(x / g - round(x / g)) > 1e-6:
            return None
    return g
