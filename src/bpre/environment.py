"""Finite-alphabet environment models and the associated random walk.

The environment draws an offspring law i.i.d. from a finite alphabet; the
walk increment of state ``a`` is ``x_a = log m_a``.  This module computes the
drift, exponential tilts ``w_a <- w_a exp(-nu x_a) / mu``, the critical tilt
solving ``E[X exp(-nu X)] = 0``, the lower-deviation rate value
``Lambda(0) = -log inf_{lambda>=0} E[exp(-lambda X)]``, and the sign-of-
``E[X exp(-X)]`` regime classification used by the linear-fractional closed
forms.
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
from .laws import PROB_TOL, OffspringLaw, law_from_json, law_to_json


class Regime(enum.Enum):
    STRONGLY = "strongly"
    INTERMEDIATE = "intermediate"
    WEAKLY = "weakly"


@dataclass(frozen=True)
class EnvironmentModel:
    """Distribution over offspring laws: ``states[a]`` drawn with ``weights[a]``."""

    states: tuple[OffspringLaw, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        states = tuple(self.states)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)
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

    @cached_property
    def x_values(self) -> tuple[float, ...]:
        return tuple(math.log(law.mean) for law in self.states)

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
    def cross_moment(self) -> float:
        """E[X exp(-X)], the quantity whose sign separates the LF regimes."""
        return self.tilted_cross_moment(1.0)

    @property
    def extinction_in_one_step(self) -> float:
        """P(Z_1 = 0 | Z_0 = 1)."""
        return float(np.dot(self._w, [law.p0 for law in self.states]))

    @property
    def is_lf_pure(self) -> bool:
        return all(not hasattr(law, "probs") for law in self.states)

    def sample_indices(self, rng: np.random.Generator, size) -> np.ndarray:
        """States drawn i.i.d. by inversion: one uniform u each, index #{a : cum_a <= u}.

        The count is formed by one comparison per state boundary, which gives
        the indices of ``searchsorted(cum, u, side="right")`` with the last
        boundary taken as 1: it lies above every u and is never compared.
        """
        u = rng.random(size)
        idx = np.zeros(u.shape, dtype=np.int64)
        for c in np.cumsum(self._w)[:-1]:
            idx += u >= c
        return idx

    def to_json(self) -> dict:
        return {
            "states": [law_to_json(law) for law in self.states],
            "weights": list(self.weights),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EnvironmentModel":
        if "states" not in obj or "weights" not in obj:
            raise ContractError("model JSON needs 'states' and 'weights'")
        return cls(tuple(law_from_json(s) for s in obj["states"]), tuple(obj["weights"]))

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


def _golden_minimize(f, lo: float, hi: float, tol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def rate_function_at_zero(model: EnvironmentModel, tol: float = 1e-10) -> RateFunctionAtZero:
    if model.drift <= 0.0:
        raise NotSupercriticalError("not supercritical: E[X] <= 0")
    x = model._x
    min_x = float(np.min(x))
    if min_x > 0.0:
        return RateFunctionAtZero(math.inf, math.inf, "no-small-value")
    if min_x == 0.0:
        mass_at_zero = float(np.sum(model._w[x == 0.0]))
        return RateFunctionAtZero(math.inf, -math.log(mass_at_zero), "boundary")
    g = model.tilted_moment
    hi = 1.0
    # expand until g starts increasing at the right edge (convexity)
    for _ in range(80):
        if model.tilted_cross_moment(hi) < 0.0:  # g'(hi) = -E[X e^{-hi X}] > 0
            break
        hi *= 2.0
    else:
        mass_near_zero = float(np.sum(model._w[np.abs(x) <= 1e-12]))
        if mass_near_zero > 0.0:
            return RateFunctionAtZero(math.inf, -math.log(mass_near_zero), "boundary")
        return RateFunctionAtZero(math.inf, math.inf, "no-small-value")
    lam = _golden_minimize(g, 0.0, hi, tol)
    return RateFunctionAtZero(lam, -math.log(g(lam)), "interior")


def tilt(model: EnvironmentModel, nu: float) -> tuple[EnvironmentModel, float]:
    """Reweight the environment by ``exp(-nu X) / mu``; returns (model, mu)."""
    factors = np.exp(-nu * model._x)
    mu = float(np.dot(model._w, factors))
    if not math.isfinite(mu) or mu <= 0.0:
        raise ContractError("tilt normalizer is not finite and positive")
    new_w = tuple(float(v) for v in model._w * factors / mu)
    return EnvironmentModel(model.states, new_w), mu


def solve_critical_tilt(model: EnvironmentModel, tol: float = 1e-12) -> float:
    """Solve E[X exp(-nu X)] = 0 by bisection; needs E[X] > 0 and P(X < 0) > 0."""
    if model.drift <= 0.0:
        raise NotSupercriticalError("critical tilt needs E[X] > 0")
    if float(np.min(model._x[model._w > 0.0])) >= 0.0:
        raise ContractError("no negative increments: critical tilt undefined")
    h = model.tilted_cross_moment
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if h(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ContractError("failed to bracket the critical tilt")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        val = h(mid)
        if abs(val) <= tol:
            return mid
        if val > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    mid = 0.5 * (lo + hi)
    if abs(h(mid)) > tol:
        raise ContractError("critical tilt bisection did not reach tolerance")
    return mid


def classify_regime(model: EnvironmentModel, tol: float = 1e-12) -> Regime:
    """Sign of E[X exp(-X)]: > tol strongly, < -tol weakly, else intermediate."""
    if model.drift <= 0.0:
        raise NotSupercriticalError("regime classification needs E[X] > 0")
    c = model.cross_moment
    if c > tol:
        return Regime.STRONGLY
    if c < -tol:
        return Regime.WEAKLY
    return Regime.INTERMEDIATE


def lattice_span(model: EnvironmentModel, tol: float = 1e-9) -> float | None:
    """Span r > 0 if all increments lie on r Z (diagnostic only), else None.

    A span of 0.0 means X = 0 almost surely.
    """
    xs = [x for x, w in zip(model.x_values, model.weights) if w > 0.0]
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
