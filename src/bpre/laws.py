"""Offspring reproduction laws: finite-support vectors and linear-fractional laws.

A linear-fractional (LF) law with mean ``m`` and second factorial moment ``b``
has pgf ``f(s) = 1 - (1-s) / (1/m + (b / (2 m^2)) (1-s))``.  It is a geometric
law on {1, 2, ...} with ratio ``c = b / (2m + b)`` plus a free atom at zero,

    q(0) = 1 - 2 m^2 / (2m + b),        q(k) = (1 - q0) (1 - c) c^(k-1),

which requires ``b >= 2 m (m - 1)`` for q(0) >= 0.  Every LF closed form
reads the standardized second moment ``eta_lf = b / (2 m^2)``; the general
``b / m^2`` of survival bounds for arbitrary laws is twice it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import ContractError, DegenerateLawError

PROB_TOL = 1e-12


@dataclass(frozen=True)
class FiniteLaw:
    """Offspring law with finite support, ``probs[k] = q(k)``."""

    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) == 0:
            raise ContractError("finite law needs at least one probability")
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if not all(math.isfinite(p) for p in probs):
            raise ContractError("offspring probabilities must be finite")
        if any(p < -PROB_TOL for p in probs):
            raise ContractError("negative offspring probability")
        if abs(sum(probs) - 1.0) > PROB_TOL:
            raise ContractError(f"offspring probabilities sum to {sum(probs)!r}, not 1")

    @cached_property
    def _arr(self) -> np.ndarray:
        a = np.asarray(self.probs, dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def _cum(self) -> np.ndarray:
        c = np.cumsum(self._arr)
        c[-1] = 1.0
        c.flags.writeable = False
        return c

    @property
    def max_support(self) -> int:
        nz = np.nonzero(self._arr)[0]
        return int(nz[-1]) if nz.size else 0

    @property
    def mean(self) -> float:
        k = np.arange(len(self.probs))
        return float(np.dot(k, self._arr))

    @property
    def second_factorial_moment(self) -> float:
        k = np.arange(len(self.probs))
        return float(np.dot(k * (k - 1), self._arr))

    @property
    def p0(self) -> float:
        return self.probs[0]

    def prob(self, k: int) -> float:
        return self.probs[k] if 0 <= k < len(self.probs) else 0.0

    @property
    def eta_lf(self) -> float:
        m = self.mean
        if m <= 0.0:
            raise DegenerateLawError("degenerate law: zero mean")
        return 0.5 * (self.second_factorial_moment / (m * m))

    def pgf(self, s):
        return _horner(self.probs, s)

    def pgf_prime(self, s, out=None):
        return _horner([k * p for k, p in enumerate(self.probs)][1:], s, out)

    def support(self, cap: int) -> tuple[frozenset[int], bool]:
        vals = frozenset(int(k) for k in np.nonzero(self._arr)[0] if k <= cap)
        unbounded_past_cap = any(k > cap for k in np.nonzero(self._arr)[0])
        return vals, unbounded_past_cap

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        return np.searchsorted(self._cum, u, side="right").astype(np.int64)


@dataclass(frozen=True)
class LinearFractionalLaw:
    """LF offspring law parameterized by mean ``m`` and f''(1) ``b``."""

    m: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.m) and math.isfinite(self.b)):
            raise ContractError("LF law needs finite m and b")
        if not self.m > 0.0:
            raise ContractError("LF law needs mean m > 0")
        if self.b < 0.0:
            raise ContractError("LF law needs b >= 0")
        if self.b < 2.0 * self.m * (self.m - 1.0) - PROB_TOL:
            raise ContractError("LF law invalid: q(0) < 0; needs b >= 2 m (m-1)")

    @property
    def mean(self) -> float:
        return self.m

    @property
    def second_factorial_moment(self) -> float:
        return self.b

    @property
    def p0(self) -> float:
        return max(0.0, 1.0 - 2.0 * self.m * self.m / (2.0 * self.m + self.b))

    @property
    def ratio(self) -> float:
        """Geometric ratio of the weights on {1, 2, ...}."""
        return self.b / (2.0 * self.m + self.b)

    @property
    def eta_lf(self) -> float:
        return 0.5 * self.b / (self.m * self.m)

    def prob(self, k: int) -> float:
        if k < 0:
            return 0.0
        if k == 0:
            return self.p0
        return (1.0 - self.p0) * (1.0 - self.ratio) * self.ratio ** (k - 1)

    def pgf(self, s):
        u = 1.0 - s
        return 1.0 - u / (1.0 / self.m + self.eta_lf * u)

    def pgf_prime(self, s, out=None):
        a = 1.0 / self.m
        d = a / (a + self.eta_lf * (1.0 - s)) ** 2
        if out is None:
            return d
        out[...] = d
        return out

    def support(self, cap: int) -> tuple[frozenset[int], bool]:
        vals = {0} if self.p0 > 0.0 else set()
        if self.ratio > 0.0:
            vals |= set(range(1, cap + 1))
            return frozenset(vals), True
        vals.add(1)
        return frozenset(vals), False

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        if self.ratio > 0.0:
            tail = rng.geometric(1.0 - self.ratio, size)
        else:
            tail = np.ones(size, dtype=np.int64)
        return np.where(u < self.p0, 0, tail).astype(np.int64)


OffspringLaw = Union[FiniteLaw, LinearFractionalLaw]


def _horner(coeffs, s, out=None):
    """sum_k coeffs[k] s^k by Horner's scheme, starting from 0.

    An array s (of at least one dimension), or any s given a result array
    ``out``, gets one result array, updated in place with the same
    arithmetic and bits as the scalar steps ``out = out * s + c``; a scalar
    s gets the scalar steps themselves.
    """
    if out is None and not (isinstance(s, np.ndarray) and s.ndim):
        out = 0.0
        for c in reversed(coeffs):
            out = out * s + c
        return out
    out = np.multiply(s, 0.0, out=out)
    for i, c in enumerate(reversed(coeffs)):
        if i:
            out *= s
        out += c
    return out


def walk_increment(law: OffspringLaw) -> float:
    """Random-walk step log m of a law; a law of mean 0 steps to -inf."""
    m = law.mean
    return math.log(m) if m > 0.0 else -math.inf


def law_from_json(obj: dict) -> OffspringLaw:
    if not isinstance(obj, dict):
        raise ContractError("each entry of model JSON 'states' must be an object")
    kind = obj.get("type")
    if kind == "finite":
        return FiniteLaw(json_numbers(obj, "probs", many=True))
    if kind == "lf":
        return LinearFractionalLaw(json_numbers(obj, "m"), json_numbers(obj, "b"))
    raise ContractError(f"unknown offspring law type {kind!r}")


def json_numbers(obj: dict, key: str, many: bool = False):
    """Field ``key`` of a model JSON object as a float, or with ``many`` a tuple of floats.

    A missing field, a value that is not a JSON number (an int or a float
    within the float range, never a bool or a string), or with ``many`` a
    field that is not a JSON list, raises ContractError naming the field.
    """
    if key not in obj:
        raise ContractError(f"model JSON needs {key!r}")
    values = obj[key] if many else [obj[key]]
    if isinstance(values, list) and not any(isinstance(v, (bool, str)) for v in values):
        with contextlib.suppress(TypeError, OverflowError):  # null, a list or an object; a huge int
            numbers = tuple(map(float, values))
            return numbers if many else numbers[0]
    kind = "a list of numbers" if many else "a number"
    raise ContractError(f"model JSON {key!r} must be {kind}")


def law_to_json(law: OffspringLaw) -> dict:
    if isinstance(law, FiniteLaw):
        return {"type": "finite", "probs": list(law.probs)}
    return {"type": "lf", "m": law.m, "b": law.b}
