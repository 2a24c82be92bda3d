"""Ready-made environment models used by experiments and tests.

The three canonical LF models are deliberately gentle (small |X|) so that
conditioned small-value events stay affordable at desk scale while the
regime classification is unambiguous:

  * strongly:      X in {0.3 (w=0.8), -0.2 (w=0.2)},  E[X e^-X] > 0
  * weakly:        X in {log 2 (w=2/3), -log 2 (w=1/3)},  E[X e^-X] < 0
  * intermediate:  X in {c, -c} with w = e^{2c}/(1+e^{2c}), E[X e^-X] = 0

All LF states use b = 2 m^2 (plain geometric laws), which keeps q(0) > 0.
"""

from __future__ import annotations

import math

import numpy as np

from .environment import EnvironmentModel
from .errors import ContractError
from .laws import FiniteLaw, LinearFractionalLaw


def geometric_lf(x: float) -> LinearFractionalLaw:
    """LF law with walk increment x and geometric offspring weights."""
    m = math.exp(x)
    return LinearFractionalLaw(m=m, b=2.0 * m * m)


def gw_binary(p0: float = 0.25) -> EnvironmentModel:
    """Single-state Galton-Watson model with offspring in {0, 2}."""
    return EnvironmentModel((FiniteLaw((p0, 0.0, 1.0 - p0)),), (1.0,))


def example1_model(r: float, p: float) -> EnvironmentModel:
    """Two states: deterministic single offspring (weight r) and {0: p, 2: 1-p}."""
    if not (0.0 < r < 1.0 and 0.0 < p < 1.0):
        raise ContractError("r and p must lie in (0, 1)")
    q1 = FiniteLaw((0.0, 1.0))
    q2 = FiniteLaw((p, 0.0, 1.0 - p))
    return EnvironmentModel((q1, q2), (r, 1.0 - r))


def example2_model(r: float, p: float, a: int) -> EnvironmentModel:
    """Two states: {1: p, a: 1-p} (weight r) and {0: p, 2: p, a: 1-2p}."""
    if not (0.0 < r < 1.0):
        raise ContractError("r must lie in (0, 1)")
    if not (0.0 < p < 0.5):
        raise ContractError("p must lie in (0, 1/2)")
    if a <= 2:
        raise ContractError("a must exceed 2")
    probs1 = [0.0] * (a + 1)
    probs1[1] = p
    probs1[a] = 1.0 - p
    probs2 = [0.0] * (a + 1)
    probs2[0] = p
    probs2[2] = p
    probs2[a] = 1.0 - 2.0 * p
    return EnvironmentModel((FiniteLaw(tuple(probs1)), FiniteLaw(tuple(probs2))), (r, 1.0 - r))


def strongly_model() -> EnvironmentModel:
    return EnvironmentModel((geometric_lf(0.3), geometric_lf(-0.2)), (0.8, 0.2))


def weakly_model() -> EnvironmentModel:
    return EnvironmentModel(
        (LinearFractionalLaw(m=2.0, b=8.0), LinearFractionalLaw(m=0.5, b=0.5)),
        (2.0 / 3.0, 1.0 / 3.0),
    )


def intermediate_model(c: float = 0.3) -> EnvironmentModel:
    w = math.exp(2.0 * c) / (1.0 + math.exp(2.0 * c))
    return EnvironmentModel((geometric_lf(c), geometric_lf(-c)), (w, 1.0 - w))


def weakly_mrca_model() -> EnvironmentModel:
    """Weakly supercritical model with deep excursions.

    X = +-1 with weights (0.6, 0.4): conditioned on a small positive
    horizon population, the walk looks like an excursion and both MRCA
    endpoint bins carry visible mass at desk-scale horizons.
    """
    return EnvironmentModel((geometric_lf(1.0), geometric_lf(-1.0)), (0.6, 0.4))


def weakly_slope_model() -> EnvironmentModel:
    """Weakly supercritical model tuned for subadditive slope estimates.

    In the weak regime the small-value probability carries an n^(-3/2)
    prefactor, which biases (a_2m - a_m)/m upward by about 1.5 log(2) / m.
    With X = +-0.9 and weight 0.84 on the up state the finite-n transient
    keeps (a_22 - a_11)/11 within 0.06 of the closed-form rate while the
    classification stays unambiguously weak.
    """
    return EnvironmentModel((geometric_lf(0.9), geometric_lf(-0.9)), (0.84, 0.16))


def random_supercritical_lf_model(rng: np.random.Generator) -> EnvironmentModel:
    """Random two-state LF model with E[X] > 0 and P(Z_1 = 0) > 0."""
    while True:
        x1 = rng.uniform(0.05, 0.8)
        x2 = rng.uniform(-0.8, -0.05)
        w1 = rng.uniform(0.05, 0.95)
        model = EnvironmentModel(
            (geometric_lf(x1), geometric_lf(x2)), (w1, 1.0 - w1)
        )
        if model.drift > 1e-3:
            return model
