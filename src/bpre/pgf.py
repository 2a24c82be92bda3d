"""Batched kernels for truncated probability generating function series.

A series is a coefficient row ``c_0..c_D``; the ``*_rows`` kernels operate
on batches of shape (M, D+1), one series per row, truncated at the common
degree D.  They are the only series machinery in the package, shared by the
series route of the composition kernel ``exact.horizon_rows`` (environment
rows that contain a finite law) and the annealed enumerator on models with
a finite state.  Environment rows whose laws are all linear fractional, and
the enumeration of all-LF models, take the closed form instead: they never
reach ``apply_law_rows`` and use only ``pow_rows`` (and so ``mul_rows``).

Composition is exact for the kept degrees: the coefficient of ``s^j`` in
``f(g(s))`` only depends on the coefficients of ``g`` up to degree ``j``, so
applying a law to a truncated row (finite support, or linear-fractional via
an exact reciprocal-series recurrence) loses no kept coefficient.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .laws import FiniteLaw, OffspringLaw

MAX_DEGREE = 1 << 14


def mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product of truncated series, truncated at the common degree."""
    m, width = a.shape
    out = np.zeros_like(a)
    for j in range(width):
        # out[:, j] = sum_{i<=j} a[:, i] * b[:, j-i]
        out[:, j] = np.einsum("mi,mi->m", a[:, : j + 1], b[:, j::-1])
    return out


def recip_rows(w: np.ndarray) -> np.ndarray:
    """Row-wise reciprocal series of w, requires w[:, 0] != 0."""
    m, width = w.shape
    out = np.zeros_like(w)
    inv0 = 1.0 / w[:, 0]
    out[:, 0] = inv0
    for k in range(1, width):
        acc = np.einsum("mi,mi->m", w[:, 1 : k + 1], out[:, k - 1 :: -1][:, :k])
        out[:, k] = -acc * inv0
    return out


def pow_rows(c: np.ndarray, z: int) -> np.ndarray:
    """Row-wise z-th power (z >= 0) of truncated series, by binary powering.

    The first factor is not multiplied into the unit series, so
    ``pow_rows(c, 1)`` is ``c`` itself: callers must not write into the result.
    """
    if z < 0:
        raise ContractError("negative power")
    out = None
    base = c
    while z:
        if z & 1:
            out = base if out is None else mul_rows(out, base)
        z >>= 1
        if z:
            base = mul_rows(base, base)
    if out is None:
        out = np.zeros_like(c)
        out[:, 0] = 1.0
    return out


def apply_law_rows(law: OffspringLaw, c: np.ndarray) -> np.ndarray:
    """Rows of ``law.pgf(g(s))`` truncated at the row degree, exactly.

    Finite laws use a Horner scheme over the support; LF laws expand the
    rational form ``1 - u / (1/m + eta_lf u)`` with ``u = 1 - g`` through an
    exact reciprocal-series recurrence.
    """
    if isinstance(law, FiniteLaw):
        probs = law.probs
        # the first Horner product multiplies the constant row [q_d, 0, ...]: it is q_d c
        out = probs[-1] * c if len(probs) > 1 else np.zeros_like(c)
        out[:, 0] += probs[-2] if len(probs) > 1 else probs[0]
        for k in range(len(probs) - 3, -1, -1):
            out = mul_rows(out, c)
            out[:, 0] += probs[k]
        return out
    u = -c
    u[:, 0] += 1.0
    w = law.eta_lf * u
    w[:, 0] += 1.0 / law.m
    res = -mul_rows(u, recip_rows(w))
    res[:, 0] += 1.0
    return res
