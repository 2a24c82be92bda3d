"""Batched kernels for truncated probability generating function series.

A series is a coefficient row ``c_0..c_D``; the ``*_rows`` kernels operate
on batches of shape (M, D+1), one series per row, truncated at the common
degree D.  They are the only series machinery in the package, shared by the
composition kernel ``exact.horizon_rows`` (extinction ladder, quenched rows,
importance sampling, MRCA spine lane) and the annealed enumerator.

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


def pow_rows(c: np.ndarray, z) -> np.ndarray:
    """Row-wise z-th power of truncated series; ``z`` is an int or one per row (>= 0)."""
    e = np.broadcast_to(np.asarray(z, dtype=np.int64), c.shape[:1]).copy()
    if np.any(e < 0):
        raise ContractError("negative power")
    out = np.zeros_like(c)
    out[:, 0] = 1.0
    unit = np.ones(e.shape, dtype=bool)  # rows of ``out`` still holding the unit series
    base = c
    while e.any():  # row r takes the multiplications of the scalar power e[r]
        bit = (e & 1) == 1
        # a row's first factor is copied, not multiplied into the unit series
        out = _mul_rows_where(bit & ~unit, out, base)
        out = _copy_rows_where(bit & unit, out, base)
        unit &= ~bit
        e >>= 1
        if e.any():  # only rows with bits left need the next square
            base = _mul_rows_where(e > 0, base, base)
    return out


def _mul_rows_where(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` with its rows in ``mask`` multiplied by those of ``b``; copies no row if all are in."""
    if mask.all():
        return mul_rows(a, b)
    if not mask.any():
        return a
    out = a.copy()
    out[mask] = mul_rows(a[mask], b[mask])
    return out


def _copy_rows_where(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` with its rows in ``mask`` replaced by copies of those of ``b``; writes into ``a``."""
    if mask.all():
        return b.copy()
    if mask.any():
        a[mask] = b[mask]
    return a


def apply_law_rows(law: OffspringLaw, c: np.ndarray) -> np.ndarray:
    """Rows of ``law.pgf(g(s))`` truncated at the row degree, exactly.

    Finite laws use a Horner scheme over the support; LF laws expand the
    rational form ``1 - u / (1/m + eta_lf u)`` with ``u = 1 - g`` through an
    exact reciprocal-series recurrence.
    """
    if isinstance(law, FiniteLaw):
        probs = law.probs
        out = np.zeros_like(c)
        out[:, 0] = probs[-1]
        for k in range(len(probs) - 2, -1, -1):
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
