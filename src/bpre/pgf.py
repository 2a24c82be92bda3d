"""Batched kernels for truncated probability generating function series.

A series is a coefficient row ``c_0..c_D``; the ``*_rows`` kernels operate
on batches of shape (M, D+1), one series per row, truncated at the common
degree D: the product ``mul_rows``, the square ``sqr_rows`` (half the
multiply-adds, by symmetry), ``recip_rows``, ``pow_rows`` and the law
application ``apply_law_rows``.  They are the only series machinery in the
package, shared by the series route of the composition kernel
``exact.horizon_rows`` (environment rows that contain a finite law) and the
annealed enumerator on models with a finite state.  The enumerator applies
each law by ``apply_law_rows`` on narrow rows; on wide rows, where two
finite states of degree 2 or more share its products, it expands each node
once through a ladder of powers of the node's block (``exact._power_ladder``:
``sqr_rows``, then ``mul_rows``), and only its LF states reach
``apply_law_rows``.  Environment rows whose laws are all linear fractional,
and the enumeration of all-LF models, take the closed form instead: they
never reach ``apply_law_rows`` and use only ``pow_rows`` (and so
``mul_rows``).

Composition is exact for the kept degrees: the coefficient of ``s^j`` in
``f(g(s))`` only depends on the coefficients of ``g`` up to degree ``j``, so
applying a law to a truncated row (finite support, or linear-fractional via
an exact reciprocal-series recurrence) loses no kept coefficient.

Layout: the kernels take rows in any memory order and give the same bits
in each (the tests check this bit for bit); a result keeps the order of its
input.  Column-major (Fortran) rows are fastest, because each coefficient
column is then one contiguous vector; the annealed enumerator keeps its
series blocks that way.

``mul_rows``, ``sqr_rows`` and ``apply_law_rows`` take an optional ``out``
array, which must share no memory with their inputs: the result is written
there with the same arithmetic, so a caller that keeps one buffer per use
(the depth-first descent of the annealed enumerator) allocates no result
array per call.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .laws import FiniteLaw, OffspringLaw

MAX_DEGREE = 1 << 14


def mul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise product of truncated series, truncated at the common degree.

    With ``out`` (shaped like ``a``, sharing no memory with ``a`` or ``b``)
    the product is written there and returned; the values are the same.
    """
    m, width = a.shape
    out = np.empty_like(a) if out is None else out
    for j in range(width):
        # out[:, j] = sum_{i<=j} a[:, i] * b[:, j-i]
        np.einsum("mi,mi->m", a[:, : j + 1], b[:, j::-1], out=out[:, j])
    return out


def sqr_rows(c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise square of truncated series, with half the multiply-adds of ``mul_rows(c, c)``.

    By symmetry [s^j] c^2 = 2 sum_{i<j/2} c_i c_{j-i} + [j even] c_{j/2}^2:
    each column sums the products below the middle once, doubles the sum
    (exactly) and adds the square of the middle coefficient.  The terms are
    summed in another order than by ``mul_rows``, so the last bits may
    differ from it.  ``out`` is as for ``mul_rows``; no block-sized
    temporary is made.
    """
    m, width = c.shape
    out = np.empty_like(c) if out is None else out
    np.multiply(c[:, 0], c[:, 0], out=out[:, 0])
    for j in range(1, width):
        h = (j + 1) // 2  # the pairs i < j - i
        col = out[:, j]
        np.einsum("mi,mi->m", c[:, :h], c[:, j : j - h : -1], out=col)
        col += col
        if not j % 2:
            col += c[:, j // 2] * c[:, j // 2]
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


def apply_law_rows(law: OffspringLaw, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows of ``law.pgf(g(s))`` truncated at the row degree, exactly.

    Finite laws use a Horner scheme over the support; LF laws expand the
    rational form ``1 - u / (1/m + eta_lf u)`` with ``u = 1 - g`` through an
    exact reciprocal-series recurrence.  With ``out`` (shaped like ``c``,
    sharing no memory with it) the rows are written there and returned, with
    the same values; the kernel's own temporaries are still allocated (one
    Horner row block for a finite law of degree 2 or more; u, w and its
    reciprocal for an LF law).
    """
    out = np.empty_like(c) if out is None else out
    if isinstance(law, FiniteLaw):
        probs = law.probs
        # the Horner products alternate between out and one temporary,
        # starting where the last of them lands in out
        muls = max(len(probs) - 2, 0)
        spare = np.empty_like(c) if muls else None
        acc, spare = (spare, out) if muls % 2 else (out, spare)
        # the first Horner product multiplies the constant row [q_d, 0, ...]: it is q_d c
        if len(probs) > 1:
            np.multiply(probs[-1], c, out=acc)
        else:
            acc.fill(0.0)
        acc[:, 0] += probs[-2] if len(probs) > 1 else probs[0]
        for k in range(len(probs) - 3, -1, -1):
            acc, spare = mul_rows(acc, c, out=spare), acc
            acc[:, 0] += probs[k]
        return acc
    u = -c
    u[:, 0] += 1.0
    w = law.eta_lf * u
    w[:, 0] += 1.0 / law.m
    mul_rows(u, recip_rows(w), out=out)
    np.negative(out, out=out)
    out[:, 0] += 1.0
    return out
