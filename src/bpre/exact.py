"""Exact quenched and annealed probabilities for finite-alphabet environments.

Quenched quantities condition on a fixed environment sequence (q_1..q_n);
annealed ones average over all |A|^n sequences by enumeration.

One batched kernel, ``horizon_rows``, composes a block of environments into
the rows of f_{k,n} = f_{k+1} o ... o f_n truncated at a common degree; its
column 0 is the extinction ladder t_k = f_{k,n}(0).  It serves the ladder of
an ``EnvSequence`` (at width 1), ``quenched_coeff_row``, importance sampling
and ``mrca_rows``, the exact quenched MRCA law.  It has two routes, chosen
per environment row: a row whose laws are all linear fractional is itself
LF at every k and takes the closed form, O(n + width) per row, from the
bounded suffix statistics of ``_lf_suffix``, the one LF recursion of the
package (a survival below 2^-512 is carried with an exponent, so no
horizon underflows it); any other row takes the series route, one
``pgf.apply_law_rows`` per generation, O(n width^2) per row (at width 1 a
finite law is just its pgf on the ladder).  Both routes gather a
generation's laws one column of the block at a time, and a model whose
states are all LF, or all not, takes one route with no per-cell route
mask, so without layers ``horizon_rows`` builds no (b, n) array besides
the drawn indices.
``mrca_rows`` and ``survival_rows`` (P(Z_n > 0 | env), which the MRCA
sampler thins on and ``quenched_survival`` reads) choose the same two
routes per row.  ``mrca_rows`` returns the MRCA law as tail masses A_g,
the form both routes compute, and forms no differences.  An all-LF row
reads its A_g straight off the ``_lf_suffix`` statistics, with no
derivative and no product over generations, and its survival is the
statistic p itself, kept however small.  One log-derivative helper forms
the products prod f_k'(t_k) of the series rows of ``mrca_rows``, of
``phi_n`` and of the subtree identity.

The annealed enumerator (``_annealed_rows``) composes from the innermost
generation outward: a shared breadth-first block, then the outermost
generations depth-first, in one sweep that reports every horizon up to the
deepest requested one (the Fekete table needs n = 1..n_max, the example
suites every n of their tables).  A model whose enumerated states are all
LF carries the closed-form statistics of each environment, one step of the
same LF recursion per generation, only those a row of the requested width
reads, and builds coefficient rows only at requested horizons; any other
model carries series rows, column-major, with breadth-first blocks only
as wide as their degree can reach.  The depth-first descent writes every
child block, weight vector and coefficient chunk into buffers made once
per call, one set per generation, through the ``out`` arguments of
``_lf_step``, ``_lf_layers``, ``pgf.apply_law_rows`` and ``pgf.mul_rows``,
with unchanged arithmetic.  Partial sums are combined in a fixed order.

The reachability closure behind z0 works on Python-int bitmasks: bit k of a
mask marks size k, and the sizes reachable from z in one generation are the
z-fold sumset of a state's support, built once per distinct support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .environment import EnvironmentModel
from .errors import BudgetError, ContractError, TruncationError
from .laws import FiniteLaw, LinearFractionalLaw, OffspringLaw, walk_increment
from .pgf import MAX_DEGREE, apply_law_rows, pow_rows

ENUMERATION_BUDGET = 1 << 26
_BLOCK_CELLS = 1 << 17
_TINY = 2.0**-512  # LF survival below this is carried as a mantissa and a power of 2^-512


@dataclass(frozen=True)
class EnvSequence:
    """A realized environment (q_1, ..., q_n) with its walk prefix sums."""

    laws: tuple[OffspringLaw, ...]

    def __post_init__(self):
        object.__setattr__(self, "laws", tuple(self.laws))

    @property
    def n(self) -> int:
        return len(self.laws)

    @classmethod
    def from_indices(cls, model: EnvironmentModel, indices) -> "EnvSequence":
        return cls(tuple(model.states[int(i)] for i in indices))

    @cached_property
    def walk(self) -> np.ndarray:
        """S_0..S_n with S_k - S_{k-1} = log mean of q_k."""
        s = np.zeros(self.n + 1)
        s[1:] = np.cumsum([walk_increment(law) for law in self.laws])
        s.flags.writeable = False
        return s

    @cached_property
    def _indexed(self) -> tuple[tuple[OffspringLaw, ...], np.ndarray]:
        """The sequence as ``horizon_rows`` input: its distinct laws and a (1, n) index row."""
        index: dict[OffspringLaw, int] = {}
        row = [index.setdefault(law, len(index)) for law in self.laws]
        idx = np.array(row, dtype=np.int64).reshape(1, self.n)
        idx.flags.writeable = False
        return tuple(index), idx

    @cached_property
    def _ladder(self) -> np.ndarray:
        t = horizon_rows(*self._indexed, 1, layers=True)[:, 0, 0]
        t.flags.writeable = False
        return t

    def extinction_ladder(self) -> np.ndarray:
        """t_k = f_{k,n}(0) = P(Z_n = 0 | Z_k = 1, env) for k = 0..n.

        Computed once per sequence; every call returns the same read-only array.
        """
        return self._ladder


def horizon_rows(
    states: tuple[OffspringLaw, ...], idx: np.ndarray, width: int, *, layers: bool = False
) -> np.ndarray:
    """Rows (b, width) of f_{0,n} for each environment row of idx, truncated at s^(width-1).

    ``idx[r, g]`` indexes ``states`` for generation g+1.  With ``layers`` the
    result is (n+1, b, width), layer k holding f_{k,n}.  Column 0 is the
    extinction ladder, the same arithmetic at every width.

    The route is chosen per row, so a row gets the same arithmetic in any
    block: a row whose laws are all LF takes the closed form (``_lf_suffix``,
    then ``_lf_layers``), any other row the series route (``_series_layers``).
    """
    f = _by_route(
        states,
        idx,
        lambda sub: _lf_layers(*_lf_suffix(states, sub, width, layers), width),
        lambda sub: _series_layers(states, sub, width, layers),
    )
    return f if layers else f[0]


def survival_rows(states: tuple[OffspringLaw, ...], idx: np.ndarray) -> np.ndarray:
    """P(Z_n > 0 | env, Z_0 = 1) for each environment row of idx, shape (b,).

    An all-LF row gives the survival p of ``_lf_suffix`` itself, which keeps
    its value however small; any other row gives 1 - t_0 from the width-1
    series route, which is 0 once t_0 rounds to 1.
    """
    return _by_route(
        states,
        idx,
        lambda sub: _lf_suffix(states, sub, 1, False)[0],
        lambda sub: 1.0 - _series_layers(states, sub, 1, False)[..., 0],
    )[0]


def _by_route(states: tuple[OffspringLaw, ...], idx: np.ndarray, closed, series) -> np.ndarray:
    """``closed`` on the environment rows of idx whose laws are all LF, ``series`` on the rest.

    Both return arrays with the environment row on axis 1, which are merged
    in row order; a block of one route is passed whole.  The route is read
    off ``states`` first: where every state is LF, or none is, the whole
    block takes one route and no per-cell mask is built.
    """
    is_lf = np.array([isinstance(law, LinearFractionalLaw) for law in states], dtype=bool)
    if is_lf.all():
        return closed(idx)
    if not is_lf.any():
        return series(idx)
    lf = is_lf[idx].all(axis=1)
    if lf.all():
        return closed(idx)
    if not lf.any():
        return series(idx)
    part = closed(idx[lf])
    out = np.empty(part.shape[:1] + (idx.shape[0],) + part.shape[2:])
    out[:, lf], out[:, ~lf] = part, series(idx[~lf])
    return out


def _lf_suffix(
    states: tuple[OffspringLaw, ...], idx: np.ndarray, width: int, layers: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Suffix statistics (p, a, r) of f_{k,n} for environment rows whose laws are all LF.

    f_{k,n}(s) = 1 - (1-s) / (A_k + B_k (1-s)) with A_k = A_{k+1} / m_{k+1},
    B_k = eta_{k+1} + B_{k+1} / m_{k+1} (eta = ``eta_lf``), A_n = 1, B_n = 0.
    A grows like a product of 1/m, so the recursion carries p = 1/D =
    P(Z_n > 0 | Z_k = 1), a = A/D and r = B/D (D = A + B), all in [0, 1]:
    with x = eta m p and q = 1 + x, a <- a/q, r <- (x + r)/q and
    p <- m p / q.  Each array is (n+1, b) with ``layers``, row k for f_{k,n},
    else (1, b) for f_{0,n}.  Only what a row of ``width`` reads is carried:
    a from width 2 and r from width 3 (``_lf_layers``); below that they are
    None.  A generation's m and eta m are gathered per column of idx as it
    is stepped, so no per-cell (n, b) array is built.

    A long subcritical suffix drives p towards underflow, and a
    supercritical prefix may bring it back.  So a row whose p falls below
    2^-512 carries it as a mantissa times 2^(-512 e), an exact scaling, and
    the returned p is the value.  Since p_k >= (1 - q_{k+1}(0)) p_{k+1}, the
    check is skipped while that bound, run over the block, stays above
    2^-512; rows that never fall that low keep the same arithmetic.
    """
    b, n = idx.shape
    # m, eta m and 1 - q(0) per state; these rows never index a finite state's placeholder
    m_state, em_state, keep_state = np.array(
        [(law.m, law.eta_lf * law.m, 1.0 - law.p0) if isinstance(law, LinearFractionalLaw)
         else (1.0, 0.0, 1.0) for law in states]
    ).reshape(len(states), 3).T
    n_out = n + 1 if layers else 1
    p, e = np.empty((n_out, b)), np.zeros((n_out, b), dtype=np.int64)
    a = np.empty((n_out, b)) if width > 1 else None
    r = np.empty((n_out, b)) if width > 2 else None
    p[-1] = 1.0  # f_{n,n}(s) = s
    if a is not None:
        a[-1] = 1.0
    if r is not None:
        r[-1] = 0.0
    bound, step = 1.0, float(keep_state.min(initial=1.0))  # bound <= every p of layer src
    for g in range(n - 1, -1, -1):
        src, dst = (g + 1, g) if layers else (0, 0)
        bound *= step
        fa = None if a is None else a[src]
        fr = None if r is None else r[src]
        col = idx[:, g]  # the states of generation g+1
        m, em = m_state[col], em_state[col]
        p[dst], fe, fa, fr = _lf_step(m, em, p[src], e[src], fa, fr, bound < _TINY)
        if bound < _TINY:
            e[dst] = fe
        if a is not None:
            a[dst] = fa
        if r is not None:
            r[dst] = fr
    if bound < _TINY:
        p = np.ldexp(p, -512 * e)
    return p, a, r


def _lf_step(m, em, p, e, a, r, carry: bool, out=None):
    """One generation of the ``_lf_suffix`` recursion: (p, e, a, r) of f_{k-1,n} from f_{k,n}.

    ``m`` and ``em`` (= eta_lf m) are the law of generation k, a scalar or one
    per row.  ``a`` and ``r`` are None where they are not wanted (r only
    with a), and stay None.  With ``carry`` the survival is the mantissa p
    times 2^(-512 e), and p is rescaled whenever it leaves [2^-512, 1).
    Callers drop ``carry`` only while a lower bound keeps every p above
    2^-512 (so e is 0), where it would change no bit; without it e is
    returned as given.

    ``out`` = (p, e, a, r) buffers, None where a statistic is not carried
    and sharing no memory with the inputs, receive the new statistics (e
    only with ``carry``), with the same arithmetic.  x and q then live in the
    buffers of r and a, so with a carried and no ``carry`` the step
    allocates nothing.
    """
    po, eo, ao, ro = (None,) * 4 if out is None else out
    x = np.multiply(em, p, out=ao if r is None else ro)
    if carry:
        np.ldexp(x, -512 * e, out=x)
    q = np.add(1.0, x, out=x if r is None else ao)  # x is still needed only for r
    p = np.multiply(m, p, out=po)
    np.divide(p, q, out=p)
    if carry:  # rescale below 2^-512, and back once the mantissa reaches 1
        shift = (p < _TINY) - ((p >= 1.0) & (e > 0)).astype(np.int64)
        e = np.add(e, shift, out=eo)
        np.ldexp(p, 512 * shift, out=p)
    if r is not None:  # before a, whose buffer holds q
        r = np.divide(np.add(x, r, out=x), q, out=x)
    if a is not None:
        a = np.divide(a, q, out=ao)
    return p, e, a, r


def _lf_layers(p: np.ndarray, a, r, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows of width ``width`` from ``_lf_suffix`` statistics: [s^0] = 1 - p, [s^j] = p a r^(j-1).

    Powers of r are running products, so every value is elementwise
    arithmetic on its own row, whatever the block.  a is read from width 2
    and r from width 3.  With ``out`` (shape ``p.shape + (width,)``) the
    rows are written there.
    """
    f = np.empty(p.shape + (width,)) if out is None else out
    np.subtract(1.0, p, out=f[..., 0])
    if width > 1:
        np.multiply(p, a, out=f[..., 1])
    for j in range(2, width):
        np.multiply(f[..., j - 1], r, out=f[..., j])
    return f


def _series_layers(
    states: tuple[OffspringLaw, ...], idx: np.ndarray, width: int, layers: bool
) -> np.ndarray:
    """Rows of f_{k,n} by applying each generation's law to the rows below it.

    Without ``layers`` generations are applied in place, so memory does not
    grow with n.  At width 1 a finite law is its pgf evaluated on column 0,
    the same Horner arithmetic as column 0 of ``apply_law_rows``.
    """
    b, n = idx.shape
    f = np.zeros((n + 1 if layers else 1, b, width))
    f[-1, :, 1:2] = 1.0  # f_{n,n}(s) = s
    for g in range(n - 1, -1, -1):
        src, dst = (f[g + 1], f[g]) if layers else (f[0], f[0])
        for a in np.bincount(idx[:, g]).nonzero()[0]:
            law = states[a]  # each state's rows in one call
            sel = (idx[:, g] == a).nonzero()[0]
            if width == 1 and isinstance(law, FiniteLaw):
                dst[sel, 0] = law.pgf(src[sel, 0])
            else:
                dst[sel] = apply_law_rows(law, src[sel])
    return f


def _log_derivatives(
    states: tuple[OffspringLaw, ...], idx: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """log f'(t[r, c]) for the law ``states[idx[r, c]]`` of each cell; -inf where it vanishes."""
    d = np.empty(idx.shape)
    for a, law in enumerate(states):  # each state's cells in one call
        sel = idx == a
        d[sel] = law.pgf_prime(t[sel])
    with np.errstate(divide="ignore"):
        return np.log(d)


def mrca_rows(states: tuple[OffspringLaw, ...], idx: np.ndarray, target: int) -> np.ndarray:
    """Tail masses (b, n+1): A_g = P(Z_n = target, MRCA in generation >= g | env, Z_0 = 1).

    With T = target and t_k = f_{k,n}(0), A_g is the probability that
    Z_n = T and every horizon individual descends from one generation-g
    individual, A_g = f'_{0,g}(t_g) [s^T] f_{g,n}.  These events shrink
    with g: column 0 is P(Z_n = T | env) and column n is 0.  The MRCA sits
    in generation g, at age n - g, with probability A_g - A_{g+1}; no
    difference is formed here.

    The route is chosen per row, as in ``horizon_rows``.  A row whose laws
    are all LF takes the closed form (``_lf_mrca``).  With the walk S_g,
    f_{0,g}(s) = 1 - (1-s) / (e^{-S_g} + B (1-s)) for some B >= 0, and
    1 - t_0 = (1 - t_g) / (e^{-S_g} + B (1 - t_g)), so f'_{0,g}(t_g) =
    e^{-S_g} (p_0 / p_g)^2, where p, a, r are the ``_lf_suffix`` statistics
    (p_g = 1 - t_g).  With [s^T] f_{g,n} = p_g a_g r_g^(T-1) and
    a_g = e^{-(S_n - S_g)} p_g, the walk and p_g cancel:

        A_g = p_0 a_0 r_g^(T-1),

    every factor in [0, 1], so no horizon overflows, and r_n = 0 gives
    A_n = 0.  Any other row takes the series route (``_series_mrca``),
    where f'_{0,g}(t_g) = prod_{k=1..g} f_k'(t_k) is summed in log space.
    """
    if target < 2:
        raise ContractError("target size must be >= 2 for a meaningful MRCA")
    return _by_route(
        states,
        idx,
        lambda sub: _lf_mrca(states, sub, target),
        lambda sub: _series_mrca(states, sub, target),
    ).T


def _lf_mrca(states: tuple[OffspringLaw, ...], idx: np.ndarray, target: int) -> np.ndarray:
    """A_g = p_0 a_0 r_g^(T-1) of ``mrca_rows`` as (n+1, b), layer g for generation g.

    For rows whose laws are all LF: one layered ``_lf_suffix`` at width
    T + 1, the coefficient it reads (so r is carried), then powers of r as
    running products.
    """
    p, a, r = _lf_suffix(states, idx, target + 1, layers=True)
    power = r
    for _ in range(target - 2):
        power = power * r
    return p[0] * a[0] * power


def _series_mrca(states: tuple[OffspringLaw, ...], idx: np.ndarray, target: int) -> np.ndarray:
    """A_g of ``mrca_rows`` as (n+1, b) by the series route: log-derivative prefix sums."""
    b, n = idx.shape
    f = _series_layers(states, idx, target + 1, layers=True)
    log_prefix = np.zeros((b, n))
    np.cumsum(_log_derivatives(states, idx[:, :-1], f[1:n, :, 0].T), axis=1, out=log_prefix[:, 1:])
    a = np.zeros((n + 1, b))
    a[:n] = (np.exp(log_prefix) * f[:n, :, target].T).T
    return a


def quenched_coeff_row(env: EnvSequence, z0: int, j_max: int) -> np.ndarray:
    """Exact coefficients c_0..c_{j_max} of f_{0,n}(s)^{z0}."""
    if z0 < 0:
        raise ContractError("initial size must be >= 0")
    if j_max < 0:
        raise ContractError("j_max must be >= 0")
    row = horizon_rows(*env._indexed, j_max + 1)
    return np.clip(pow_rows(row, z0)[0], 0.0, None)


def quenched_pmf(env: EnvSequence, z0: int, j: int) -> float:
    """P(Z_n = j | env, Z_0 = z0), exact: the series is truncated at degree j."""
    if z0 < 1:
        raise ContractError("initial size must be >= 1")
    if j < 0:
        raise ContractError("population size must be >= 0")
    if j > MAX_DEGREE:
        raise TruncationError(f"required degree {j} exceeds cap {MAX_DEGREE}")
    return float(quenched_coeff_row(env, z0, j)[j])


def quenched_survival(env: EnvSequence, z0: int) -> float:
    """P(Z_n > 0 | env, Z_0 = z0) = 1 - (1 - p)^{z0}, p from ``survival_rows``.

    An all-LF environment keeps a survival p that ``1 - t_0`` rounds to 0.
    """
    p = float(survival_rows(*env._indexed)[0])
    return 1.0 if p >= 1.0 else -math.expm1(z0 * math.log1p(-p))


def phi_n(env: EnvSequence, z0: int) -> float:
    """Quenched probability of the single-spine event.

    The event: Z_n = z0 and every side subtree emerging strictly before
    generation n is extinct by n, i.e. all generation-n individuals share
    one parent.  Value: q_n(z0) * z0 * t_0^{z0-1} * prod_{i=1}^{n-1} f_i'(t_i)
    with t_i = f_{i,n}(0), computed in the log domain.
    """
    if env.n < 1:
        raise ContractError("phi needs at least one generation")
    qn = env.laws[-1].prob(z0)
    if qn == 0.0:
        return 0.0
    return _spine_product(env, z0, math.log(qn))


def _spine_product(env: EnvSequence, z: int, log_lead: float) -> float:
    """exp(log_lead) * z * t_0^{z-1} * prod_{k=1}^{n-1} f_k'(t_k), in the log domain.

    The product is a one-row call of the helper behind ``mrca_rows``; the
    value is 0 when a factor vanishes.
    """
    t = env.extinction_ladder()
    log_val = log_lead + math.log(z)
    if z > 1:
        if t[0] == 0.0:
            return 0.0
        log_val += (z - 1) * math.log(t[0])
    states, idx = env._indexed
    log_val += float(_log_derivatives(states, idx[:, :-1], t[None, 1:-1]).sum())
    return math.exp(log_val)


def subtree_extinction_identity(env: EnvSequence, z: int) -> tuple[float, float]:
    """Both sides of the side-subtree extinction identity, for equality tests.

    lhs multiplies, over k = 0..n-1, the probability that the subtree
    attached at generation k dies by n, each evaluated by summing the
    spine offspring-count law against extinction powers (direct summation,
    never the derivative shortcut).  Each survival ratio
    (1 - t_k) / (1 - t_{k-1}) is 1 / g(t_k) with g(t) = (1 - f(t)) / (1 - t)
    = sum_j q(j) sum_{i<j} t^i, which is m / (1 + eta m (1 - t)) for an LF
    law; neither form cancels as t_k -> 1.  rhs is the telescoped form
    (p_{n-1,n} / p_{-1,n}) * prod f_k'(t_k) with the initial factor
    f_0(s) = s^z.
    """
    if z < 1:
        raise ContractError("initial size must be >= 1")
    n = env.n
    if n < 1:
        raise ContractError("identity needs at least one generation")
    t = env.extinction_ladder()
    surv = 1.0 - t[0] ** z
    if surv <= 0.0:
        raise ContractError("conditioning on null event: quenched survival is 0")

    # lhs, k = 0: initial cohort of z, spine position from the geometric row
    lhs = sum((1.0 - t[0]) * t[0] ** (z - i - 1) / surv * t[0] ** i for i in range(z))
    # lhs, k = 1..n-1: spine offspring law against extinction of each subtree,
    # sum_{i>=0} t^i sum_{j>i} q(j) t^{j-i-1} summed term by term
    for k in range(1, n):
        law = env.laws[k - 1]
        tk = t[k]
        if isinstance(law, FiniteLaw):
            jmax = law.max_support
            growth = sum(law.prob(j) * sum(tk**i for i in range(j)) for j in range(1, jmax + 1))
        else:
            # geometric weights: truncate once the remaining tail is negligible
            jmax = 1
            if law.ratio > 0.0:
                jmax = max(8, int(math.ceil(-50.0 / math.log(law.ratio))))
            growth = law.m / (1.0 + law.eta_lf * law.m * (1.0 - tk))
        total = 0.0
        for j in range(1, jmax + 1):
            qj = law.prob(j)
            if qj == 0.0:
                continue
            total += qj * sum(tk ** (j - i - 1) * tk**i for i in range(j))
        lhs *= total / growth

    # rhs: telescoped product
    return lhs, _spine_product(env, z, math.log(1.0 - t[n - 1]) - math.log(surv))


@dataclass(frozen=True)
class ReachableSet:
    """Smallest spine size z0 and the closure of sizes reachable from it."""

    z0: int
    closure: frozenset[int]
    capped: bool
    cap: int


def smallest_reachable(model: EnvironmentModel, cap: int = 64) -> ReachableSet:
    """z0 = min{j >= 1 : some state has q(j) > 0 and q(0) > 0}, plus closure."""
    z0 = None
    capped = False
    masks = {}  # one table of z-fold sumsets per distinct support
    for law in model.states:
        support, unbounded = law.support(cap)
        capped = capped or unbounded
        key = tuple(sorted(support))
        if key not in masks:
            masks[key] = _sum_masks(key, cap)
        positive = [j for j in key if j >= 1]
        if law.p0 > 0.0 and positive:
            z0 = positive[0] if z0 is None else min(z0, positive[0])
    if z0 is None:
        raise ContractError("no extinction possible: use monotone-case formula")

    # a size is marked in `closure` when it is pushed, so each is pushed once
    closure = 1 << z0
    frontier = [z0]
    while frontier:
        z = frontier.pop()
        reach = 0
        for table in masks.values():
            sums, overflowed = table[z]
            reach |= sums
            capped = capped or overflowed
        fresh = reach & ~closure & ~1
        closure |= fresh
        while fresh:
            low = fresh & -fresh
            frontier.append(low.bit_length() - 1)
            fresh ^= low
    members = frozenset(k for k in range(1, cap + 1) if closure >> k & 1)
    return ReachableSet(z0=z0, closure=members, capped=capped, cap=cap)


def _sum_masks(support: tuple[int, ...], cap: int) -> list[tuple[int, bool]]:
    """Sums of z draws from ``support`` as bitmasks over 0..cap, for z = 0..cap.

    Entry z is (mask, overflowed): bit k of mask is set when k is such a sum,
    and overflowed records whether some sum above cap was formed at any of the
    first z steps.
    """
    keep = (1 << (cap + 1)) - 1
    mask, overflowed = 1, False
    out = [(mask, overflowed)]
    for _ in range(cap):
        sums = 0
        for v in support:
            sums |= mask << v
        overflowed = overflowed or sums > keep
        mask = sums & keep
        out.append((mask, overflowed))
    return out


def annealed_pmf_row(model: EnvironmentModel, z0: int, n: int, j_max: int) -> np.ndarray:
    """Exact annealed coefficients: P(Z_n = j | Z_0 = z0) for j = 0..j_max.

    Enumerates every environment sequence: the innermost generations form
    one shared block, built breadth-first from the identity, and any
    generations beyond the block are visited depth-first, one law
    application on the whole block per node.
    """
    if z0 < 1:
        raise ContractError("initial size must be >= 1")
    if n < 0:
        raise ContractError("n must be >= 0")
    return np.clip(_annealed_rows(model, z0, (n,), j_max)[n], 0.0, None)


def _annealed_rows(model: EnvironmentModel, z0: int, horizons, j_max: int) -> dict[int, np.ndarray]:
    """Unclipped sum over environments of w(env) * coefficients of f_{0,n}^{z0}, per horizon n.

    The state after d generations is a block with one row per environment of
    those d generations, standing for f_{n-d+1,n}.  Where every enumerated
    state is LF, a row is the (p, e, a, r) of ``_lf_step``, with a carried
    from width 2, r from width 3 and e only once the exponent carry may
    start (before that every row shares the one zero array), and
    coefficient rows are built only at requested horizons (``_lf_layers``,
    in chunks of at most ``_BLOCK_CELLS`` cells), so each is the row
    ``horizon_rows`` gives for its environment; otherwise a row is the
    series row itself and a law is applied by ``apply_law_rows``.  The block
    grows breadth-first while the next block fits in ``_BLOCK_CELLS`` cells
    (rows x states x cells per row, 5 cells for an LF row whatever it
    carries), and always with a single state, whose block never widens.

    Series blocks are column-major, so each coefficient column the kernels
    sum over is one contiguous vector.  A breadth-first block of degree D
    is padded with zero columns only to the degree maxdeg D the next
    generation can reach (maxdeg is the largest degree of a finite state;
    an LF state keeps every block at full width), and to the full width
    before an emission and before the descent: the columns it leaves out
    are exact zeros, so every value is the full-width one, bit for bit.
    ``emit`` copies its coefficient rows to row-major before the weighted
    sum, because the BLAS product sums a column-major block in another
    order and would change the last bits of certified values.

    Past that, each state's law is applied to the whole block in turn,
    depth-first, and a child has as many rows as its parent.  The descent
    is a loop over an explicit stack, not a recursion, and it owns one set
    of buffers per generation, made once per call: a child's block and
    weights are written into the buffers of its level and its coefficient
    rows into one shared chunk buffer (``out=``, the same arithmetic), so no
    node allocates a block; only the kernels' own temporaries remain
    (finite Horner steps, the series route's LF laws, ``pow_rows`` at z0 >=
    2, an LF block at width 1 and the exponent carry).  A horizon's rows are
    summed only where it is requested, in the order of a recursive
    depth-first sweep, so one sweep serves every horizon up to the largest.
    """
    n_max = max(horizons, default=0)
    states = list(zip(model.states, model.weights))
    k = len(states)
    if k**n_max > ENUMERATION_BUDGET:
        raise BudgetError(
            f"enumeration of {k}^{n_max} sequences exceeds budget {ENUMERATION_BUDGET}; "
            "use the Monte Carlo path (tilted importance sampling)"
        )
    width = j_max + 1
    totals = {n: np.zeros(width) for n in horizons}

    if model.is_lf_pure:
        keep = min(1.0 - law.p0 for law, _ in states)  # every p of depth d is >= keep^d
        cells = 5  # p, e, a, r and the weight
        step = max(1, _BLOCK_CELLS // width)  # rows per chunk of coefficient rows

        def apply(law, block, depth, out=None):
            return _lf_step(
                law.m, law.eta_lf * law.m, *block, keep ** (depth + 1) < _TINY, out=out
            )

        def join(blocks):
            return tuple(None if x[0] is None else np.concatenate(x) for x in zip(*blocks))

        def buffers(rows, depth):
            return (
                np.empty(rows),
                np.empty(rows, dtype=np.int64) if keep**depth < _TINY else None,
                np.empty(rows) if width > 1 else None,
                np.empty(rows) if width > 2 else None,
            )

        def chunk_buffer(rows):
            return np.empty((min(rows, step), width))

        def emit(block, wvec, depth, f):
            p, e, a, r = block
            if keep**depth < _TINY:
                p = np.ldexp(p, -512 * e)
            total = 0
            for i in range(0, len(p), len(f)):
                c = slice(i, i + len(f))
                stats = [None if x is None else x[c] for x in (p, a, r)]
                rows = _lf_layers(*stats, width, f[: len(stats[0])])
                total = total + wvec[c] @ pow_rows(rows, z0)
            return total

        root = (
            np.ones(1),
            np.zeros(1, dtype=np.int64),
            np.ones(1) if width > 1 else None,
            np.zeros(1) if width > 2 else None,
        )

        def widen(block, full):
            return block

    else:
        cells = width
        # a finite law of degree d takes a series of degree D to degree d D;
        # an LF law has no finite degree, so it keeps every block at full width
        maxdeg = max(
            len(law.probs) - 1 if isinstance(law, FiniteLaw) else width for law, _ in states
        )

        def apply(law, rows, depth, out=None):
            return apply_law_rows(law, rows, out=out)

        def join(blocks):
            out = np.empty((sum(map(len, blocks)), blocks[0].shape[1]), order="F")
            return np.concatenate(blocks, out=out)

        def buffers(rows, depth):
            return np.empty((rows, width), order="F")

        def chunk_buffer(rows):
            return None

        def widen(rows, full):
            # the full width, or the degree one more generation can reach;
            # the columns added are zeros, exactly what the full block holds
            cols = width if full else min(width, maxdeg * (rows.shape[1] - 1) + 1)
            if cols <= rows.shape[1]:
                return rows[:, :cols]
            out = np.zeros((len(rows), cols), order="F")
            out[:, : rows.shape[1]] = rows
            return out

        def emit(rows, wvec, depth, f):
            # the BLAS product sums a row-major block in the order the
            # certified values were first computed in; a column-major one
            # would sum differently
            p = pow_rows(widen(rows, True), z0)
            c = np.empty(p.shape)
            for j in range(width):
                c[:, j] = p[:, j]
            return wvec @ c

        root = np.zeros((1, min(width, 2)), order="F")  # the identity row
        if width > 1:
            root[0, 1] = 1.0

    # breadth-first growth is a loop; one state never widens the block and
    # stays breadth-first at any horizon
    block, wvec, depth = root, np.ones(1), 0
    while True:
        if depth in totals:
            totals[depth] += emit(block, wvec, depth, chunk_buffer(len(wvec)))
        if depth == n_max:
            return totals
        if k > 1 and len(wvec) * k * cells > _BLOCK_CELLS:
            break
        block = widen(block, False)
        block = join([apply(law, block, depth) for law, _ in states])
        wvec = np.concatenate([wvec * w for _, w in states])
        depth += 1

    # depth-first: level i holds a block of depth `top + i`, and nxt[i] is
    # the next state to apply to it
    top, rows = depth, len(wvec)
    blocks = [widen(block, True)] + [None] * (n_max - top)
    outs = [None] + [buffers(rows, d) for d in range(top + 1, n_max + 1)]
    weights = [wvec] + [np.empty(rows) for _ in range(top + 1, n_max + 1)]
    f = chunk_buffer(rows)
    nxt = [0] * (n_max - top + 1)
    i = 0
    while i >= 0:
        if top + i == n_max or nxt[i] == k:
            i -= 1
            continue
        law, w = states[nxt[i]]
        nxt[i] += 1
        blocks[i + 1] = apply(law, blocks[i], top + i, out=outs[i + 1])
        np.multiply(weights[i], w, out=weights[i + 1])
        i += 1
        nxt[i] = 0
        if top + i in totals:
            totals[top + i] += emit(blocks[i], weights[i], top + i, f)
    return totals


def annealed_pmf(model: EnvironmentModel, z0: int, n: int, j: int) -> float:
    """Exact annealed P(Z_n = j | Z_0 = z0) by full enumeration."""
    return float(annealed_pmf_row(model, z0, n, j)[j])


@dataclass(frozen=True)
class FeketeRow:
    n: int
    a_n: float
    slope: float | None

    @property
    def a_n_over_n(self) -> float:
        return self.a_n / self.n


@dataclass(frozen=True)
class FeketeTable:
    """Certified upper bounds a_n/n on the small-value rate, plus slope proxies."""

    z0: int
    rows: tuple[FeketeRow, ...]

    @property
    def min_upper(self) -> float:
        return min(r.a_n_over_n for r in self.rows)

    @property
    def slope_estimate(self) -> float | None:
        slopes = [r.slope for r in self.rows if r.slope is not None]
        return slopes[-1] if slopes else None


def fekete_bounds(model: EnvironmentModel, z0: int | None = None, n_max: int = 12) -> FeketeTable:
    """a_n = -log P_{z0}(Z_n = z0) for n = 1..n_max; every a_n/n bounds the rate.

    Slope entries (a_n - a_{n/2}) / (n/2) are attached at even n as
    non-certified proxies that cancel the O(1) prefactor.
    """
    if z0 is None:
        z0 = smallest_reachable(model).z0
    totals = _annealed_rows(model, z0, range(1, n_max + 1), z0)
    values = {}
    rows = []
    for n in range(1, n_max + 1):
        p = float(totals[n][z0])
        if p <= 0.0:
            raise ContractError(f"P_z0(Z_{n} = z0) = 0; subadditive sequence undefined")
        a_n = -math.log(p)
        values[n] = a_n
        slope = None
        if n % 2 == 0:
            m = n // 2
            slope = (a_n - values[m]) / m
        rows.append(FeketeRow(n=n, a_n=a_n, slope=slope))
    return FeketeTable(z0=z0, rows=tuple(rows))
