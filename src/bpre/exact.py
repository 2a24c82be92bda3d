"""Exact quenched and annealed probabilities for finite-alphabet environments.

Quenched quantities condition on a fixed environment sequence (q_1..q_n);
annealed ones average over all |A|^n sequences by enumeration.

One batched kernel, ``horizon_rows``, composes a block of environments into
the rows of f_{k,n} = f_{k+1} o ... o f_n truncated at a common degree; its
column 0 is the extinction ladder t_k = f_{k,n}(0).  It serves the ladder of
an ``EnvSequence`` (at width 1), ``quenched_coeff_row``, importance sampling
and ``mrca_rows``, the exact quenched MRCA law.  It has two routes, chosen
per environment row: a row whose laws are all linear fractional is itself
LF at every k and takes the closed form, O(n + width) per row, from two
suffix statistics carried in bounded form; any other row takes the series
route, one ``pgf.apply_law_rows`` per generation, O(n width^2) per row (at
width 1 a finite law is just its pgf on the ladder).  One log-derivative
helper forms the products prod f_k'(t_k) of ``mrca_rows``, ``phi_n`` and the
subtree identity.

The annealed enumerator (``_annealed_rows``) composes from the innermost
generation outward with the series route only: a shared breadth-first
block, then the outermost generations depth-first, in one sweep that
reports every horizon up to the deepest requested one (the Fekete table
needs n = 1..n_max, the example suites every n of their tables).  Partial
sums are combined in a fixed order.

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
from .laws import FiniteLaw, LinearFractionalLaw, OffspringLaw
from .pgf import MAX_DEGREE, apply_law_rows, pow_rows

ENUMERATION_BUDGET = 1 << 26
_BLOCK_CELLS = 1 << 17


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
        s[1:] = np.cumsum([math.log(law.mean) for law in self.laws])
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
    block: a row whose laws are all LF takes the closed form
    (``_lf_layers``), any other row the series route (``_series_layers``).
    """
    b, n = idx.shape
    is_lf = np.array([isinstance(law, LinearFractionalLaw) for law in states], dtype=bool)
    closed = is_lf[idx].all(axis=1)
    if closed.all() or not closed.any():
        f = (_lf_layers if closed.all() else _series_layers)(states, idx, width, layers)
    else:
        f = np.empty((n + 1 if layers else 1, b, width))
        f[:, closed] = _lf_layers(states, idx[closed], width, layers)
        f[:, ~closed] = _series_layers(states, idx[~closed], width, layers)
    return f if layers else f[0]


def _lf_layers(
    states: tuple[OffspringLaw, ...], idx: np.ndarray, width: int, layers: bool
) -> np.ndarray:
    """Rows of f_{k,n} for environment rows whose laws are all LF, in closed form.

    f_{k,n}(s) = 1 - (1-s) / (A_k + B_k (1-s)) with the suffix statistics
    A_k = A_{k+1} / m_{k+1}, B_k = eta_{k+1} + B_{k+1} / m_{k+1} (eta =
    ``eta_lf``), A_n = 1, B_n = 0.  With D = A + B the rows are
    [s^0] = 1 - 1/D and [s^j] = (A/D^2) (B/D)^(j-1).  A grows like a product
    of 1/m, so the recursion carries p = 1/D, a = A/D and r = B/D, all in
    [0, 1]: with x = eta m p and q = 1 + x, a <- a/q, r <- (x + r)/q and
    p <- m p / q.  Powers of r are running products, so every value is
    elementwise arithmetic on the row alone, whatever the block.  At width 1
    only the survival p is carried.
    """
    b, n = idx.shape
    # m and eta m per state; these rows never index a finite state's placeholder
    m_state, eta_state = np.array(
        [(law.m, law.eta_lf) if isinstance(law, LinearFractionalLaw) else (1.0, 0.0) for law in states]
    ).reshape(len(states), 2).T
    m_cell, em_cell = m_state[idx.T], (eta_state * m_state)[idx.T]  # (n, b), row g = generation g+1
    n_out = n + 1 if layers else 1
    p, a, r = np.empty((n_out, b)), np.empty((n_out, b)), np.empty((n_out, b))
    p[-1], a[-1], r[-1] = 1.0, 1.0, 0.0  # f_{n,n}(s) = s
    for g in range(n - 1, -1, -1):
        src, dst = (g + 1, g) if layers else (0, 0)
        x = em_cell[g] * p[src]
        q = 1.0 + x
        if width > 1:
            a[dst] = a[src] / q
            r[dst] = (x + r[src]) / q
        p[dst] = m_cell[g] * p[src] / q
    f = np.empty((n_out, b, width))
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
    """Rows (b, n): P(Z_n = target, MRCA in generation g | env, Z_0 = 1) for g = 0..n-1.

    The MRCA age is n - g.  With t_k = f_{k,n}(0), the probability that
    Z_n = target and every horizon individual descends from one
    generation-g individual is A_g = f'_{0,g}(t_g) [s^target] f_{g,n}, where
    f'_{0,g}(t_g) = prod_{k=1..g} f_k'(t_k) is summed in log space.  These
    events shrink with g and A_n = 0, so column g is A_g - A_{g+1}, clipped
    at 0; a row sums to P(Z_n = target | env).
    """
    if target < 2:
        raise ContractError("target size must be >= 2 for a meaningful MRCA")
    b, n = idx.shape
    f = horizon_rows(states, idx, target + 1, layers=True)
    log_prefix = np.zeros((b, n))
    np.cumsum(_log_derivatives(states, idx[:, :-1], f[1:n, :, 0].T), axis=1, out=log_prefix[:, 1:])
    a = np.zeros((b, n + 1))
    a[:, :n] = np.exp(log_prefix) * f[:n, :, target].T
    return np.clip(a[:, :-1] - a[:, 1:], 0.0, None)


def quenched_coeff_row(env: EnvSequence, z0: int, j_max: int) -> np.ndarray:
    """Exact coefficients c_0..c_{j_max} of f_{0,n}(s)^{z0}."""
    if z0 < 0:
        raise ContractError("initial size must be >= 0")
    if j_max < 0:
        raise ContractError("j_max must be >= 0")
    row = horizon_rows(*env._indexed, j_max + 1)
    return np.clip(pow_rows(row, z0)[0], 0.0, None)


def quenched_pmf(env: EnvSequence, z0: int, j: int, degree: int | None = None) -> float:
    """P(Z_n = j | env, Z_0 = z0), exact for the kept degrees."""
    if z0 < 1:
        raise ContractError("initial size must be >= 1")
    if j < 0:
        raise ContractError("population size must be >= 0")
    if degree is not None and j > degree:
        raise TruncationError(f"raise truncation degree: need {j}, have {degree}")
    if degree is not None and degree > MAX_DEGREE:
        raise TruncationError(f"required degree {degree} exceeds cap {MAX_DEGREE}")
    j_top = degree if degree is not None else j
    return float(quenched_coeff_row(env, z0, j_top)[j])


def quenched_survival(env: EnvSequence, z0: int) -> float:
    """P(Z_n > 0 | env, Z_0 = z0) = 1 - f_{0,n}(0)^{z0}."""
    t0 = env.extinction_ladder()[0]
    return 1.0 - t0**z0


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
    never the derivative shortcut).  rhs is the telescoped form
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
        p_ratio = (1.0 - tk) / (1.0 - t[k - 1])
        if isinstance(law, FiniteLaw):
            jmax = law.max_support
        else:
            # geometric weights: truncate once the remaining tail is negligible
            jmax = 1
            if law.ratio > 0.0:
                jmax = max(8, int(math.ceil(-50.0 / math.log(law.ratio))))
        total = 0.0
        for j in range(1, jmax + 1):
            qj = law.prob(j)
            if qj == 0.0:
                continue
            total += qj * sum(tk ** (j - i - 1) * tk**i for i in range(j))
        lhs *= p_ratio * total

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
    for law, w in zip(model.states, model.weights):
        if w <= 0.0:
            continue
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

    closure = 0
    frontier = [z0]
    while frontier:
        z = frontier.pop()
        if closure >> z & 1:
            continue
        closure |= 1 << z
        reach = 0
        for table in masks.values():
            sums, overflowed = table[z]
            reach |= sums
            capped = capped or overflowed
        fresh = reach & ~closure & ~1
        frontier.extend(k for k in range(1, cap + 1) if fresh >> k & 1)
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


def annealed_pmf_row(
    model: EnvironmentModel,
    z0: int,
    n: int,
    j_max: int,
    budget: int = ENUMERATION_BUDGET,
) -> np.ndarray:
    """Exact annealed coefficients: P(Z_n = j | Z_0 = z0) for j = 0..j_max.

    Enumerates every environment sequence: the innermost generations form
    one shared block of coefficient rows, built breadth-first from the
    identity row, and any generations beyond the block are visited
    depth-first, one law application on the whole block per node.
    """
    if z0 < 1:
        raise ContractError("initial size must be >= 1")
    if n < 0:
        raise ContractError("n must be >= 0")
    return np.clip(_annealed_rows(model, z0, (n,), j_max, budget)[n], 0.0, None)


def _annealed_rows(
    model: EnvironmentModel,
    z0: int,
    horizons,
    j_max: int,
    budget: int,
) -> dict[int, np.ndarray]:
    """Unclipped sum over environments of w(env) * coefficients of f_{0,n}^{z0}, per horizon n.

    The state after d generations is the block of rows of f_{n-d+1,n} for
    every environment of those d generations.  It grows breadth-first while
    the next block fits in ``_BLOCK_CELLS`` cells (rows x states x width),
    and always with a single state, whose block never widens; past that, each state's law is applied to the whole block in turn,
    depth-first.  A depth-first child has as many rows as its parent, so it
    never grows breadth-first again.  A horizon's row is summed only where
    it is requested, so one sweep serves every horizon up to the largest.
    """
    n_max = max(horizons, default=0)
    states = [(law, w) for law, w in zip(model.states, np.asarray(model.weights)) if w > 0.0]
    a = len(states)  # zero-weight states are never enumerated
    if a**n_max > budget:
        raise BudgetError(
            f"enumeration of {a}^{n_max} sequences exceeds budget {budget}; "
            "use the Monte Carlo path (tilted importance sampling)"
        )
    width = j_max + 1
    totals = {n: np.zeros(width) for n in horizons}

    def expand(rows: np.ndarray, wvec: np.ndarray, depth: int) -> None:
        # breadth-first growth loops and only the depth-first descent recurses,
        # so the stack holds at most log_a(budget) frames; one state never
        # widens the block and stays breadth-first at any horizon
        while True:
            if depth in totals:
                totals[depth] += wvec @ pow_rows(rows, z0)
            if depth == n_max:
                return
            if a > 1 and len(rows) * a * width > _BLOCK_CELLS:
                break
            rows = np.vstack([apply_law_rows(law, rows) for law, _ in states])
            wvec = np.concatenate([wvec * w for _, w in states])
            depth += 1
        for law, w in states:
            # the named child lives until its sibling is built; freeing it
            # first made `bpre rho --n-max 20` about 8% slower
            child = apply_law_rows(law, rows)
            expand(child, wvec * w, depth + 1)

    identity = np.zeros((1, width))
    if width > 1:
        identity[0, 1] = 1.0
    expand(identity, np.ones(1), 0)
    return totals


def annealed_pmf(
    model: EnvironmentModel,
    z0: int,
    n: int,
    j: int,
    budget: int = ENUMERATION_BUDGET,
) -> float:
    """Exact annealed P(Z_n = j | Z_0 = z0) by full enumeration."""
    return float(annealed_pmf_row(model, z0, n, j, budget)[j])


@dataclass(frozen=True)
class FeketeRow:
    n: int
    a_n: float
    a_n_over_n: float
    slope: float | None


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

    def a(self, n: int) -> float:
        for r in self.rows:
            if r.n == n:
                return r.a_n
        raise KeyError(n)

    def to_csv(self) -> str:
        lines = ["n,a_n,a_n_over_n,slope"]
        for r in self.rows:
            slope = "" if r.slope is None else repr(r.slope)
            lines.append(f"{r.n},{r.a_n!r},{r.a_n_over_n!r},{slope}")
        return "\n".join(lines) + "\n"


def fekete_bounds(
    model: EnvironmentModel,
    z0: int | None = None,
    n_max: int = 12,
    budget: int = ENUMERATION_BUDGET,
) -> FeketeTable:
    """a_n = -log P_{z0}(Z_n = z0) for n = 1..n_max; every a_n/n bounds the rate.

    Slope entries (a_n - a_{n/2}) / (n/2) are attached at even n as
    non-certified proxies that cancel the O(1) prefactor.
    """
    if z0 is None:
        z0 = smallest_reachable(model).z0
    totals = _annealed_rows(model, z0, range(1, n_max + 1), z0, budget)
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
        rows.append(FeketeRow(n=n, a_n=a_n, a_n_over_n=a_n / n, slope=slope))
    return FeketeTable(z0=z0, rows=tuple(rows))
