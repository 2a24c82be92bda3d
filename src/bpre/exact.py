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
routes per row.  In u = 1 - s an LF law is a Mobius map, and so is a
block of generations, the same map wherever it sits in an environment.
A model of K states has only K^d blocks of d generations, so
``_lf_block_table`` holds the ``_lf_suffix`` statistics of every block of
d = 0..L generations, at most ``_SUFFIX_ROWS`` of the longest, grown
breadth-first by ``_lf_levels``.  It is keyed by the states alone: a
process builds one per model, which serves every horizon, and keeps only
the last.  ``_lf_suffix`` reads it on a block of more than one row (a
quenched environment, one row, steps every generation without it).  An
all-LF row in such a block composes f_{0,n} from its blocks, about n / L
steps, to the rounding of the recursion (bit for bit where n <= L):
``_block_codes`` codes the block's states and ``_lf_composed`` composes
the codes, which importance sampling draws itself, a block at a time,
and hands to ``composed_stats`` (or ``composed_rows``); a row
of ``mrca_rows``, which needs r at every generation, gathers the layers
of its last L generations and steps only the generations before them,
with the bits of the full recursion.  ``mrca_rows`` returns the MRCA law
as tail masses A_g, the form both routes compute, and forms no
differences.  An all-LF row reads its A_g straight off the ``_lf_suffix``
statistics, with no derivative and no product over generations, and its
survival is the statistic p itself, kept however small.  One
log-derivative helper forms the products prod f_k'(t_k) of the series
rows of ``mrca_rows`` and of the subtree identity.

The annealed enumerator (``_annealed_rows``) composes from the innermost
generation outward: a shared breadth-first block, then the outermost
generations depth-first, in one sweep that reports every horizon up to the
deepest requested one (the Fekete table needs n = 1..n_max, the example
suites every n of their tables).  A model whose enumerated states are all
LF carries the closed-form statistics of each environment, grown as the
block table's (``_lf_levels``), only those a row of the requested width
reads, and builds coefficient rows only at requested horizons; any other
model carries series rows, column-major, with breadth-first blocks only
as wide as their degree can reach.  A series sweep applies each law to a
node by its own Horner scheme (``pgf.apply_law_rows``), except where the
rows are at least ``_LADDER_WIDTH`` wide and two finite states of degree 2
or more can share products: there ``_power_ladder`` expands each node once,
from one ladder of powers c, c^2, ..., c^D of its block (c^2 by
``pgf.sqr_rows``, at half the cost of a product), forming every finite
child by scaled adds, D - 1 products per node in place of sum_a (d_a - 1);
LF states keep ``apply_law_rows``.  The choice is made once per sweep, so
every row of a sweep has one arithmetic.  The depth-first descent writes
every child block and weight vector into buffers made once per call, one
set per generation (a ladder level holds all of its children, and the
ladder's power blocks are shared by every level), through the ``out``
arguments of ``_lf_step``, ``pgf.apply_law_rows``, ``pgf.mul_rows`` and
``pgf.sqr_rows``, with unchanged arithmetic; an LF sweep's coefficient rows
are formed in chunks by ``_lf_layers``.  Partial sums are combined in a
fixed order.
A Fekete sweep (``fekete_bounds``) reads coefficient z0 of each horizon
and nothing else, so it emits only that coefficient, through the same
BLAS product and with the same bits.  At z0 = 1 it also folds the last
generation in closed form: [s^1] f_a(g) = f_a'(g_0) g_1 is linear in the
outermost law, so the children of a block one generation short of the
deepest horizon are never built, and their sum is the block's g_1
weighted by sum_a w_a f_a'(g_0).  At z0 >= 2, [s^z0] f_a(g)^z0 is not
linear in the law, and nothing is folded.

The reachability closure behind z0 works on Python-int bitmasks: bit k of a
mask marks size k, and the sizes reachable from z in one generation are the
z-fold sumset of a state's support, built once per distinct support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .environment import EnvironmentModel
from .errors import BudgetError, ContractError, TruncationError
from .laws import FiniteLaw, LinearFractionalLaw, OffspringLaw
from .pgf import MAX_DEGREE, apply_law_rows, mul_rows, pow_rows, sqr_rows

ENUMERATION_BUDGET = 1 << 26
_BLOCK_CELLS = 1 << 17
_LADDER_WIDTH = 33  # series sweeps at least this wide may expand each node once (``_power_ladder``)
_TINY = 2.0**-512  # LF survival below this is carried as a mantissa and a power of 2^-512
_SUFFIX_ROWS = 4096  # the most blocks of one length in an ``_lf_block_table``, a chunk's rows


@dataclass(frozen=True)
class EnvSequence:
    """A realized environment (q_1, ..., q_n) with its extinction ladder."""

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
    off the model's states first (``_lf_states``): where every state is LF,
    or none is, the whole block takes one route and no per-cell mask is
    built.
    """
    is_lf = _lf_states(states).is_lf
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


class _LFStates(NamedTuple):
    """Per-state arrays of the LF kernels, built once per model by ``_lf_states``.

    ``m`` and ``em`` (= eta_lf m) are each state's law for ``_lf_step``; a
    state that is not LF takes m = 1 and eta m = 0, a no-op placeholder no
    all-LF row reads.  ``keep`` is the least 1 - q(0) of the LF states (1
    without one): p_k >= keep p_{k+1}, so keep^d bounds the survival of d
    generations from below.
    """

    is_lf: np.ndarray
    m: np.ndarray
    em: np.ndarray
    keep: float


@lru_cache(maxsize=16)
def _lf_states(states: tuple[OffspringLaw, ...]) -> _LFStates:
    """The ``_LFStates`` of ``states``, kept for the next calls with equal states."""
    is_lf = np.array([isinstance(law, LinearFractionalLaw) for law in states], dtype=bool)
    m, em = np.array(
        [(law.m, law.eta_lf * law.m) if lf else (1.0, 0.0) for law, lf in zip(states, is_lf)]
    ).reshape(len(states), 2).T
    for x in (is_lf, m, em):
        x.flags.writeable = False
    keep = min((1.0 - law.p0 for law, lf in zip(states, is_lf) if lf), default=1.0)
    return _LFStates(is_lf, m, em, keep)


class _BlockTable:
    """``_lf_suffix`` statistics of every block of d = 0..L generations of one model.

    ``stats`` has rows p, a and r, and level d, the K^d blocks of d
    generations, in columns ``start[d] + c``: entry c is the block whose
    generation j, outermost first, has the state of digit j of c in base
    K = len(states), most significant first.  A block is the same map
    wherever it sits in an environment, so one table serves every horizon.
    ``bounds[d]`` is keep^d, the survival bound ``_lf_suffix`` runs over d
    generations.  A plain class, not a dataclass, whose generated methods
    would be compiled at every import.
    """

    def __init__(self, stats: np.ndarray, start: np.ndarray, bounds: tuple[float, ...]):
        self.stats, self.start, self.bounds = stats, start, bounds

    @property
    def length(self) -> int:
        return len(self.bounds) - 1

    @cached_property
    def r_by_code(self) -> np.ndarray:
        """(L+1, K^L): row d holds the r of level d at the last d digits of each L-digit code.

        A reader of r's layers (``_lf_mrca``) gathers them all by one code.
        Built on its first read, a row at a time, so that a table read only
        for composed rows never holds it.
        """
        start, length = self.start, self.length
        codes = np.arange(start[-1] - start[-2])
        r = np.empty((length + 1, codes.size))
        for d in range(length + 1):  # level d has K^d entries; codes % K^d are the last d digits
            r[d] = self.stats[2, start[d] + codes % (start[d + 1] - start[d])]
        r.flags.writeable = False
        return r


# the empty block, f_{n,n}(s) = s, from which a block that reads no table steps
_NO_TABLE = _BlockTable(np.array([[1.0], [1.0], [0.0]]), np.array([0, 1]), (1.0,))


def block_length(states: tuple[OffspringLaw, ...]) -> int:
    """L of the block table of ``states``: the largest length with K^L <= ``_SUFFIX_ROWS``.

    At K = 1 the rule takes K = 2's length, so that no horizon sets the
    table's cost, and it also stops before keep^L < 2^-512 (``_LFStates``),
    so that no entry holds a carried exponent.  0 where even one
    generation breaks a rule.  Importance sampling draws its blocks at this
    length (at least 1), so its draws follow the table's layout.
    """
    keep = _lf_states(states).keep
    base, length, bound = max(len(states), 2), 0, 1.0
    while base ** (length + 1) <= _SUFFIX_ROWS and bound * keep >= _TINY:
        length, bound = length + 1, bound * keep
    return length


@lru_cache(maxsize=1)
def _lf_block_table(states: tuple[OffspringLaw, ...]) -> _BlockTable | None:
    """The ``_BlockTable`` of ``states``: levels d = 0..L of ``_lf_levels``, a and r carried.

    L is ``block_length``, so every entry has the bits the per-row
    recursion gives at any width.  None where no state is LF or where
    L = 0.  A state that is not LF takes ``_lf_states``' placeholder, and
    its entries are never read.

    The last table built is kept, read-only, for the next call with equal
    states, so every horizon and every chunk of one model share one table
    in each process; memory stays at one table of fewer than
    2 ``_SUFFIX_ROWS`` entries, and L + 1 rows of ``_SUFFIX_ROWS`` once r's
    layers are read.
    """
    lf = _lf_states(states)
    length = block_length(states)
    if not lf.is_lf.any() or length == 0:
        return None
    bounds = [1.0]
    for _ in range(length):
        bounds.append(bounds[-1] * lf.keep)  # the bound ``_lf_suffix`` runs
    levels = [np.stack([p, a, r]) for p, _, a, r in _lf_levels(states, lf.keep, length, 3)]
    stats, start = np.concatenate(levels, axis=1), np.cumsum([0] + [x.shape[1] for x in levels])
    stats.flags.writeable = start.flags.writeable = False
    return _BlockTable(stats, start, tuple(bounds))


def _lf_levels(states: tuple[OffspringLaw, ...], keep: float, depth: int, width: int):
    """The (p, e, a, r) of ``_lf_step`` for every state sequence of the last d generations.

    Yields level d = 0..depth, ordered as the entries of ``_BlockTable``:
    level 0 is f_{n,n}(s) = s, and level d + 1 concatenates, state by state,
    one ``_lf_step`` per state on level d.  a is carried from width 2 and r
    from width 3.  ``keep`` <= 1 - q(0) of every LF state, and the exponent
    carry starts once keep^d < 2^-512.  A state that is not LF steps with
    ``_lf_states``' placeholder, a no-op.
    """
    lf = _lf_states(states)
    laws = list(zip(lf.m.tolist(), lf.em.tolist()))
    block = (
        np.ones(1),
        np.zeros(1, dtype=np.int64),
        np.ones(1) if width > 1 else None,
        np.zeros(1) if width > 2 else None,
    )
    yield block
    for d in range(depth):
        kids = [_lf_step(m, em, *block, keep ** (d + 1) < _TINY) for m, em in laws]
        block = tuple(None if x[0] is None else np.concatenate(x) for x in zip(*kids))
        del kids  # not held across the yield, while the caller reads the level
        yield block


def _lf_suffix(
    states: tuple[OffspringLaw, ...], idx: np.ndarray, width: int, layers: bool,
    *, r_layers: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Suffix statistics (p, a, r) of f_{k,n} for environment rows whose laws are all LF.

    f_{k,n}(s) = 1 - (1-s) / (A_k + B_k (1-s)) with A_k = A_{k+1} / m_{k+1},
    B_k = eta_{k+1} + B_{k+1} / m_{k+1} (eta = ``eta_lf``), A_n = 1, B_n = 0.
    A grows like a product of 1/m, so the recursion carries p = 1/D =
    P(Z_n > 0 | Z_k = 1), a = A/D and r = B/D (D = A + B), all in [0, 1]:
    with x = eta m p and q = 1 + x, a <- a/q, r <- (x + r)/q and
    p <- m p / q.  Each array is (n+1, b) with ``layers``, row k for f_{k,n},
    else (1, b) for f_{0,n}; ``r_layers`` layers r alone (``_lf_mrca``),
    with the same arithmetic.  Only what a row of ``width`` reads is
    returned: a from width 2 and r from width 3 (``_lf_layers``); below
    that they are None.  A generation's m and eta m are gathered per column
    of idx as it is stepped, so no per-cell (n, b) array is built.

    A long subcritical suffix drives p towards underflow, and a
    supercritical prefix may bring it back.  So a row whose p falls below
    2^-512 carries it as a mantissa times 2^(-512 e), an exact scaling, and
    the returned p is the value.  Since p_k >= (1 - q_{k+1}(0)) p_{k+1}, the
    check is skipped while that bound, run over the block, stays above
    2^-512; rows that never fall that low keep the same arithmetic.

    A block of more than one row reads the model's block table
    (``_lf_block_table``, built on the first call and kept for the next).
    Without ``layers`` or ``r_layers`` it composes f_{0,n} from the table's
    blocks (``_lf_composed``), O(n/L) steps per row; the rows agree with
    the recursion's to rounding, not bit for bit, where n > L.  With
    ``r_layers`` each row gathers the statistics of f_{n-L,n} and r's
    L + 1 layers (layer n-L+j from level L-j, by the last L-j digits of
    the code of ``idx[:, n-L:]``, L here at most n; ``r_by_code``) and
    steps only generations n-L, ..., 1, with the bound continued from the
    table's; the entries are this recursion's own values and hold no
    carried exponent, so every row keeps its bits.  ``layers`` and a single row (a
    quenched environment) step every generation and read no table, since
    a table would serve one row alone.
    """
    b, n = idx.shape
    lf = _lf_states(states)
    table = None if layers or b == 1 else _lf_block_table(states)
    if table is not None and not r_layers:
        p, a, r = _lf_composed(table, _block_codes(table.length, len(states), idx))
        return p[None], a[None] if width > 1 else None, r[None] if width > 2 else None
    table = table or _NO_TABLE
    n_out = n + 1 if layers else 1
    n_r = n + 1 if layers or r_layers else 1
    p, e = np.empty((n_out, b)), np.zeros((n_out, b), dtype=np.int64)
    a = np.empty((n_out, b)) if width > 1 else None
    r = np.empty((n_r, b)) if width > 2 else None
    # the generations after ``start`` are read from the table; bound <= every p of layer src
    length = min(n, table.length)
    start, bound = n - length, table.bounds[length]
    code = idx[:, start:] @ len(states) ** np.arange(length - 1, -1, -1) if length else 0
    p[-1] = table.stats[0, table.start[length] + code]
    if a is not None:
        a[-1] = table.stats[1, table.start[length] + code]
    if r is not None:  # layer start + j reads level length - j, by the last length - j digits
        r[start if n_r > 1 else 0 :] = table.r_by_code[length::-1, code]
    for g in range(start - 1, -1, -1):
        src, dst = (g + 1, g) if layers else (0, 0)
        r_src, r_dst = (g + 1, g) if n_r > 1 else (0, 0)
        bound *= lf.keep
        fa = None if a is None else a[src]
        fr = None if r is None else r[r_src]
        col = idx[:, g]  # the states of generation g+1
        m, em = lf.m[col], lf.em[col]
        p[dst], fe, fa, fr = _lf_step(m, em, p[src], e[src], fa, fr, bound < _TINY)
        if bound < _TINY:
            e[dst] = fe
        if a is not None:
            a[dst] = fa
        if r is not None:
            r[r_dst] = fr
    if bound < _TINY:
        p = np.ldexp(p, -512 * e)
    return p, a, r


def _block_codes(length: int, k: int, idx: np.ndarray):
    """Yield the blocks of the rows of idx as (depth, code), innermost first, for ``_lf_composed``.

    A row's generations split into runs of ``length`` from the innermost
    and its outermost n mod ``length``; a block's code has the digits of
    its states in base k, the outermost most significant, the order of
    ``_BlockTable``.  At n = 0 the one block is the empty one.  Each code
    is formed as it is read, so one is held at a time.
    """
    b, n = idx.shape
    place = k ** np.arange(length - 1, -1, -1)
    blocks = [(length, lo) for lo in range(n - length, -1, -length)]  # (depth, first column)
    if n % length or not blocks:
        blocks.append((n % length, 0))
    for d, lo in blocks:
        yield d, idx[:, lo : lo + d] @ place[length - d :]


def _lf_composed(table: _BlockTable, blocks):
    """(p, a, r) of f_{0,n}, each (b,), for all-LF rows: the table's blocks composed.

    ``blocks`` yields each block of the rows as (depth, code), innermost
    first, a code of depth at most L (``_block_codes``, or importance
    sampling's drawn codes).  From the innermost block outward, each
    block's map is gathered by its code and composed onto the result
    (``_lf_compose``), so a row costs one gather and composition per block
    and no (b, n) array is built.  Once the bound keep^(generations
    covered) falls below 2^-512, p is carried with an exponent, as in
    ``_lf_suffix``.
    """

    def gather(d, code):
        return np.take(table.stats, table.start[d] + code, axis=1)

    blocks = iter(blocks)
    d, code = next(blocks)
    p, a, r = gather(d, code)
    e, bound = 0, table.bounds[d]
    for d, code in blocks:
        bound *= table.bounds[d]
        p, e, a, r = _lf_compose(gather(d, code), p, e, a, r, bound < _TINY)
    return np.ldexp(p, -512 * e) if bound < _TINY else p, a, r


def composed_rows(
    states: tuple[OffspringLaw, ...], blocks: list[tuple[int, np.ndarray]], width: int
) -> np.ndarray:
    """Rows (b, width) of f_{0,n} for all-LF rows given as block codes, innermost first.

    The codes index the block table of ``states``, which must exist (every
    state LF and ``block_length`` at least 1), at depths at most its L;
    the rows are those ``horizon_rows`` composes for the same environments
    in a block of more than one row.
    """
    return _lf_layers(*_lf_composed(_lf_block_table(states), blocks), width)


def composed_stats(
    states: tuple[OffspringLaw, ...], blocks: list[tuple[int, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, a, r) of f_{0,n}, each (b,), for the block codes ``composed_rows`` takes.

    Public beside ``composed_rows`` because importance sampling needs only
    p and a where Z_0 = 1 (the mass on 1..J is p (1 - (1 - a)^J)) and the
    rows, to raise to the power Z_0, elsewhere.
    """
    return _lf_composed(_lf_block_table(states), blocks)


def _lf_compose(outer: np.ndarray, p, e, a, r, carry: bool):
    """(p, e, a, r) of the ``outer`` block's map, rows (p, a, r), after the map (p, e, a, r).

    In u = 1 - s the map of statistics (p, a, r) is u -> p u / (a + r u),
    with a + r = 1.  So the outer (p1, a1, r1) after the inner (p2, a2, r2)
    has D = a1 + r1 p2, p = p1 p2 / D, a = a1 a2 / D and
    r = (a1 r2 + r1 p2) / D, every term nonnegative.  With ``carry`` the
    inner survival is the mantissa p times 2^(-512 e): its value enters D
    and r, and the new mantissa, formed at one 2^512 above the inner's so
    that no product is subnormal, is brought back into [2^-512, 1) with
    its exponent, e = 0 wherever p >= 2^-512; a block may move p by many
    powers of 2^512.  Without ``carry`` e is returned as given.
    """
    p1, a1, r1 = outer
    x = r1 * (np.ldexp(p, -512 * e) if carry else p)
    d = a1 + x
    a, r = a1 * a / d, (a1 * r + x) / d
    if not carry:
        return p1 * p / d, e, a, r
    y = p1 * np.ldexp(p, 512) / d  # the new p times 2^(512 (e + 1))
    e_new = np.maximum(e + 1 - (np.frexp(y)[1] + 511) // 512, 0)
    return np.ldexp(y, 512 * (e_new - e - 1)), e_new, a, r


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


def _power_ladder(
    laws: list[OffspringLaw], c: np.ndarray, out: list[np.ndarray] | None = None,
    work: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Rows of ``law.pgf(c)`` for every law of ``laws``, from one ladder of powers of c.

    A finite law's rows sum_j q_j c^j are accumulated while the ladder
    climbs: c^2 by ``sqr_rows``, each higher power by ``mul_rows`` from the
    one before it, up to the largest finite degree D.  That is D - 1
    products for all the laws, where a Horner scheme per law makes
    sum_a (d_a - 1), at the price of a scaled add per nonzero coefficient.
    An LF law takes ``apply_law_rows``.  Beside the children only the
    current power, the one before it and one scaled term are held, so
    memory does not grow with D.

    ``out`` holds one block per law; ``work`` holds the term block and one
    power block, or two from D = 3.  Each is shaped like c and shares no
    memory with it; where None they are allocated.
    """
    degree = max((len(law.probs) - 1 for law in laws if isinstance(law, FiniteLaw)), default=0)
    out = [np.empty_like(c) for _ in laws] if out is None else out
    if work is None:
        work = [np.empty_like(c) for _ in range(min(degree, 3) if degree > 1 else 0)]
    for law, kid in zip(laws, out):
        if isinstance(law, FiniteLaw):
            np.multiply(law.prob(1), c, out=kid)
            kid[:, 0] += law.probs[0]
        else:
            apply_law_rows(law, c, out=kid)
    power = c
    for j in range(2, degree + 1):
        # c^j alternates between the power blocks, never the one it reads
        power = sqr_rows(c, out=work[1]) if j == 2 else mul_rows(power, c, out=work[1 + j % 2])
        for law, kid in zip(laws, out):
            if isinstance(law, FiniteLaw) and law.prob(j) != 0.0:
                kid += np.multiply(law.probs[j], power, out=work[0])
    return out


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

    For rows whose laws are all LF: one ``_lf_suffix`` at width T + 1, the
    coefficient it reads (so r is carried), with only r layered, since p and
    a are read at generation 0 alone; then powers of r as running products,
    scaled in place.
    """
    p, a, r = _lf_suffix(states, idx, target + 1, layers=False, r_layers=True)
    power = r
    for _ in range(target - 2):
        power = power * r
    return np.multiply(p[0] * a[0], power, out=power)


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
    if j_max > MAX_DEGREE:
        raise TruncationError(f"required degree {j_max} exceeds cap {MAX_DEGREE}")
    row = horizon_rows(*env._indexed, j_max + 1)
    return np.clip(pow_rows(row, z0)[0], 0.0, None)


def quenched_survival(env: EnvSequence, z0: int) -> float:
    """P(Z_n > 0 | env, Z_0 = z0) = 1 - (1 - p)^{z0}, p from ``survival_rows``.

    An all-LF environment keeps a survival p that ``1 - t_0`` rounds to 0.
    """
    if z0 < 0:
        raise ContractError("initial size must be >= 0")
    if z0 == 0:
        return 0.0
    p = float(survival_rows(*env._indexed)[0])
    return 1.0 if p >= 1.0 else -math.expm1(z0 * math.log1p(-p))


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

    # rhs: telescoped product in the log domain, a one-row call of the
    # helper behind ``mrca_rows``; 0 when a factor vanishes
    log_rhs = math.log(1.0 - t[n - 1]) - math.log(surv) + math.log(z)
    if z > 1:
        if t[0] == 0.0:
            return lhs, 0.0
        log_rhs += (z - 1) * math.log(t[0])
    states, idx = env._indexed
    log_rhs += float(_log_derivatives(states, idx[:, :-1], t[None, 1:-1]).sum())
    return lhs, math.exp(log_rhs)


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
        raise ContractError("no state has q(0) > 0 and q(j) > 0 for some j >= 1")

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


def _annealed_rows(
    model: EnvironmentModel, z0: int, horizons, j_max: int, *, only_z0: bool = False
) -> dict[int, np.ndarray]:
    """Unclipped sum over environments of w(env) * coefficients of f_{0,n}^{z0}, per horizon n.

    The state after d generations is a block with one row per environment of
    those d generations, standing for f_{n-d+1,n}.  The block grows
    breadth-first while the next block fits in ``_BLOCK_CELLS`` cells (rows
    x states x cells per row, 5 cells for an LF row whatever it carries),
    and always with a single state, whose block never widens.  Where every
    enumerated state is LF, a row is the (p, e, a, r) of ``_lf_step``, the
    levels are those of the block table (``_lf_levels``), and coefficient
    rows are built only at requested horizons (``_lf_layers``, in chunks of
    at most ``_BLOCK_CELLS`` cells), so each is the row ``horizon_rows``
    gives for its environment; otherwise a row is the series row itself, and
    its children are formed either law by law (``apply_law_rows``, a Horner
    scheme for a finite law) or all at once by ``_power_ladder``.  The ladder
    is taken where the sweep's width j_max + 1 is at least ``_LADDER_WIDTH``
    and two finite states have degree 2 or more, so that it saves a product
    per node; narrower rows gain less from a saved product than the ladder's
    scaled adds cost, and a single such state shares nothing.  The choice is
    made once per sweep, whatever the width of a breadth-first block, so
    every row of a sweep has one arithmetic and the rows of a Horner sweep
    keep their bits.

    Series blocks are column-major, so each coefficient column the kernels
    sum over is one contiguous vector.  A breadth-first block of degree D
    is padded with zero columns only to the degree maxdeg D the next
    generation can reach (maxdeg is the largest degree of a finite state;
    an LF state keeps every block at full width), and to the full width
    before an emission and at the last level: the columns it leaves out
    are exact zeros, so every value is the full-width one, bit for bit.
    ``emit`` copies its coefficient rows to row-major before the weighted
    sum, because the BLAS product sums a column-major block in another
    order and would change the last bits of certified values.

    Past that, each state's law is applied to the whole block in turn,
    depth-first, and a child has as many rows as its parent.  The descent
    is a loop over an explicit stack, not a recursion, and it owns one set
    of buffers per generation, made once per call: a child's block and
    weights are written into the buffers of its level (``out=``, the same
    arithmetic), so no node allocates a block.  A ladder sweep expands a
    node when its first child is visited, into one block per state at the
    next level, with the ladder's term and power blocks made once and
    shared by every level.
    Only the kernels' own temporaries remain (finite Horner steps, the
    series route's LF laws, ``pow_rows`` at z0 >= 2, an LF block at width 1
    and the exponent carry).  A horizon's rows are summed only where it is
    requested, in the order of a recursive depth-first sweep, so one sweep
    serves every horizon up to the largest.

    ``only_z0`` (with j_max = z0) is the Fekete sweep, which reads
    coefficient z0 alone; the other coefficients of its totals are left at
    0.  A series emission then copies only column z0 of its rows into a
    zeroed row-major buffer made once per sweep, and an LF emission at
    z0 = 1 writes [s^1] = p a into column 1 of a zeroed chunk, never
    forming 1 - p, ``_lf_layers`` or ``pow_rows`` (at z0 >= 2 it builds its
    rows as before).  Either keeps the (rows, z0 + 1) BLAS product, which
    sums column z0 in the same order, so every emitted horizon keeps its
    bits.

    At z0 = 1 the last generation is folded as well.  The horizon-n_max
    coefficient of a child f_a(g) of a depth-(n_max - 1) row g is
    [s^1] f_a(g) = f_a'(g_0) g_1, linear in the law, so the descent expands
    no block of depth n_max - 1: ``emit_children`` adds, per state a,
    w_a (wvec f_a'(g_0)) . g_1 over the block's rows, with wvec f_a'(g_0)
    formed in the level-n_max weight buffer.  An LF row has g_1 = p a and
    f_a'(g_0) = m_a / (1 + eta_a m_a p)^2, from the survival p itself
    (after the exponent carry), never from 1 - p; a series row takes
    ``law.pgf_prime`` of column 0.  At z0 >= 2, [s^z0] f_a(g)^z0 is not
    linear in the law, so nothing is folded.  The fold sums the same terms
    as the children would in another order, so horizon n_max moves by a few
    ulps.
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
    fold = only_z0 and z0 == 1

    # breadth-first to depth `top`, while the next block fits in _BLOCK_CELLS cells
    cells = 5 if model.is_lf_pure else width  # an LF row holds p, e, a, r and the weight
    top = 0
    while top < n_max and (k == 1 or k ** (top + 1) * cells <= _BLOCK_CELLS):
        top += 1

    if model.is_lf_pure:
        keep = min(1.0 - law.p0 for law, _ in states)  # every p of depth d is >= keep^d
        levels = _lf_levels(model.states, keep, top, width)

        def apply(a, block, depth, out=None):
            law = states[a][0]
            return _lf_step(law.m, law.eta_lf * law.m, *block, keep ** (depth + 1) < _TINY, out=out)

        def buffers(rows, depth):
            return (
                np.empty(rows),
                np.empty(rows, dtype=np.int64) if keep**depth < _TINY else None,
                np.empty(rows) if width > 1 else None,
                np.empty(rows) if width > 2 else None,
            )

        def survival(block, depth):
            p, e = block[0], block[1]
            return np.ldexp(p, -512 * e) if keep**depth < _TINY else p

        # one chunk of at most _BLOCK_CELLS cells of coefficient rows, shared by
        # every emission; a fold-route chunk keeps its column 0 at zero
        chunk = (np.zeros if fold else np.empty)((min(k**top, max(1, _BLOCK_CELLS // width)), width))

        def emit(block, wvec, depth):
            p, a, r = survival(block, depth), block[2], block[3]
            total = 0
            for i in range(0, len(p), len(chunk)):
                c = slice(i, i + len(chunk))
                if fold:  # [s^1] f = p a
                    rows = chunk[: len(p[c])]
                    np.multiply(p[c], a[c], out=rows[:, 1])
                else:
                    stats = [None if x is None else x[c] for x in (p, a, r)]
                    rows = pow_rows(_lf_layers(*stats, width, chunk[: len(stats[0])]), z0)
                total = total + wvec[c] @ rows
            return total

        def emit_children(block, wvec, depth, out):
            # sum_a w_a f_a'(1 - p) p a, with f_a'(1 - p) = m / (1 + eta m p)^2;
            # a descent block has at most _BLOCK_CELLS / 5 rows, and a width-2
            # chunk holds _BLOCK_CELLS / 2
            p = survival(block, depth)
            rows = chunk[: len(p)]
            np.multiply(p, block[2], out=rows[:, 1])
            total = 0
            for law, w in states:
                np.multiply(law.eta_lf * law.m, p, out=out)
                out += 1.0
                np.multiply(out, out, out=out)
                np.divide(wvec, out, out=out)
                total = total + w * law.m * (out @ rows)
            return total

    else:
        laws = [law for law, _ in states]
        degrees = [len(law.probs) - 1 for law in laws if isinstance(law, FiniteLaw)]
        # a finite law of degree d takes a series of degree D to degree d D;
        # an LF law has no finite degree, so it keeps every block at full width
        maxdeg = max(degrees) if len(degrees) == k else width
        # a sweep at least _LADDER_WIDTH wide whose ladder saves a product (two
        # finite states of degree >= 2) expands each node once into all of its
        # children (``_power_ladder``); any other applies each law in turn
        ladder = width >= _LADDER_WIDTH and sum(d >= 2 for d in degrees) >= 2
        work = []  # the ladder's term and power blocks, shared by every descent level

        def apply(a, rows, depth, out=None):
            if not ladder:
                return apply_law_rows(laws[a], rows, out=out)
            if a == 0:  # a node's first child expands it into all of them
                _power_ladder(laws, rows, out, work)
            return out[a]

        def buffers(rows, depth):
            if not ladder:
                return np.empty((rows, width), order="F")
            if not work:  # the term block and one power block, or two from degree 3
                work.extend(np.empty((rows, width), order="F") for _ in range(min(max(degrees), 3)))
            return [np.empty((rows, width), order="F") for _ in range(k)]

        def widen(rows, full):
            # the full width, or the degree one more generation can reach;
            # the columns added are zeros, exactly what the full block holds
            cols = width if full else min(width, maxdeg * (rows.shape[1] - 1) + 1)
            if cols <= rows.shape[1]:
                return rows[:, :cols]
            out = np.zeros((len(rows), cols), order="F")
            out[:, : rows.shape[1]] = rows
            return out

        # a Fekete sweep's row-major rows, sized to the largest block and shared by every emission
        chunk = np.zeros((k**top, width)) if only_z0 else None

        def emit(rows, wvec, depth):
            # the BLAS product sums a row-major block in the order the
            # certified values were first computed in; a column-major one
            # would sum differently
            p = pow_rows(widen(rows, True), z0)
            if chunk is None:
                c = np.ascontiguousarray(p)
            else:  # only column z0; the others stay zero
                c = chunk[: len(p)]
                c[:, z0] = p[:, z0]
            return wvec @ c

        def emit_children(rows, wvec, depth, out):
            # sum_a w_a f_a'(g_0) g_1, each f_a'(g_0) written into ``out``, because
            # temporaries would raise the sweep's peak memory
            t = rows[:, 0]
            c = chunk[: len(rows)]
            c[:, 1] = rows[:, 1]
            total = 0
            for law, w in states:
                law.pgf_prime(t, out=out)
                out *= wvec
                total = total + w * (out @ c)
            return total

        def grow():
            # each level only as wide as the next generation can reach, and
            # the last at full width
            rows = np.zeros((1, min(width, 2)), order="F")
            rows[0, 1:] = 1.0  # the identity row s
            for depth in range(top + 1):
                if depth:
                    c = widen(rows, False)
                    kids = _power_ladder(laws, c) if ladder else [apply_law_rows(q, c) for q in laws]
                    rows = np.concatenate(kids, out=np.empty((k * len(c), c.shape[1]), order="F"))
                    del c, kids  # not held across the yield, while the sweep reads the level
                yield widen(rows, True) if depth == top else rows

        levels = grow()

    for depth, block in enumerate(levels):
        wvec = np.concatenate([wvec * w for _, w in states]) if depth else np.ones(1)
        if depth in totals:
            totals[depth] += emit(block, wvec, depth)
    if top == n_max:
        return totals

    # depth-first: level i holds a block of depth `top + i`, and nxt[i] is
    # the next state to apply to it; a fold expands no block of depth n_max - 1
    rows = len(wvec)
    blocks = [block] + [None] * (n_max - top)
    outs = [None] + [buffers(rows, d) for d in range(top + 1, n_max + 1 - fold)]
    weights = [wvec] + [np.empty(rows) for _ in range(top + 1, n_max + 1)]
    nxt = [0] * (n_max - top + 1)
    i = 0
    while i >= 0:
        if fold and top + i == n_max - 1:
            totals[n_max] += emit_children(blocks[i], weights[i], top + i, weights[i + 1])
            i -= 1
            continue
        if top + i == n_max or nxt[i] == k:
            i -= 1
            continue
        a = nxt[i]
        nxt[i] += 1
        blocks[i + 1] = apply(a, blocks[i], top + i, out=outs[i + 1])
        np.multiply(weights[i], states[a][1], out=weights[i + 1])
        i += 1
        nxt[i] = 0
        if top + i in totals:
            totals[top + i] += emit(blocks[i], weights[i], top + i)
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

    One enumeration sweep gives every horizon, and it computes coefficient
    z0 alone (``_annealed_rows`` with ``only_z0``): each a_n with n < n_max
    is the ``annealed_pmf`` value bit for bit.  At z0 = 1 the generation
    n_max is folded into sum_a w_a f_a'(g_0) g_1 of the depth-(n_max - 1)
    rows g, which sums the same terms in another order, so a_{n_max} may
    differ from ``annealed_pmf`` in its last bits.  At z0 >= 2 the
    coefficient is not linear in the last law, and a_{n_max} too keeps its
    bits.

    Slope entries (a_n - a_{n/2}) / (n/2) are attached at even n as
    non-certified proxies that cancel the O(1) prefactor.
    """
    if z0 is None:
        z0 = smallest_reachable(model).z0
    totals = _annealed_rows(model, z0, range(1, n_max + 1), z0, only_z0=True)
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
