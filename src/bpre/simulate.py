"""Forward simulation, conditioned spine sampling, and MRCA statistics.

Randomness contract: every stochastic routine is a deterministic function of
(root_seed, index).  Single trajectories derive a counter-based Philox stream
per replicate index.  Importance sampling and both MRCA methods share one
driver, ``_map_chunks``, which gives chunk c of at most ``_CHUNK`` units the
stream (root_seed, c), built when the chunk runs, so results are
independent of the worker count (BPRE_THREADS only maps MRCA chunks to
processes, never changes the draws; importance sampling stays serial).
The MRCA lanes and ``simulate_forward`` draw an environment one
generation at a time, one raw 64-bit word per generation
(``EnvironmentModel.sample_indices``).  Importance sampling
draws it one block of L generations at a time instead, two uniforms per
block for one alias draw of the block's code (``_importance_chunk``), with
L = ``exact.block_length`` of the tilted states, so its draws depend on L
and through it on ``exact._SUFFIX_ROWS``.  In importance sampling and the
exact MRCA sampler an all-LF environment reads ``exact``'s block table,
which each process builds once per model, for every horizon, keeping
only the last, so the chunks and horizons of a model that run in one
process share one.  Trajectories, the
spine sampler's side subtrees and the rejection lane's trees grow by one
branching step, ``_generations``, which branches a forest: one tree per
environment row, individuals kept in tree order, offspring drawn by
state.  A single trajectory is a one-row forest.  The population cap
``DEFAULT_POPULATION_CAP`` holds per tree.

The conditioned sampler follows the spine construction: given survival to
the horizon, the spine parent of generation k has a brood (j, l), its size j
and the spine's position l in it, with P(j, l) ~ q(j) t_k^(l-1), where
t_k = P(Z_n = 0 | Z_k = 1).  One draw, ``_draw_brood``, serves every
generation and law family, each table normalized by its own sum, so small
survival probabilities lose no digits.  The y_k = j - l right siblings found
unconditioned subtrees, all grown in one forest pass; the l - 1 left
siblings die out by the horizon and are never materialized.  The population
at the horizon is 1 + y_n + the subtrees' head-counts.  ``geiger_sample``
draws one such population for a fixed environment.

The exact conditioned MRCA sampler simulates no tree.  For each environment,
``exact.mrca_rows`` gives the exact quenched tail masses
A_g = P(Z_n = target, MRCA in generation >= g | env), so one uniform per
proposal decides both acceptance and the age, for every law family and
every target: u < A_0 accepts, and the first g with u < A_0 - A_{g+1}
gives the age n - g.  A chunk draws its proposals' uniforms u first.
Those with u >= ``_spine_bound``, a constant per (model, target) at least
A_0 for every environment, are cut, and only the rest draw an
environment, so the chunk's draws follow its kept proposals; u and the
environment are independent, so the order leaves the law unchanged.  On
a model with a finite state, where the cut is loose, ``exact.survival_rows``,
P(Z_n > 0 | env) itself, thins the rest.  Both take the LF closed form for
environments whose laws are all linear fractional: there the survival is
the bounded LF suffix statistic p, kept however small, and
A_g = p_0 a_0 r_g^(target-1) comes from the same statistics, finite at any
horizon; their last L generations are read from the block table, with
the same bits, and a survival is composed from its blocks.  The rest take
the series route: 1 - t_0 from the width-1 extinction ladder, layers of
f_{k,n} and log-derivative products.

When the environment is random, conditioning on {Z_n = target} under the
annealed law is NOT the same as sampling an environment, conditioning on
survival, and filtering: that would over-represent low-survival
environments.  The sampler therefore accepts each environment with its
quenched probability P(Z_n = target | env), which is exact annealed
conditioning.  The rejection lane, its independent check, grows one forest
per chunk of proposals and keeps the trees with Z_n = target; their
horizon individuals are traced back together, as one (trees, target) array,
through the forest's parent arrays.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .environment import EnvironmentModel, tilt
from .errors import BudgetError, ContractError, PopulationCapError
from .exact import (
    EnvSequence, block_length, composed_rows, horizon_rows, mrca_rows, survival_rows,
)
from .laws import PROB_TOL, FiniteLaw, LinearFractionalLaw, OffspringLaw
from .pgf import pow_rows

_MASK64 = (1 << 64) - 1
DEFAULT_POPULATION_CAP = 10_000_000
PROPOSAL_CAP = 100_000_000
_CHUNK = 4096
_COPY = FiniteLaw((0.0, 1.0))  # exactly one child: carries side founders to their generation

logger = logging.getLogger(__name__)


def stream(root_seed: int, index: int) -> np.random.Generator:
    """Counter-based stream: a pure function of (root_seed, index)."""
    if root_seed < 0 or index < 0:
        raise ContractError("seed and index must be nonnegative")
    key = ((root_seed & _MASK64) << 64) | (index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def subseed(root_seed: int, *tags) -> int:
    """Derived root seed for a named subtask, stable across runs."""
    blob = repr((root_seed,) + tags).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def worker_count() -> int:
    """Worker processes from BPRE_THREADS; a malformed value warns and means 1."""
    raw = os.environ.get("BPRE_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        logger.warning("ignoring malformed BPRE_THREADS=%r; using 1 worker", raw)
        return 1
    return count


def _run_chunk(fn, root_seed: int, c: int, size: int):
    """fn(stream(root_seed, c), size): chunk c, its stream built where the chunk runs."""
    return fn(stream(root_seed, c), size)


def _map_chunks(fn, total: int, root_seed: int, workers: int) -> list:
    """[fn(stream(root_seed, c), size) for each chunk c of ``total`` units], in chunk order.

    Chunk c holds units c*_CHUNK .. min((c+1)*_CHUNK, total) - 1.  With more
    than one worker and more than one chunk the calls run in a process pool,
    which is sent (c, size) pairs in one batch per worker, so that ``fn``
    and what it carries (a model) are pickled once per worker, not once per
    chunk, and a worker whose chunks read a block table builds it once.
    Every chunk but the last holds ``_CHUNK`` units of one task, so equal
    batches are already balanced; smaller ones would only pickle ``fn`` and
    build tables more often.  Either way a chunk's stream is built when the
    chunk runs, so no more than one per worker is held at once.
    """
    chunks = -(-total // _CHUNK)
    sizes = (min(_CHUNK, total - lo) for lo in range(0, total, _CHUNK))
    run = partial(_run_chunk, fn, root_seed)
    if workers <= 1 or chunks <= 1:
        out = []
        every = max(1, chunks // 10)
        for c, size in enumerate(sizes):
            out.append(run(c, size))
            if (c + 1) % every == 0:
                logger.info("progress: %d/%d chunks", c + 1, chunks)
        return out
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(chunks), sizes, chunksize=-(-chunks // workers)))


# ---------------------------------------------------------------------------
# forward simulation


def _generations(states, idx: np.ndarray, tree: np.ndarray, rng: np.random.Generator):
    """Branch a forest through the state rows ``idx``: yield (tree, counts) per generation.

    Row r of ``idx`` holds the states of tree r, one column per generation,
    and ``tree`` the tree of each initial individual, in ascending order.
    Individuals stay in tree order, so each tree's individuals are contiguous
    in every generation.  ``counts`` are the offspring counts of the current
    individuals and the yielded ``tree`` the tree of each individual of the
    next generation.  Each generation makes one ``law.sample`` call per state
    that has individuals, in ascending state order, so a one-row forest makes
    exactly the calls of one ``law.sample(rng, z)`` per generation, and an
    extinct forest none.  A tree whose next generation would exceed
    ``DEFAULT_POPULATION_CAP`` raises PopulationCapError before that
    generation is built.
    """
    for col in idx.T:
        if tree.size == 0:  # extinct: no draw, and no offspring counts
            yield tree, tree
            continue
        present = np.bincount(col, minlength=len(states)).nonzero()[0]
        if present.size == 1:
            counts = states[present[0]].sample(rng, tree.size)
        else:  # each state's draws go back to its individuals, in tree order
            state = col[tree]
            counts = np.empty(tree.size, dtype=np.int64)
            for a in present:
                mine = state == a
                k = int(np.count_nonzero(mine))
                if k:
                    counts[mine] = states[a].sample(rng, k)
        if counts.sum() > DEFAULT_POPULATION_CAP:  # a tree may be above the cap: check each
            largest = int(np.bincount(tree, weights=counts, minlength=idx.shape[0]).max())
            if largest > DEFAULT_POPULATION_CAP:
                raise PopulationCapError(
                    f"explosive population: {largest} exceeds cap {DEFAULT_POPULATION_CAP}"
                )
        tree = tree.repeat(counts)
        yield tree, counts


def _grow(states, idx: np.ndarray, tree: np.ndarray, rng: np.random.Generator):
    """Grow a forest (see ``_generations``): (parent arrays of generations 1..n, sizes at n).

    ``parents[k]`` maps each generation-(k+1) individual to the index of its
    parent among generation k, across the whole forest.
    """
    parents = []
    for tree, counts in _generations(states, idx, tree, rng):
        parents.append(np.arange(counts.size).repeat(counts))
    return parents, np.bincount(tree, minlength=idx.shape[0])


@dataclass(frozen=True)
class Trajectory:
    sizes: tuple[int, ...]
    env: EnvSequence

    @property
    def n(self) -> int:
        return len(self.sizes) - 1


def simulate_forward(
    model: EnvironmentModel, z0: int, n: int, rng: np.random.Generator
) -> Trajectory:
    """Draw an i.i.d. environment, then per-individual offspring counts."""
    if z0 < 0:
        raise ContractError("initial size must be >= 0")
    idx = model.sample_indices(rng, (1, n))
    root = np.zeros(z0, dtype=np.int64)
    sizes = (z0,) + tuple(tree.size for tree, _ in _generations(model.states, idx, root, rng))
    return Trajectory(sizes=sizes, env=EnvSequence.from_indices(model, idx[0]))


# ---------------------------------------------------------------------------
# conditioned spine sampler (fixed environment)


@dataclass(frozen=True)
class SpineSample:
    """One draw of the population conditioned on survival to the horizon.

    ``brood[k] = (j_k, l_k)`` is the spine parent's brood in generation k
    (the z0 founders for k = 0) and the spine's position in it, drawn with
    P(j, l) ~ q(j) t_k^(l-1).  ``y_counts[k] = j_k - l_k`` counts the right
    siblings of the spine, each the founder of an unconditioned subtree;
    the left siblings are extinct by the horizon and are not materialized.
    ``subtree_finals[k]`` (k < n) is the horizon head-count of the subtrees
    founded in generation k, tree k of the side forest.
    """

    z0: int
    brood: tuple[tuple[int, int], ...]
    subtree_finals: tuple[int, ...]

    @property
    def y_counts(self) -> tuple[int, ...]:
        return tuple(j - l for j, l in self.brood)

    @property
    def n(self) -> int:
        return len(self.brood) - 1

    @property
    def z_n(self) -> int:
        return 1 + self.y_counts[-1] + sum(self.subtree_finals)

    @property
    def all_side_subtrees_dead(self) -> bool:
        return sum(self.subtree_finals) == 0


def _draw_table(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Index i drawn with probability weights[i] / sum(weights), by inversion."""
    cum = np.cumsum(weights)
    if cum.size == 0 or not 0.0 < cum[-1] < math.inf:
        raise ContractError("brood weights vanish or are not finite")
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


def _draw_brood(law: OffspringLaw, t: float, rng: np.random.Generator) -> tuple[int, int]:
    """Brood size j and spine position l, 1 <= l <= j, with P(j, l) ~ q(j) t^(l-1).

    The right-sibling count y = j - l is drawn first, with weights
    S_y = sum_{j>y} q(j) t^(j-y-1) from S_{y-1} = q(y) + t S_y, then l given
    y with weights q(l+y) t^(l-1).  For LF laws both are geometric:
    P(y) ~ c^y and P(l | y) ~ (c t)^(l-1), c the law's ratio.  Every table
    is normalized by its own sum.
    """
    if isinstance(law, LinearFractionalLaw):
        c = law.ratio
        y = int(rng.geometric(1.0 - c)) - 1 if c > 0.0 else 0
        l = int(rng.geometric(1.0 - c * t)) if c * t > 0.0 else 1
        return l + y, l
    q = law.probs
    kmax = law.max_support
    suffix = np.zeros(kmax)
    s = 0.0
    for i in range(kmax, 0, -1):
        s = q[i] + t * s
        suffix[i - 1] = s
    y = _draw_table(suffix, rng)
    l = 1 + _draw_table(law._arr[y + 1 : kmax + 1] * t ** np.arange(kmax - y), rng)
    return l + y, l


def geiger_sample(env: EnvSequence, z0: int, rng: np.random.Generator) -> SpineSample:
    """Sample the horizon population conditioned on {Z_n > 0} for a fixed env.

    With t_k = P(Z_n = 0 | Z_k = 1, env), the spine is the leftmost founder or
    child whose line survives.  Among the z0 founders its position l has
    P(l) ~ t_0^(l-1); in generation k = 1..n its parent's brood (j, l) comes
    from ``_draw_brood`` at t_k.  The y_k = j - l right siblings found
    unconditioned subtrees, grown in one ``_generations`` pass over a forest
    whose tree k holds the y_k side founders of generation k; a copy state
    with exactly one child carries them to that generation.  The pass is
    skipped when no side subtree exists.  Siblings left of the spine die out
    by the horizon and are never drawn.
    """
    if z0 < 1:
        raise ContractError("initial size must be >= 1")
    n = env.n
    if n < 1:
        raise ContractError("need at least one generation")
    t = env.extinction_ladder()
    if 1.0 - t[0] ** z0 <= 0.0:
        raise ContractError("conditioning on null event: quenched survival is 0")

    y = np.zeros(n + 1, dtype=np.int64)
    y[0] = _draw_table(t[0] ** np.arange(z0 - 1, -1, -1), rng) if z0 > 1 else 0
    brood = [(z0, z0 - int(y[0]))]
    for k in range(1, n + 1):
        j, l = _draw_brood(env.laws[k - 1], float(t[k]), rng)
        y[k] = j - l
        brood.append((j, l))

    finals = np.zeros(n, dtype=np.int64)
    side = y[:n].nonzero()[0]
    if side.size:
        states, idx = env._indexed
        cols = np.arange(side[0], n)
        rows = np.where(cols < side[:, None], len(states), idx[0, cols])
        tree = np.arange(side.size).repeat(y[side])
        for tree, _ in _generations(states + (_COPY,), rows, tree, rng):
            pass
        finals[side] = np.bincount(tree, minlength=side.size)
    return SpineSample(z0=z0, brood=tuple(brood), subtree_finals=tuple(finals.tolist()))


# ---------------------------------------------------------------------------
# importance sampling for annealed small-value probabilities


@dataclass(frozen=True)
class ImportanceEstimate:
    estimate: float
    std_error: float
    nu: float
    mu: float
    replicates: int


def _alias_table(law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias table (q, alias) of the law proportional to ``law``, N entries.

    A draw takes an entry i uniformly and keeps it with probability q[i],
    else takes alias[i], so entry i has probability
    (q[i] + sum over j with alias[j] = i of (1 - q[j])) / N.  The shares
    N law / sum(law) at or above 1 give to those below 1 until none is
    left on one side, and a share left over keeps q = 1.  The shares'
    roundings leave their sum off N, by up to about N 2^-53 from the one
    rounding of N / sum(law), and whatever is off at the end falls on the
    share that gives last, relative to it.  So that excess (``math.fsum``)
    is first taken back one ulp at a time from the largest shares, which
    leaves less than one ulp of the largest, and the largest gives last.
    """
    size = law.size
    share = law * (size / law.sum())
    q = share.tolist()
    excess = math.fsum(q + [-size])
    order = np.argsort(share)[::-1]
    if excess:
        top = share[order]
        nudged = np.nextafter(top, -math.copysign(math.inf, excess))
        take = np.searchsorted(np.cumsum(np.abs(top - nudged)), abs(excess))
        share[order[:take]] = nudged[:take]
        q = share.tolist()
    alias = list(range(size))
    small = np.flatnonzero(share < 1.0).tolist()
    large = order[share[order] >= 1.0].tolist()  # the largest at the bottom, so it gives last
    while small and large:
        i, j = small.pop(), large[-1]
        alias[i] = j
        q[j] -= 1.0 - q[i]
        if q[j] < 1.0:
            small.append(large.pop())
    for i in small + large:
        q[i] = 1.0
    return np.array(q), np.array(alias, dtype=np.intp)


class _CodeLevel(NamedTuple):
    """Codes of the blocks of ``depth`` generations of one model, with their alias table.

    Code c has the state of digit j of c in base K = len(states) at the
    block's generation j, outermost first and most significant first, the
    order of ``exact``'s block table.  Its probability is the product of
    the model's weights over its digits, drawn through the alias table
    (``q``, ``alias``) of that law; ``walk[c]`` is the sum of the walk
    increments x over its digits, -inf where one has mean 0.  ``digits``,
    (N, depth), holds the states of each code, None where no row expands
    its codes.
    """

    depth: int
    q: np.ndarray
    alias: np.ndarray
    walk: np.ndarray
    digits: np.ndarray | None

    def draw(self, u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
        """Codes of uniforms u0, u1: i = min(floor(u0 N), N - 1) if u1 < q[i], else alias[i]."""
        size = self.q.size
        i = np.minimum((u0 * size).astype(np.intp), size - 1)
        return np.where(u1 < self.q[i], i, self.alias[i])


def _code_level(model: EnvironmentModel, depth: int, expand: bool) -> _CodeLevel:
    """The ``_CodeLevel`` of blocks of ``depth`` generations, with ``digits`` where ``expand``."""
    law, walk = np.ones(1), np.zeros(1)
    w, x = np.asarray(model.weights), np.asarray(model.x_values)
    for _ in range(depth):  # the new digit is the least significant
        law = np.multiply.outer(law, w).ravel()
        walk = np.add.outer(walk, x).ravel()
    digits = np.indices((len(w),) * depth).reshape(depth, -1).T.copy() if expand else None
    return _CodeLevel(depth, *_alias_table(law), walk, digits)


class _Blocks(NamedTuple):
    """The blocks of one horizon n under one model, as importance sampling draws them.

    ``groups`` holds (level, count) from the outermost: one block of the
    first n mod L generations where L does not divide n, then n // L
    blocks of L generations, where n >= L.  L is ``exact.block_length`` of
    the states, at least 1.  ``composed`` is whether the rows are composed
    from the codes (every state LF, with a block table of length L);
    elsewhere the levels carry their digits and the codes are expanded
    into states.
    """

    groups: tuple[tuple[_CodeLevel, int], ...]
    composed: bool

    @classmethod
    def of(cls, model: EnvironmentModel, n: int) -> "_Blocks":
        length = block_length(model.states)
        composed = model.is_lf_pure and length > 0
        length = max(length, 1)
        counts = ((n % length, 1 if n % length else 0), (length, n // length))
        groups = tuple((_code_level(model, d, not composed), c) for d, c in counts if c)
        return cls(groups, composed)


def _quenched_small_value_rows(
    states: tuple[OffspringLaw, ...], idx: np.ndarray, z0: int, j_max: int
) -> np.ndarray:
    """Exact P(1 <= Z_n <= j_max | env) for each environment row of idx."""
    return pow_rows(horizon_rows(states, idx, j_max + 1), z0)[:, 1:].sum(axis=1)


def _importance_chunk(
    tilted: EnvironmentModel, mu: float, z0: int, n: int, j_max: int, nu: float,
    blocks: _Blocks, rng, size: int,
) -> np.ndarray:
    """Values p(env) mu^n exp(nu S_n) of ``size`` environments drawn from the ``tilted`` model.

    Each environment is drawn as its blocks' codes (``_Blocks``): the chunk
    draws ``rng.random((2, blocks, size))``, an index uniform and a coin
    for each block of each row, outermost block first, and each code is
    one alias draw (``_CodeLevel.draw``).  S_n is the sum of the codes'
    walks, and at nu = 0 the weight is mu^n alone.  Where
    ``blocks.composed`` the rows are composed from the codes through the
    block table of the tilted states (the model's own: a tilt moves only
    the weights; ``exact.composed_rows``), one gather and composition per
    block and no (size, n) array; they agree with the
    generation-by-generation recursion to rounding, not bit for bit.
    Elsewhere the codes are expanded into the (size, n) states by their
    digits and take ``horizon_rows``.  A row with p = 0 has the value 0.
    """
    u = rng.random((2, sum(count for _, count in blocks.groups), size))
    drawn, row = [], 0
    for level, count in blocks.groups:  # codes (count, size), a row per block
        drawn.append((level, level.draw(u[0, row : row + count], u[1, row : row + count])))
        row += count
    if blocks.composed:
        codes = [(level.depth, code) for level, block in drawn for code in block][::-1]
        rows = composed_rows(tilted.states, codes or [(0, np.zeros(size, np.intp))], j_max + 1)
        probs = pow_rows(rows, z0)[:, 1:].sum(axis=1)
    else:
        idx = [level.digits[block.T].reshape(size, -1) for level, block in drawn]
        probs = _quenched_small_value_rows(
            tilted.states, np.hstack(idx) if idx else np.zeros((size, 0), np.intp), z0, j_max
        )
    log_w = n * math.log(mu)
    if nu:
        log_w = log_w + sum(nu * level.walk[block].sum(axis=0) for level, block in drawn)
    with np.errstate(divide="ignore"):
        log_p = np.log(np.clip(probs, 0.0, None))
    return np.exp(log_p + log_w)


def importance_estimate(
    model: EnvironmentModel,
    z0: int,
    n: int,
    j_max: int,
    nu: float,
    replicates: int,
    root_seed: int,
) -> ImportanceEstimate:
    """Unbiased tilted estimator of the annealed P(1 <= Z_n <= j_max).

    Environments are drawn under the exp(-nu X) tilt; each quenched
    small-value probability is computed exactly and reweighted by
    mu^n exp(nu S_n), which removes the tilt in expectation.  Each value is
    exp(log p + log w), so a zero probability never meets an infinite
    weight; the mean and standard error are taken of the values divided by
    their maximum and scaled back, so squares of tiny values do not
    underflow.  A value that still overflows raises ContractError, and more
    than ``PROPOSAL_CAP`` replicates raise BudgetError before any draw.

    Each environment is drawn as the codes of its blocks of L generations
    (``_Blocks``), one alias draw per block; the alias tables of the one or
    two block lengths the horizon uses are built once per call, from the
    tilted weights, and passed to every chunk.  The chunks run serially,
    in one process, and on an all-LF model share the block table of the
    model's states, which ``exact`` builds at most once and keeps for every
    horizon until a call with another model: each row is composed from its
    drawn codes, about n / L draws, gathers and compositions, and S_n is
    the sum of their n / L walks.
    """
    if replicates < 1:
        raise ContractError("replicates must be >= 1")
    if replicates > PROPOSAL_CAP:
        raise BudgetError(f"replicate budget {replicates} exceeds cap {PROPOSAL_CAP}")
    tilted, mu = tilt(model, nu)
    fn = partial(_importance_chunk, tilted, mu, z0, n, j_max, nu, _Blocks.of(tilted, n))
    values = np.concatenate(_map_chunks(fn, replicates, root_seed, 1))
    scale = float(values.max())
    if not math.isfinite(scale):
        raise ContractError(f"importance estimate overflows at tilt nu={nu!r}")
    if scale > 0.0:
        values /= scale
    est = scale * float(values.mean())
    se = scale * float(values.std(ddof=1)) / math.sqrt(replicates) if replicates > 1 else math.inf
    return ImportanceEstimate(estimate=est, std_error=se, nu=nu, mu=mu, replicates=replicates)


# ---------------------------------------------------------------------------
# MRCA conditioned on a small horizon population


@dataclass(frozen=True)
class MrcaDistribution:
    n: int
    target_size: int
    method: str
    counts: dict[int, int]
    accepted: int
    proposed: int

    def pmf(self, k: int) -> float:
        if self.accepted == 0:
            return math.nan
        return self.counts.get(k, 0) / self.accepted

    def mass_above(self, threshold: float) -> float:
        return sum(v for k, v in self.counts.items() if k > threshold) / self.accepted


def _merge_counts(parts) -> tuple[dict[int, int], int]:
    counts: dict[int, int] = {}
    accepted = 0
    for part in parts:
        for k, v in part.items():
            counts[k] = counts.get(k, 0) + v
            accepted += v
    return counts, accepted


def _spine_bound(model: EnvironmentModel, target: int) -> float:
    """An upper bound on A_0 = P(Z_n = target | env) over every environment of ``model``, any n.

    A_0 <= P(Z_n > 0 | env) <= P(Z_1 > 0 | env) <= kappa = max_a (1 - q_a(0)).
    Where every state is LF, A_0 = p_0 a_0 r_0^(T-1) (``exact.mrca_rows``)
    with p_0 the survival and a_0 + r_0 = 1, and a r^(T-1) on a + r = 1 is
    largest at r = 1 - 1/T, so A_0 <= kappa c with c = (1 - 1/T)^(T-1) / T;
    otherwise c = 1.  The factor 1 + 2^-20 covers the rounding of the row
    arithmetic over up to ``MAX_DEGREE`` generations.  The added
    ``PROB_TOL`` covers 1 - q(0) where it cancels (q(0) near 1) and a
    finite law whose stored probabilities sum to 1 only within
    ``PROB_TOL``.  The bound is capped at 1.
    """
    kappa = max(1.0 - law.p0 for law in model.states)
    c = (1.0 - 1.0 / target) ** (target - 1) / target if model.is_lf_pure else 1.0
    return min(1.0, kappa * c * (1.0 + 2.0**-20) + PROB_TOL)


def _tally(ages: np.ndarray, n: int) -> dict[int, int]:
    """{age: count} of MRCA ages in 0..n, ascending, nonzero counts only."""
    counts = np.bincount(ages, minlength=n + 1)
    values = counts.nonzero()[0]
    return dict(zip(values.tolist(), counts[values].tolist()))


def _mrca_spine_chunk(
    model: EnvironmentModel, n: int, target: int, rng: np.random.Generator, size: int
) -> dict[int, int]:
    """One proposal chunk of the exact MRCA sampler; returns MRCA counts.

    Every step is batched over the chunk.  The chunk draws one uniform u
    per proposal, ``rng.random(size)``.  Proposals with u >= ``_spine_bound``
    cannot accept and are cut before they draw an environment; the kept
    ones then draw theirs, ``sample_indices`` of (kept, n) raw words, the
    words ``rng.random((kept, n))`` would turn into doubles, with the same
    states, so a cut proposal costs one word of the stream and no (n,)
    row.  On a model with a finite state the bound may be 1, and
    ``exact.survival_rows`` keeps the proposals with
    u < P(Z_n > 0 | env), which loses nothing because
    P(Z_n = target | env) is at most that.  For the kept ones,
    ``exact.mrca_rows`` gives the tail masses A_g of the MRCA generation g;
    u < A_0 = P(Z_n = target | env) accepts, and the first g with
    u < A_0 - A_{g+1} gives the age n - g.  Every row value is computed by
    row-wise arithmetic, so neither cut changes an accepted row or an age.
    Both passes read each all-LF row from the block table of the model's
    states, built by the first chunk of a process and kept for the rest and
    for other horizons: ``mrca_rows`` gathers the last L generations, with
    the same bits, and ``survival_rows`` composes the row from its blocks.
    """
    u = rng.random(size)
    u = u[u < _spine_bound(model, target)]
    idx = model.sample_indices(rng, (u.size, n))
    if not model.is_lf_pure:
        live = u < survival_rows(model.states, idx)
        idx, u = idx[live], u[live]
    a = mrca_rows(model.states, idx, target)
    hit = u < a[:, 0]
    return _tally(n - np.argmax(u[hit, None] < a[hit, :1] - a[hit, 1:], axis=1), n)


def _forest_mrca_ages(parents: list[np.ndarray], sizes: np.ndarray, target: int) -> np.ndarray:
    """MRCA ages of the trees of a forest with ``target`` horizon individuals, in tree order.

    The horizon individuals of those trees form one (trees, target) array,
    traced back one generation per step through the parent arrays of
    ``_grow``; a tree's age is the first step at which its row is one
    ancestor.
    """
    trees = (sizes == target).nonzero()[0]
    first = np.cumsum(sizes) - sizes
    line = first[trees, None] + np.arange(target)
    ages = np.zeros(trees.size, dtype=np.int64)
    for k, parent in enumerate(reversed(parents), 1):
        line = parent[line]
        ages[(ages == 0) & (line == line[:, :1]).all(axis=1)] = k
    return ages


def _mrca_rejection_chunk(
    model: EnvironmentModel, n: int, target: int, rng: np.random.Generator, size: int
) -> dict[int, int]:
    """One chunk of forward trees from Z_0 = 1; returns MRCA counts of those with Z_n = target.

    The chunk's environments come from one ``sample_indices`` call and its
    trees grow together as one forest (``_grow``), so the chunk's whole
    genealogy is held at once.
    """
    idx = model.sample_indices(rng, (size, n))
    return _tally(_forest_mrca_ages(*_grow(model.states, idx, np.arange(size), rng), target), n)


def conditioned_mrca_sample(
    model: EnvironmentModel,
    n: int,
    target_size: int,
    method: str,
    proposals: int,
    root_seed: int,
) -> MrcaDistribution:
    """Empirical law of MRCA_n given Z_n = target_size, Z_0 = 1.

    Method "geiger" samples the exact law (``_mrca_spine_chunk``) for every
    model and target: each environment is accepted with its quenched
    probability P(Z_n = target | env) and its MRCA age is drawn from the
    quenched law of ``exact.mrca_rows``, with one uniform per proposal and
    no tree simulated; that uniform is drawn first, and only proposals with
    u < ``_spine_bound`` draw an environment.  Each process builds one
    block table of the model's states, for every horizon, and keeps only
    the last, and every chunk it runs reads the last L generations of its
    all-LF rows from it; for n up to L no row steps at all.
    Method "rejection" simulates full forward trees, one forest per chunk of
    at most ``_CHUNK`` trees whose genealogy is held at once, and raises
    PopulationCapError when one tree's population exceeds
    ``DEFAULT_POPULATION_CAP``.  ``proposals`` counts uniforms u, cut or
    not (geiger), or trees (rejection); the accepted sample count is random.
    Proposals are drawn in chunks seeded by index (``_map_chunks``), so the
    result is a pure function of (model, n, target_size, method, proposals,
    root_seed), whatever the number of worker processes ``BPRE_THREADS``
    asks for (``worker_count``).
    """
    if target_size < 2:
        raise ContractError("target size must be >= 2 for a meaningful MRCA")
    if n < 1:
        raise ContractError("horizon must be >= 1")
    if proposals < 1:
        raise ContractError("need at least one proposal")
    if proposals > PROPOSAL_CAP:
        raise BudgetError(f"proposal budget {proposals} exceeds cap {PROPOSAL_CAP}")
    if method not in ("geiger", "rejection"):
        raise ContractError(f"unknown method {method!r}")

    logger.info(
        "conditioned MRCA: %s proposals (method=%s, n=%s, target=%s)",
        proposals, method, n, target_size,
    )
    chunk = _mrca_rejection_chunk if method == "rejection" else _mrca_spine_chunk
    fn = partial(chunk, model, n, target_size)
    counts, accepted = _merge_counts(_map_chunks(fn, proposals, root_seed, worker_count()))
    if accepted == 0:
        raise ContractError(
            f"zero accepted replicates out of {proposals} proposals "
            f"(acceptance rate < {1.0 / proposals:.2e}); raise the proposal budget"
        )
    return MrcaDistribution(
        n=n,
        target_size=target_size,
        method=method,
        counts=counts,
        accepted=accepted,
        proposed=proposals,
    )
