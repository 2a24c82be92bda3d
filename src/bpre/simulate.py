"""Forward simulation, conditioned spine sampling, and MRCA statistics.

Randomness contract: every stochastic routine is a deterministic function of
(root_seed, index).  Single trajectories derive a counter-based Philox stream
per replicate index.  Importance sampling and both MRCA methods share one
driver, ``_map_chunks``, which gives chunk c of at most ``_CHUNK`` units the
stream (root_seed, c), so results are independent of the worker count
(BPRE_THREADS only maps MRCA chunks to processes, never changes the draws;
importance sampling stays serial).  Trajectories, trees and the spine
sampler's side subtrees grow by one branching step, ``_generations``.

The conditioned sampler follows the spine construction: given survival to
the horizon, the counts Y_k of unconditioned subtrees founded to the right
of the surviving line have explicit one-dimensional laws (geometric sums in
closed form for LF laws, direct summation for finite laws), and the
population at the horizon is 1 + Y_n + sum of the subtree survivor counts.
Trees conditioned on extinction to the left of the line carry no horizon
individuals and are never materialized.  ``geiger_sample`` draws one such
population for a fixed environment, simulating each side subtree forward.

The conditioned MRCA sampler simulates no tree.  For each environment,
``exact.mrca_rows`` gives the exact quenched law
P(Z_n = target, MRCA age a | env) from the layers of ``exact.horizon_rows``
(the kernel behind importance sampling too), so one uniform per proposal
decides both acceptance and the age, for every law family and every target.
That kernel takes the LF closed form for environments whose laws are all
linear fractional and the series route for the rest, so survival thinning,
acceptance and the importance-sampling rows use closed-form values on LF
models.

When the environment is random, conditioning on {Z_n = target} under the
annealed law is NOT the same as sampling an environment, conditioning on
survival, and filtering: that would over-represent low-survival
environments.  The sampler therefore accepts each environment with its
quenched probability P(Z_n = target | env), which is exact annealed
conditioning.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .environment import EnvironmentModel, tilt
from .errors import BudgetError, ContractError, PopulationCapError
from .exact import EnvSequence, horizon_rows, mrca_rows
from .laws import FiniteLaw, LinearFractionalLaw, OffspringLaw
from .pgf import pow_rows

_MASK64 = (1 << 64) - 1
DEFAULT_POPULATION_CAP = 10_000_000
PROPOSAL_CAP = 100_000_000
_CHUNK = 4096

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


def _map_chunks(fn, total: int, root_seed: int, workers: int) -> list:
    """[fn(stream(root_seed, c), size) for each chunk c of ``total`` units], in chunk order.

    Chunk c holds units c*_CHUNK .. min((c+1)*_CHUNK, total) - 1.  With more
    than one worker and more than one chunk the calls run in a process pool.
    """
    sizes = [min(_CHUNK, total - lo) for lo in range(0, total, _CHUNK)]
    streams = [stream(root_seed, c) for c in range(len(sizes))]
    if workers <= 1 or len(sizes) <= 1:
        out = []
        every = max(1, len(sizes) // 10)
        for c, (rng, size) in enumerate(zip(streams, sizes)):
            out.append(fn(rng, size))
            if (c + 1) % every == 0:
                logger.info("progress: %d/%d chunks", c + 1, len(sizes))
        return out
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, streams, sizes))


# ---------------------------------------------------------------------------
# forward simulation


def _generations(laws, z: int, rng: np.random.Generator):
    """Branch z individuals through ``laws``: yield (size, offspring counts) per generation.

    An extinct generation yields (0, None) and makes no draw.  A size above
    ``DEFAULT_POPULATION_CAP`` raises PopulationCapError.
    """
    for law in laws:
        if z == 0:
            yield 0, None
            continue
        counts = law.sample(rng, z)
        z = int(counts.sum())
        if z > DEFAULT_POPULATION_CAP:
            raise PopulationCapError(
                f"explosive population: {z} exceeds cap {DEFAULT_POPULATION_CAP}"
            )
        yield z, counts


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
    env = EnvSequence.from_indices(model, model.sample_indices(rng, n))
    sizes = (z0,) + tuple(z for z, _ in _generations(env.laws, z0, rng))
    return Trajectory(sizes=sizes, env=env)


@dataclass(frozen=True)
class GenealogyTree:
    """Rooted plane forest of a realized population.

    ``parents[k]`` (k >= 1) maps each generation-k individual, in
    left-to-right (breadth-first) order, to the index of its parent in
    generation k-1.
    """

    z0: int
    parents: tuple[np.ndarray, ...]
    env: EnvSequence

    @property
    def n(self) -> int:
        return len(self.parents) - 1

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.z0,) + tuple(arr.size for arr in self.parents[1:])


def simulate_tree(
    model: EnvironmentModel, z0: int, n: int, rng: np.random.Generator
) -> GenealogyTree:
    if z0 < 0:
        raise ContractError("initial size must be >= 0")
    env = EnvSequence.from_indices(model, model.sample_indices(rng, n))
    empty = np.empty(0, dtype=np.int64)
    parents = [empty] + [
        empty if counts is None else np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        for _, counts in _generations(env.laws, z0, rng)
    ]
    return GenealogyTree(z0=z0, parents=tuple(parents), env=env)


def mrca(tree: GenealogyTree) -> int:
    """Minimal k such that all horizon individuals share one ancestor at n-k."""
    n = tree.n
    sizes = tree.sizes
    if n < 1:
        raise ContractError("tree has no past generations")
    if sizes[n] < 1:
        raise ContractError("no survivors at the horizon")
    cur = np.arange(sizes[n], dtype=np.int64)
    for k in range(1, n + 1):
        cur = np.unique(tree.parents[n - k + 1][cur])
        if cur.size == 1:
            return k
    raise ContractError("MRCA undefined for forest: no common ancestor at generation 0")


# ---------------------------------------------------------------------------
# conditioned spine sampler (fixed environment)


@dataclass(frozen=True)
class SpineSample:
    """One draw of the population conditioned on survival to the horizon.

    ``y_counts[k]`` is the number of unconditioned subtrees founded to the
    right of the surviving line in generation k; ``brood[k] = (z_k, l_k)``
    records the spine parent's offspring count and the spine's position in
    it (positions are within the brood; trees left of the line are extinct
    by the horizon and are not materialized).  ``subtree_finals[k]`` is the
    horizon head-count of the subtree founded at generation k.
    """

    z0: int
    y_counts: tuple[int, ...]
    brood: tuple[tuple[int, int], ...]
    subtree_finals: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.y_counts) - 1

    @property
    def z_n(self) -> int:
        return 1 + self.y_counts[-1] + sum(self.subtree_finals)

    @property
    def all_side_subtrees_dead(self) -> bool:
        return sum(self.subtree_finals) == 0


def _y0_table(t0: float, z0: int) -> np.ndarray:
    surv = 1.0 - t0**z0
    return np.array([(1.0 - t0) * t0 ** (z0 - i - 1) / surv for i in range(z0)])


def _yk_table(law: FiniteLaw, tk: float, p_ratio: float) -> np.ndarray:
    kmax = law.max_support
    probs = np.zeros(max(kmax, 1))
    for i in range(kmax):
        probs[i] = p_ratio * sum(
            law.prob(j) * tk ** (j - i - 1) for j in range(i + 1, kmax + 1)
        )
    return probs


def _draw_table(probs: np.ndarray, rng: np.random.Generator) -> int:
    total = probs.sum()
    if not 0.999999999 < total < 1.000000001:
        raise ContractError("conditioned offspring table does not normalize")
    return int(np.searchsorted(np.cumsum(probs / total), rng.random(), side="right"))


def _draw_y(law: OffspringLaw, tk: float, p_ratio: float, rng) -> int:
    # at the terminal row t_n = 0 and the generic table collapses to
    # q(i+1) / p_{n-1,n} via 0**0 = 1
    if isinstance(law, LinearFractionalLaw):
        c = law.ratio
        if c == 0.0:
            return 0
        return int(rng.geometric(1.0 - c)) - 1
    return _draw_table(_yk_table(law, tk, p_ratio), rng)


def _draw_spine_position(law: OffspringLaw, tk: float, y: int, rng) -> int:
    """Spine position l >= 1 in its brood given y right-siblings: P(l) ~ q(l+y) t^(l-1)."""
    if isinstance(law, LinearFractionalLaw):
        if law.ratio * tk == 0.0:
            return 1
        return int(rng.geometric(1.0 - law.ratio * tk))
    kmax = law.max_support
    ls = np.arange(1, kmax - y + 1)
    if ls.size == 0:
        raise ContractError("spine position table empty")
    weights = np.array(
        [law.prob(l + y) * (tk ** (l - 1) if l > 1 else 1.0) for l in ls]
    )
    total = weights.sum()
    if total <= 0.0:
        raise ContractError("spine position weights vanish")
    return int(ls[np.searchsorted(np.cumsum(weights / total), rng.random(), side="right")])


def _subtree_final(env: EnvSequence, start_gen: int, size: int, rng) -> int:
    """Horizon head-count of an unconditioned subtree founded at start_gen."""
    z = size
    for z, _ in _generations(env.laws[start_gen:], size, rng):
        if z == 0:
            break
    return z


def geiger_sample(env: EnvSequence, z0: int, rng: np.random.Generator) -> SpineSample:
    """Sample the horizon population conditioned on {Z_n > 0} for a fixed env."""
    if z0 < 1:
        raise ContractError("initial size must be >= 1")
    n = env.n
    if n < 1:
        raise ContractError("need at least one generation")
    t = env.extinction_ladder()
    if 1.0 - t[0] ** z0 <= 0.0:
        raise ContractError("conditioning on null event: quenched survival is 0")

    y = np.zeros(n + 1, dtype=np.int64)
    brood: list[tuple[int, int]] = []
    y[0] = _draw_table(_y0_table(t[0], z0), rng) if z0 > 1 else 0
    brood.append((z0, z0 - int(y[0])))
    for k in range(1, n + 1):
        law = env.laws[k - 1]
        p_ratio = (1.0 - t[k]) / (1.0 - t[k - 1])
        yk = _draw_y(law, t[k], p_ratio, rng)
        y[k] = yk
        l = _draw_spine_position(law, t[k], yk, rng)
        brood.append((l + yk, l))

    finals = []
    for k in range(n):
        if y[k] == 0:
            finals.append(0)
            continue
        finals.append(_subtree_final(env, k, int(y[k]), rng))
    return SpineSample(
        z0=z0,
        y_counts=tuple(int(v) for v in y),
        brood=tuple(brood),
        subtree_finals=tuple(finals),
    )


# ---------------------------------------------------------------------------
# importance sampling for annealed small-value probabilities


@dataclass(frozen=True)
class ImportanceEstimate:
    estimate: float
    std_error: float
    nu: float
    mu: float
    replicates: int


def _quenched_small_value_rows(
    states: tuple[OffspringLaw, ...], idx: np.ndarray, z0: int, j_max: int
) -> np.ndarray:
    """Exact P(1 <= Z_n <= j_max | env) for each environment row of idx."""
    return pow_rows(horizon_rows(states, idx, j_max + 1), z0)[:, 1:].sum(axis=1)


def _importance_chunk(
    tilted: EnvironmentModel, mu: float, z0: int, n: int, j_max: int, nu: float, rng, size: int
) -> np.ndarray:
    """Values p(env) mu^n exp(nu S_n) of ``size`` environments drawn from the ``tilted`` model."""
    idx = tilted.sample_indices(rng, (size, n))
    probs = _quenched_small_value_rows(tilted.states, idx, z0, j_max)
    s_n = np.asarray(tilted.x_values)[idx].sum(axis=1)
    with np.errstate(divide="ignore"):
        log_p = np.log(np.clip(probs, 0.0, None))
    return np.exp(log_p + (n * math.log(mu) + nu * s_n))


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
    underflow.  A value that still overflows raises ContractError.  The
    chunks run serially, in one process.
    """
    if replicates < 1:
        raise ContractError("replicates must be >= 1")
    tilted, mu = tilt(model, nu)
    fn = partial(_importance_chunk, tilted, mu, z0, n, j_max, nu)
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "target_size": self.target_size,
            "bins": [{"k": k, "count": self.counts[k]} for k in sorted(self.counts)],
            "accepted": self.accepted,
            "proposed": self.proposed,
        }


def _merge_counts(parts) -> tuple[dict[int, int], int]:
    counts: dict[int, int] = {}
    accepted = 0
    for part in parts:
        for k, v in part.items():
            counts[k] = counts.get(k, 0) + v
            accepted += v
    return counts, accepted


def _mrca_spine_chunk(
    model: EnvironmentModel, n: int, target: int, rng: np.random.Generator, size: int
) -> dict[int, int]:
    """One proposal chunk of the exact MRCA sampler; returns MRCA counts.

    Every step is batched over the chunk.  Each proposal draws an
    environment and one uniform u.  The width-1 extinction ladder keeps the
    proposals with u < P(Z_n > 0 | env), which loses nothing because
    P(Z_n = target | env) is at most that.  For the kept ones,
    ``exact.mrca_rows`` gives the quenched law of the MRCA generation g;
    u < P(Z_n = target | env) accepts, and the first g whose cumulative sum
    exceeds u gives the age n - g.
    """
    idx = model.sample_indices(rng, (size, n))
    u = rng.random(size)
    survival = 1.0 - horizon_rows(model.states, idx, 1)[:, 0]
    keep = u < survival
    cum = np.cumsum(mrca_rows(model.states, idx[keep], target), axis=1)
    u = u[keep]
    hit = u < cum[:, -1]
    ages = n - np.argmax(u[hit, None] < cum[hit], axis=1)
    values, counts = np.unique(ages, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def _mrca_rejection_chunk(
    model: EnvironmentModel, n: int, target: int, rng: np.random.Generator, size: int
) -> dict[int, int]:
    """One chunk of forward trees from Z_0 = 1; returns MRCA counts of those with Z_n = target."""
    counts: dict[int, int] = {}
    for _ in range(size):
        tree = simulate_tree(model, 1, n, rng)
        if tree.sizes[n] != target:
            continue
        age = mrca(tree)
        counts[age] = counts.get(age, 0) + 1
    return counts


def conditioned_mrca_sample(
    model: EnvironmentModel,
    n: int,
    target_size: int,
    method: str,
    proposals: int,
    root_seed: int,
    workers: int | None = None,
) -> MrcaDistribution:
    """Empirical law of MRCA_n given Z_n = target_size, Z_0 = 1.

    Method "geiger" samples the exact law (``_mrca_spine_chunk``) for every
    model and target: each environment is accepted with its quenched
    probability P(Z_n = target | env) and its MRCA age is drawn from the
    quenched law of ``exact.mrca_rows``, with one uniform per proposal and
    no tree simulated.  Method "rejection" simulates full forward trees and
    raises PopulationCapError when a population exceeds
    ``DEFAULT_POPULATION_CAP``.  ``proposals`` counts environment draws
    (geiger) or trees (rejection); the accepted sample count is random.
    Proposals are drawn in chunks seeded by index (``_map_chunks``), so the
    result is a pure function of (model, n, target_size, method, proposals,
    root_seed), whatever the number of ``workers``.
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
    if workers is None:
        workers = worker_count()

    chunk_fn = _mrca_rejection_chunk if method == "rejection" else _mrca_spine_chunk
    logger.info(
        "conditioned MRCA: %s proposals (method=%s, n=%s, target=%s)",
        proposals, method, n, target_size,
    )
    parts = _map_chunks(partial(chunk_fn, model, n, target_size), proposals, root_seed, workers)
    counts, accepted = _merge_counts(parts)
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
