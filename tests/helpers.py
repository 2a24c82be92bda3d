"""Shared generators and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's generating-function
machinery: population laws are pushed forward by explicit pmf convolution,
so agreement with the engine is a two-route check.
"""

import numpy as np

from bpre.errors import ContractError
from bpre.laws import FiniteLaw, LinearFractionalLaw
from bpre.pgf import apply_law_rows


def random_finite_law(rng, max_support=3, with_extinction=None):
    """Random finite law on {0..max_support}; None mixes extinction freely."""
    while True:
        raw = rng.random(max_support + 1) * (rng.random(max_support + 1) < 0.8)
        if with_extinction is True:
            raw[0] = max(raw[0], 0.2)
        if with_extinction is False:
            raw[0] = 0.0
        total = raw.sum()
        if total <= 0.0:
            continue
        probs = raw / total
        law = FiniteLaw(tuple(probs))
        if law.mean > 0.0:
            return law


def random_lf_law(rng, m_lo=0.4, m_hi=2.5):
    m = rng.uniform(m_lo, m_hi)
    b_min = max(0.0, 2.0 * m * (m - 1.0))
    b = b_min + rng.uniform(0.05, 3.0)
    return LinearFractionalLaw(m=m, b=b)


def law_pmf_vector(law, upto):
    """pmf values q(0..upto) straight from law.prob."""
    return np.array([law.prob(k) for k in range(upto + 1)])


def scalar_extinction_ladder(env_laws):
    """t_k = f_{k,n}(0) for k = 0..n by the scalar recursion t_k = q_{k+1}.pgf(t_{k+1}), t_n = 0."""
    n = len(env_laws)
    t = np.zeros(n + 1)
    for k in range(n - 1, -1, -1):
        t[k] = env_laws[k].pgf(t[k + 1])
    return t


def tree_mrca_age(parents):
    """Fewest generations back at which all horizon individuals of one tree share an ancestor.

    ``parents[k]`` maps each generation-(k+1) individual to the index of its
    parent among generation k, as ``simulate._grow`` gives them.  Each
    horizon individual's ancestor is followed one generation at a time;
    None if the horizon is empty or the lines never meet.
    """
    anc = np.arange(parents[-1].size)
    for k, parent in enumerate(reversed(parents), 1):
        anc = parent[anc]
        if np.unique(anc).size == 1:
            return k
    return None


def series_horizon_rows(states, idx, width, layers=False):
    """``exact.horizon_rows`` by the series route alone: ``apply_law_rows`` per generation.

    Every row, LF or not, is composed from the identity row s one law at a
    time, the innermost generation first; the reference for the LF closed form.
    """
    b, n = idx.shape
    f = np.zeros((n + 1, b, width))
    f[n, :, 1:2] = 1.0
    for g in range(n - 1, -1, -1):
        for r in range(b):
            f[g, r] = apply_law_rows(states[idx[r, g]], f[g + 1, r][None, :])[0]
    return f if layers else f[0]


def log_derivative_mrca_rows(states, idx, target):
    """``exact.mrca_rows`` by the log-derivative route on every row, LF or not.

    The tail masses A_g = exp(sum_{k=1..g} log f_k'(t_k)) [s^target] f_{g,n}
    for g = 0..n (A_n = 0), with the layers of ``series_horizon_rows`` and
    ``pgf_prime`` on their ladder.
    """
    b, n = idx.shape
    f = series_horizon_rows(states, idx, target + 1, layers=True)
    a = np.zeros((b, n + 1))
    for r in range(b):
        with np.errstate(divide="ignore"):
            logs = [np.log(states[idx[r, k - 1]].pgf_prime(f[k, r, 0])) for k in range(1, n)]
        log_prefix = np.concatenate([[0.0], np.cumsum(logs)])
        a[r, :n] = np.exp(log_prefix) * f[:n, r, target]
    return a


def push_forward_distribution(env_laws, z0, cap=4096):
    """Distribution of Z_n by explicit convolution; independent oracle.

    Returns a vector d with d[j] = P(Z_n = j | env, Z_0 = z0) for j <= cap;
    mass beyond cap is dropped (choose cap comfortably above the reachable
    range for exact results).
    """
    dist = np.zeros(cap + 1)
    dist[z0] = 1.0
    for law in env_laws:
        pmf = law_pmf_vector(law, cap)
        new = np.zeros(cap + 1)
        new[0] += dist[0]
        # convolution powers of the offspring pmf, one per parent count
        power = np.zeros(cap + 1)
        power[0] = 1.0
        for z in range(1, cap + 1):
            power = np.convolve(power, pmf)[: cap + 1]
            if dist[z] > 0.0:
                new += dist[z] * power
            if dist[z:].sum() == 0.0:
                break
        dist = new
    return dist


def spine_event_probability(env_laws, z0, cap=256):
    """P(Z_n = z0 and all horizon individuals share one parent), brute force.

    Decomposes over the penultimate population size: exactly one parent
    produces all z0 survivors, every other parent produces none.
    """
    *head, last = env_laws
    dist = push_forward_distribution(head, z0, cap=cap)
    total = 0.0
    for z in range(1, cap + 1):
        if dist[z] > 0.0:
            total += dist[z] * z * last.prob(z0) * last.prob(0) ** (z - 1)
    return total


def mrca_pair_law(env_laws, cap=128):
    """P(Z_n = 2 and MRCA age a | env, Z_0 = 1) for a = 0..n (entry 0 is 0).

    Brute force by convolution: the MRCA sits at generation g = n - a, where
    one individual has two children with one horizon descendant each, its
    other children leave none, and so does every other generation-g
    individual.
    """
    n = len(env_laws)
    out = np.zeros(n + 1)
    z = np.arange(cap + 1)
    for a in range(1, n + 1):
        g = n - a
        size_g = push_forward_distribution(env_laws[:g], 1, cap=cap)
        dead_g = push_forward_distribution(env_laws[g:], 1, cap=cap)[0]
        child = push_forward_distribution(env_laws[g + 1 :], 1, cap=cap)
        brood = law_pmf_vector(env_laws[g], cap)
        split = np.sum(brood * z * (z - 1) / 2 * child[0] ** np.maximum(z - 2, 0)) * child[1] ** 2
        out[a] = np.sum(size_g * z * dead_g ** np.maximum(z - 1, 0)) * split
    return out


def gapped_finite_law(rng, top=9):
    """Random finite law with q(0) > 0 on {0} plus one to three sizes in 1..top."""
    k = rng.integers(1, 4)
    sizes = np.sort(rng.choice(np.arange(1, top + 1), size=k, replace=False))
    probs = np.zeros(sizes[-1] + 1)
    probs[0] = rng.uniform(0.1, 0.5)
    probs[sizes] = rng.random(k) + 0.05
    return FiniteLaw(tuple(probs / probs.sum()))


def reachable_closure_oracle(model, cap=64):
    """(z0, closure, capped) of ``smallest_reachable`` by explicit set sumsets.

    Sizes reachable in one generation from z are the sums of z draws from a
    state's support; the closure follows them from z0 within 1..cap, and
    capped records an unbounded support or any sum formed above cap.
    """
    z0 = None
    for law, w in zip(model.states, model.weights):
        if w <= 0.0 or law.p0 <= 0.0:
            continue
        positive = [j for j in law.support(cap)[0] if j >= 1]
        if positive:
            z0 = min(positive) if z0 is None else min(z0, min(positive))
    if z0 is None:
        raise ContractError("no extinction possible")

    supports = []
    capped = False
    for law, w in zip(model.states, model.weights):
        if w <= 0.0:
            continue
        sup, unbounded = law.support(cap)
        supports.append(sorted(sup))
        capped = capped or unbounded

    closure = set()
    frontier = {z0}
    while frontier:
        z = frontier.pop()
        if z in closure:
            continue
        closure.add(z)
        for sup in supports:
            sums, overflowed = _set_sumset(sup, z, cap)
            capped = capped or overflowed
            frontier |= {k for k in sums if 1 <= k and k not in closure}
    return z0, frozenset(closure), capped


def _set_sumset(support, z, cap):
    """All sums of z draws from ``support`` up to cap, and whether one exceeded cap."""
    reachable = {0}
    overflow = False
    for _ in range(z):
        nxt = set()
        for base in reachable:
            for v in support:
                if base + v <= cap:
                    nxt.add(base + v)
                else:
                    overflow = True
        reachable = nxt
        if not reachable:
            break
    return reachable, overflow


def brood_law_oracle(law, t, j_max):
    """Conditioned brood law of the spine, term by term: P[j, l] ~ q(j) t^(l-1).

    Cells 1 <= l <= j <= j_max, normalized over the same cells, so for a law
    with support above j_max it is the law conditioned on j <= j_max.
    """
    table = np.zeros((j_max + 1, j_max + 1))
    for j in range(1, j_max + 1):
        for l in range(1, j + 1):
            table[j, l] = law.prob(j) * t ** (l - 1)
    return table / table.sum()


def searchsorted_indices(model, rng, size):
    """Environment states drawn by inversion with ``np.searchsorted`` on the cumulative weights."""
    u = rng.random(size)
    cum = np.cumsum(np.asarray(model.weights))
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right").astype(np.int64)
