import itertools
import logging
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from bpre.environment import EnvironmentModel, solve_critical_tilt, tilt
from bpre.errors import ContractError, PopulationCapError
from bpre.exact import (
    EnvSequence,
    annealed_pmf,
    annealed_pmf_row,
    mrca_rows,
    phi_n,
    quenched_coeff_row,
    quenched_survival,
)
from bpre.laws import FiniteLaw, LinearFractionalLaw
from bpre import simulate
from bpre.models import intermediate_model, strongly_model, weakly_mrca_model, weakly_model
from bpre.simulate import (
    _CHUNK,
    _draw_table,
    _forest_mrca_ages,
    _grow,
    _importance_chunk,
    _mrca_rejection_chunk,
    _mrca_spine_chunk,
    _quenched_small_value_rows,
    _yk_table,
    GenealogyTree,
    conditioned_mrca_sample,
    geiger_sample,
    importance_estimate,
    mrca,
    simulate_forward,
    simulate_tree,
    stream,
    subseed,
    worker_count,
)

from helpers import mrca_pair_law, yk_table_oracle


def test_stream_is_pure_function_of_seed_and_index():
    a = stream(123, 7).random(5)
    b = stream(123, 7).random(5)
    c = stream(123, 8).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert subseed(5, "x", 1) == subseed(5, "x", 1)
    assert subseed(5, "x", 1) != subseed(5, "x", 2)


def test_forward_zero_start_stays_zero():
    traj = simulate_forward(weakly_model(), 0, 6, stream(1, 0))
    assert traj.sizes == (0,) * 7


def test_forward_copy_law_is_constant():
    copy_model = EnvironmentModel((FiniteLaw((0.0, 1.0)),), (1.0,))
    traj = simulate_forward(copy_model, 3, 9, stream(2, 0))
    assert traj.sizes == (3,) * 10


def test_forward_conditional_mean():
    # E[Z_n exp(-S_n) | env] = z0: sample mean within 3 standard errors
    model = weakly_model()
    z0, n, reps = 2, 5, 20_000
    vals = np.empty(reps)
    for rep in range(reps):
        traj = simulate_forward(model, z0, n, stream(99, rep))
        vals[rep] = traj.sizes[-1] * math.exp(-traj.env.walk[-1])
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - z0) < 3 * se


def test_tree_sizes_match_forward_in_distribution():
    model = weakly_model()
    n, reps = 5, 10_000
    fwd = np.array(
        [simulate_forward(model, 1, n, stream(5, r)).sizes[-1] for r in range(reps)]
    )
    trees = np.array(
        [simulate_tree(model, 1, n, stream(6, r)).sizes[-1] for r in range(reps)]
    )
    assert stats.ks_2samp(fwd, trees).pvalue > 0.001


def test_tree_parent_indices_are_consistent():
    tree = simulate_tree(weakly_model(), 2, 6, stream(8, 1))
    for k in range(1, tree.n + 1):
        if tree.sizes[k]:
            assert tree.parents[k].min() >= 0
            assert tree.parents[k].max() < tree.sizes[k - 1]
            # breadth-first labels: parent indices are nondecreasing
            assert np.all(np.diff(tree.parents[k]) >= 0)


def _hand_tree(parent_lists, env_law=FiniteLaw((0.5, 0.5))):
    parents = tuple(np.asarray(p, dtype=np.int64) for p in parent_lists)
    env = EnvSequence((env_law,) * (len(parent_lists) - 1))
    return GenealogyTree(z0=len(parent_lists[0]) or 1, parents=parents, env=env)


def test_mrca_hand_trees():
    # two root children, both lines surviving with no later common ancestor
    tree = _hand_tree([[], [0, 0], [0, 1], [0, 1]])
    assert mrca(tree) == 3
    # single survivor: its parent is a common ancestor one step back
    tree = _hand_tree([[], [0, 0], [1]])
    assert mrca(tree) == 1
    # forest with two roots never coalesces
    tree = GenealogyTree(
        z0=2,
        parents=(np.empty(0, dtype=np.int64), np.array([0, 1]), np.array([0, 1])),
        env=EnvSequence((FiniteLaw((0.5, 0.5)),) * 2),
    )
    with pytest.raises(ContractError, match="forest"):
        mrca(tree)
    # extinct population has no MRCA
    dead = _hand_tree([[], [0], []])
    with pytest.raises(ContractError, match="survivors"):
        mrca(dead)


def _mrca_oracle(tree):
    """Ancestor matrix route: independent of the set-walk implementation."""
    n = tree.n
    anc = np.arange(tree.sizes[n], dtype=np.int64)
    for k in range(1, n + 1):
        anc = tree.parents[n - k + 1][anc]
        if np.unique(anc).size == 1:
            return k
    return None


def test_mrca_matches_oracle_on_random_trees():
    model = weakly_mrca_model()
    found = 0
    for rep in range(400):
        tree = simulate_tree(model, 1, 6, stream(77, rep))
        if tree.sizes[-1] == 0:
            continue
        found += 1
        assert mrca(tree) == _mrca_oracle(tree)
    assert found > 50


def test_mrca_bounds():
    model = intermediate_model()
    for rep in range(200):
        tree = simulate_tree(model, 1, 7, stream(13, rep))
        if tree.sizes[-1] == 0:
            continue
        k = mrca(tree)
        assert 1 <= k <= 7


# ---------------------------------------------------------------------------
# conditioned spine sampler


def test_geiger_single_generation_uniform():
    law = FiniteLaw((1 / 3, 1 / 3, 1 / 3))
    env = EnvSequence((law,))
    rng = stream(3, 0)
    reps = 20_000
    sizes = np.array([geiger_sample(env, 1, rng).z_n for _ in range(reps)])
    assert set(np.unique(sizes)) == {1, 2}
    freq = np.mean(sizes == 1)
    assert abs(freq - 0.5) < 3 * math.sqrt(0.25 / reps)


def test_geiger_matches_enumerated_conditional_law():
    env = EnvSequence(
        (
            FiniteLaw((0.3, 0.4, 0.3)),
            FiniteLaw((0.2, 0.3, 0.5)),
            FiniteLaw((0.4, 0.3, 0.3)),
        )
    )
    row = quenched_coeff_row(env, 1, 8)
    exact = row[1:] / (1.0 - row[0])
    rng = stream(4, 0)
    reps = 20_000
    freq = np.zeros(8)
    for _ in range(reps):
        z = geiger_sample(env, 1, rng).z_n
        if z <= 8:
            freq[z - 1] += 1
    freq /= reps
    tv = 0.5 * np.abs(exact - freq).sum()
    assert tv <= 0.04


def test_geiger_brood_invariants():
    env = EnvSequence((FiniteLaw((0.2, 0.3, 0.3, 0.2)),) * 4)
    rng = stream(9, 0)
    for _ in range(500):
        sample = geiger_sample(env, 2, rng)
        assert sample.z_n >= 1
        for k, (z, l) in enumerate(sample.brood):
            assert 1 <= l <= z
            assert z - l == sample.y_counts[k]
        assert sample.z_n == 1 + sample.y_counts[-1] + sum(sample.subtree_finals)


def test_geiger_spine_event_frequency_matches_phi():
    env = EnvSequence((FiniteLaw((0.3, 0.3, 0.4)), FiniteLaw((0.25, 0.25, 0.5))))
    z0 = 2
    expect = phi_n(env, z0) / quenched_survival(env, z0)
    rng = stream(10, 0)
    reps = 30_000
    hits = 0
    for _ in range(reps):
        s = geiger_sample(env, z0, rng)
        if s.all_side_subtrees_dead and s.y_counts[-1] == z0 - 1:
            hits += 1
    freq = hits / reps
    se = math.sqrt(expect * (1 - expect) / reps)
    assert abs(freq - expect) < 3 * se


def test_geiger_rejects_null_conditioning():
    env = EnvSequence((FiniteLaw((1.0,)),))
    with pytest.raises(ContractError, match="null event"):
        geiger_sample(env, 1, stream(0, 0))


# ---------------------------------------------------------------------------
# importance sampling


def test_importance_estimate_identity_tilt_matches_exact():
    model = weakly_model()
    exact = annealed_pmf_row(model, 1, 10, 4)[1:].sum()
    est = importance_estimate(model, 1, 10, 4, 0.0, 3000, root_seed=17)
    assert est.mu == pytest.approx(1.0)
    assert abs(est.estimate - exact) < 3 * est.std_error


def test_importance_estimate_tilted_matches_exact():
    model = weakly_model()
    nu = solve_critical_tilt(model)
    exact = annealed_pmf_row(model, 1, 10, 4)[1:].sum()
    est = importance_estimate(model, 1, 10, 4, nu, 3000, root_seed=23)
    assert abs(est.estimate - exact) < 3 * est.std_error


@pytest.mark.parametrize("z0, j_max", [(1, 4), (2, 9), (3, 1)])
def test_quenched_small_value_rows_match_quenched_coeff_row(z0, j_max):
    # the batched rows of importance sampling against one environment at a time, bit for bit
    model = EnvironmentModel(
        (LinearFractionalLaw(1.6, 5.0), FiniteLaw((0.3, 0.2, 0.5)), LinearFractionalLaw(0.7, 0.4)),
        (0.4, 0.3, 0.3),
    )
    idx = model.sample_indices(np.random.default_rng(8), (64, 9))
    rows = _quenched_small_value_rows(model.states, idx, z0, j_max)
    for r in range(idx.shape[0]):
        row = quenched_coeff_row(EnvSequence.from_indices(model, idx[r]), z0, j_max)
        assert rows[r] == row[1:].sum()


def test_importance_estimate_standard_error_does_not_underflow():
    # values near 1e-229 square below the double range; the spread is taken
    # of the values divided by their maximum
    model = strongly_model()
    est = importance_estimate(model, 1, 1500, 4, solve_critical_tilt(model), 512, root_seed=1)
    assert 0.0 < est.estimate < 1e-200
    assert math.isfinite(est.std_error) and est.std_error > 0.0


def test_importance_estimate_variance_reduction():
    # tilting to zero drift beats crude averaging in every paired run
    model = weakly_model()
    nu = solve_critical_tilt(model)
    wins = 0
    for s in range(10):
        tilted = importance_estimate(model, 1, 20, 4, nu, 2000, root_seed=1000 + s)
        crude = importance_estimate(model, 1, 20, 4, 0.0, 2000, root_seed=2000 + s)
        wins += tilted.std_error < crude.std_error
    assert wins >= 9


# ---------------------------------------------------------------------------
# conditioned MRCA sampling


def test_conditioned_mrca_methods_agree():
    model = intermediate_model()
    n = 6
    d_g = conditioned_mrca_sample(model, n, 2, "geiger", 120_000, root_seed=31)
    d_r = conditioned_mrca_sample(model, n, 2, "rejection", 120_000, root_seed=32)
    assert d_g.accepted > 1500 and d_r.accepted > 1500
    ks = sorted(set(d_g.counts) | set(d_r.counts))
    obs = np.array([[d_g.counts.get(k, 0) for k in ks], [d_r.counts.get(k, 0) for k in ks]])
    keep = obs.sum(axis=0) >= 10
    obs = obs[:, keep]
    chi2, p, _, _ = stats.chi2_contingency(obs)[:4]
    assert p > 0.001


def test_conditioned_mrca_deterministic_across_workers():
    model = intermediate_model()
    d1 = conditioned_mrca_sample(model, 5, 2, "geiger", 30_000, root_seed=7, workers=1)
    d2 = conditioned_mrca_sample(model, 5, 2, "geiger", 30_000, root_seed=7, workers=2)
    assert d1.counts == d2.counts
    assert d1.accepted == d2.accepted


@pytest.mark.parametrize("raw", ["abc", "-2", "0", "1.5"])
def test_worker_count_warns_on_malformed_env(raw, monkeypatch, caplog):
    monkeypatch.setenv("BPRE_THREADS", raw)
    with caplog.at_level(logging.WARNING, logger="bpre.simulate"):
        assert worker_count() == 1
    assert len(caplog.records) == 1
    assert repr(raw) in caplog.records[0].getMessage()


def test_worker_count_reads_env(monkeypatch, caplog):
    monkeypatch.setenv("BPRE_THREADS", "3")
    with caplog.at_level(logging.WARNING, logger="bpre.simulate"):
        assert worker_count() == 3
    monkeypatch.delenv("BPRE_THREADS")
    assert worker_count() == 1
    assert not caplog.records


def test_conditioned_mrca_generic_lane_matches_lf_lane():
    # every model shares one exact sampler; this checks it on a finite-law
    # model against forward-tree rejection
    q1 = FiniteLaw((0.2, 0.5, 0.3))
    q2 = FiniteLaw((0.4, 0.2, 0.4))
    model = EnvironmentModel((q1, q2), (0.6, 0.4))
    d_g = conditioned_mrca_sample(model, 5, 2, "geiger", 60_000, root_seed=41)
    d_r = conditioned_mrca_sample(model, 5, 2, "rejection", 60_000, root_seed=42)
    assert d_g.accepted > 1000 and d_r.accepted > 1000
    ks = sorted(set(d_g.counts) | set(d_r.counts))
    obs = np.array([[d_g.counts.get(k, 0) for k in ks], [d_r.counts.get(k, 0) for k in ks]])
    keep = obs.sum(axis=0) >= 10
    chi2, p, _, _ = stats.chi2_contingency(obs[:, keep])[:4]
    assert p > 0.001


def test_conditioned_mrca_zero_accept_reports_rate():
    model = weakly_model()
    with pytest.raises(ContractError, match="acceptance rate"):
        conditioned_mrca_sample(model, 14, 2, "geiger", 10, root_seed=1)


def test_conditioned_mrca_contracts():
    model = weakly_model()
    with pytest.raises(ContractError):
        conditioned_mrca_sample(model, 6, 1, "geiger", 100, root_seed=1)
    with pytest.raises(ContractError):
        conditioned_mrca_sample(model, 6, 2, "nonsense", 100, root_seed=1)


def test_mrca_distribution_json_schema():
    model = intermediate_model()
    d = conditioned_mrca_sample(model, 5, 2, "geiger", 20_000, root_seed=55)
    doc = d.to_json()
    assert set(doc) == {"n", "target_size", "bins", "accepted", "proposed"}
    assert doc["proposed"] == 20_000
    assert sum(b["count"] for b in doc["bins"]) == doc["accepted"]
    assert all(set(b) == {"k", "count"} for b in doc["bins"])


FINITE_MODEL = EnvironmentModel(
    (FiniteLaw((0.2, 0.5, 0.3)), FiniteLaw((0.4, 0.2, 0.4))), (0.6, 0.4)
)
MIXED_MODEL = EnvironmentModel(
    (LinearFractionalLaw(m=1.5, b=3.0), FiniteLaw((0.3, 0.3, 0.4))), (0.5, 0.5)
)


def _annealed_pair_law(model, n):
    """P(Z_n = 2, MRCA age a) for a = 0..n, averaged over all environments."""
    total = np.zeros(n + 1)
    for env in itertools.product(range(len(model.states)), repeat=n):
        weight = math.prod(model.weights[i] for i in env)
        total += weight * mrca_pair_law([model.states[i] for i in env])
    return total


@pytest.mark.parametrize(
    "model, n",
    [(intermediate_model(), 3), (intermediate_model(), 5), (FINITE_MODEL, 6), (MIXED_MODEL, 4)],
)
def test_mrca_pair_law_oracle_sums_to_annealed_pmf(model, n):
    pair = _annealed_pair_law(model, n)
    assert pair[0] == 0.0
    assert abs(pair.sum() - annealed_pmf(model, 1, n, 2)) < 1e-12


@pytest.mark.parametrize("model, seed", [(intermediate_model(), 61), (FINITE_MODEL, 62)])
def test_spine_lane_ages_match_pair_law_oracle(model, seed):
    n, proposals = 5, 200_000
    oracle = _annealed_pair_law(model, n)
    d = conditioned_mrca_sample(model, n, 2, "geiger", proposals, root_seed=seed)
    assert set(d.counts) <= set(range(1, n + 1))
    for age in range(1, n + 1):
        p = oracle[age]
        se = math.sqrt(p * (1.0 - p) / proposals)
        assert abs(d.counts.get(age, 0) / proposals - p) < 4 * se, age


@pytest.mark.parametrize("model, seed", [(intermediate_model(), 71), (MIXED_MODEL, 73)])
def test_spine_lane_target_three_matches_rejection(model, seed):
    n = 4
    d_g = conditioned_mrca_sample(model, n, 3, "geiger", 200_000, root_seed=seed)
    d_r = conditioned_mrca_sample(model, n, 3, "rejection", 60_000, root_seed=seed + 1)
    p3 = annealed_pmf(model, 1, n, 3)
    se = math.sqrt(p3 * (1.0 - p3) / d_g.proposed)
    assert abs(d_g.accepted / d_g.proposed - p3) < 4 * se
    assert d_r.accepted > 1000
    ks = sorted(set(d_g.counts) | set(d_r.counts))
    obs = np.array([[d_g.counts.get(k, 0) for k in ks], [d_r.counts.get(k, 0) for k in ks]])
    keep = obs.sum(axis=0) >= 10
    chi2, p, _, _ = stats.chi2_contingency(obs[:, keep])[:4]
    assert p > 0.001


QZERO_MODEL = EnvironmentModel(
    (FiniteLaw((0.3, 0.0, 0.4, 0.3)), FiniteLaw((0.0, 0.6, 0.4))), (0.5, 0.5)
)
MRCA_MODELS = [FINITE_MODEL, MIXED_MODEL, intermediate_model(), QZERO_MODEL]
MRCA_MODEL_IDS = ["finite", "mixed", "intermediate", "no_single_birth"]


def _all_envs(model, n):
    """Every environment of n generations as index rows, with its weight."""
    idx = np.array(list(itertools.product(range(len(model.states)), repeat=n)), dtype=np.int64)
    return idx, np.prod(np.asarray(model.weights)[idx], axis=1)


@pytest.mark.parametrize("model", MRCA_MODELS, ids=MRCA_MODEL_IDS)
def test_mrca_rows_match_pair_law_oracle_per_environment(model):
    # on no_single_birth, q(1) = 0 right before a generation that cannot die
    # gives f'(t) = f'(0) = 0, a -inf log-derivative
    for n in (1, 2, 5):
        idx, _ = _all_envs(model, n)
        rows = mrca_rows(model.states, idx, 2)
        assert rows.shape == (idx.shape[0], n)
        for r in range(idx.shape[0]):
            oracle = mrca_pair_law([model.states[a] for a in idx[r]])
            # column g is the MRCA generation, the oracle's index the age n - g
            assert np.max(np.abs(rows[r, ::-1] - oracle[1:])) <= 1e-15
    with pytest.raises(ContractError, match="target size"):
        mrca_rows(model.states, idx, 1)


@pytest.mark.parametrize("target", [2, 3, 5])
@pytest.mark.parametrize("model", MRCA_MODELS, ids=MRCA_MODEL_IDS)
def test_mrca_rows_sum_to_annealed_pmf(model, target):
    n = 6
    idx, weights = _all_envs(model, n)
    total = weights @ mrca_rows(model.states, idx, target).sum(axis=1)
    exact = annealed_pmf(model, 1, n, target)
    assert exact > 0.0
    assert abs(total - exact) <= 1e-12 * exact


@pytest.mark.parametrize("target, seed", [(2, 81), (3, 83)])
def test_mrca_sampler_matches_rejection_without_single_births(target, seed):
    n = 4
    d_g = conditioned_mrca_sample(QZERO_MODEL, n, target, "geiger", 200_000, root_seed=seed)
    d_r = conditioned_mrca_sample(QZERO_MODEL, n, target, "rejection", 60_000, root_seed=seed + 1)
    p = annealed_pmf(QZERO_MODEL, 1, n, target)
    se = math.sqrt(p * (1.0 - p) / d_g.proposed)
    assert abs(d_g.accepted / d_g.proposed - p) < 4 * se
    assert d_r.accepted > 1000
    ks = sorted(set(d_g.counts) | set(d_r.counts))
    obs = np.array([[d_g.counts.get(k, 0) for k in ks], [d_r.counts.get(k, 0) for k in ks]])
    keep = obs.sum(axis=0) >= 10
    chi2, pval, _, _ = stats.chi2_contingency(obs[:, keep])[:4]
    assert pval > 0.001


@pytest.mark.parametrize("kmax", [3, 50, 300])
def test_yk_table_matches_double_sum_oracle(kmax):
    rng = np.random.default_rng(kmax)
    raw = rng.random(kmax + 1) + 0.01
    law = FiniteLaw(tuple(raw / raw.sum()))
    for tk in (0.0, 0.3, 0.9, 0.999):
        table = _yk_table(law, tk, 1.7)
        assert table.shape == (kmax,)
        np.testing.assert_allclose(table, yk_table_oracle(law, tk, 1.7), rtol=1e-13, atol=0.0)


def test_spine_y_rejects_unnormalized_table():
    # t_0 is not f(t_1), so the generation-1 table of the scalar spine draw does not sum to 1
    law = FiniteLaw((0.1, 0.2, 0.3, 0.4))
    table = _yk_table(law, 0.4, (1.0 - 0.4) / (1.0 - 0.9))
    with pytest.raises(ContractError, match="does not normalize"):
        _draw_table(table, stream(1, 0))


# ---------------------------------------------------------------------------
# population cap and the chunk driver

# every individual has 1000 children: sizes run 1, 10^3, 10^6, 10^9
THOUSAND_LAW = FiniteLaw((0.0,) * 1000 + (1.0,))
THOUSAND_MODEL = EnvironmentModel((THOUSAND_LAW,), (1.0,))
FINITE_MODEL = EnvironmentModel(
    (FiniteLaw((0.2, 0.5, 0.3)), FiniteLaw((0.4, 0.2, 0.4))), (0.5, 0.5)
)


def test_population_cap_raises_in_every_forward_simulation():
    with pytest.raises(PopulationCapError, match="exceeds cap"):
        simulate_forward(THOUSAND_MODEL, 1, 4, stream(1, 0))
    with pytest.raises(PopulationCapError, match="exceeds cap"):
        simulate_tree(THOUSAND_MODEL, 1, 4, stream(1, 0))
    with pytest.raises(PopulationCapError, match="exceeds cap"):
        conditioned_mrca_sample(THOUSAND_MODEL, 4, 2, "rejection", 3, root_seed=1)


def test_population_cap_raises_in_geiger_side_subtree():
    # the spine keeps one child per generation; the 999 siblings founded at
    # generation 1 grow to 999 * 10^6 by the horizon
    env = EnvSequence((THOUSAND_LAW,) * 3)
    with pytest.raises(PopulationCapError, match="exceeds cap"):
        geiger_sample(env, 1, stream(1, 0))


@pytest.mark.parametrize(
    "method, chunk_fn", [("geiger", _mrca_spine_chunk), ("rejection", _mrca_rejection_chunk)]
)
def test_conditioned_mrca_chunk_layout(method, chunk_fn):
    # 2 * _CHUNK + 1 proposals are three chunks of 4096, 4096 and 1, chunk c on stream(seed, c)
    n, seed = 5, 61
    dist = conditioned_mrca_sample(FINITE_MODEL, n, 2, method, 2 * _CHUNK + 1, seed, workers=1)
    merged = Counter()
    for c, size in enumerate((4096, 4096, 1)):
        merged.update(chunk_fn(FINITE_MODEL, n, 2, stream(seed, c), size))
    assert dist.counts == dict(merged)
    assert dist.accepted == sum(merged.values()) > 0


def test_importance_estimate_chunk_layout():
    model, n, j_max, seed = weakly_model(), 8, 3, 19
    nu = solve_critical_tilt(model)
    reps = 2 * _CHUNK + 1
    est = importance_estimate(model, 1, n, j_max, nu, reps, root_seed=seed)
    tilted, mu = tilt(model, nu)
    values = np.concatenate(
        [
            _importance_chunk(tilted, mu, 1, n, j_max, nu, stream(seed, c), size)
            for c, size in enumerate((4096, 4096, 1))
        ]
    )
    scale = values.max()
    assert est.estimate == scale * (values / scale).mean()
    assert est.std_error == scale * (values / scale).std(ddof=1) / math.sqrt(reps)


def test_conditioned_mrca_rejection_deterministic_across_workers():
    args = (FINITE_MODEL, 5, 2, "rejection", 2 * _CHUNK + 1)
    d1 = conditioned_mrca_sample(*args, root_seed=9, workers=1)
    d2 = conditioned_mrca_sample(*args, root_seed=9, workers=2)
    assert d1.counts == d2.counts
    assert d1.accepted == d2.accepted > 0


# ---------------------------------------------------------------------------
# the rejection lane's forest


def _forest_trees(model, idx, parents):
    """Per-tree GenealogyTrees sliced out of a forest grown from one individual per row of idx."""
    tree_of = [np.arange(idx.shape[0])]
    for parent in parents:
        tree_of.append(tree_of[-1][parent])
    out = []
    for t in range(idx.shape[0]):
        members = [np.flatnonzero(ids == t) for ids in tree_of]
        local = [np.empty(0, dtype=np.int64)]
        for k, parent in enumerate(parents, 1):
            prev = members[k - 1]
            local.append(parent[members[k]] - (prev[0] if prev.size else 0))
        env = EnvSequence.from_indices(model, idx[t])
        out.append(GenealogyTree(z0=1, parents=tuple(local), env=env))
    return out


@pytest.mark.parametrize("target", [2, 3])
def test_forest_ages_match_per_tree_mrca(target):
    # two routes: the vectorized trace of the forest against mrca() of each tree sliced out of it
    n, size = 4, 4096
    rng = stream(91, target)
    idx = FINITE_MODEL.sample_indices(rng, (size, n))
    parents, sizes = _grow(FINITE_MODEL.states, idx, np.arange(size), rng)
    ages = _forest_mrca_ages(parents, sizes, target)
    sliced = _forest_trees(FINITE_MODEL, idx, parents)
    assert [tree.sizes[-1] for tree in sliced] == sizes.tolist()
    assert [mrca(tree) for tree in sliced if tree.sizes[-1] == target] == ages.tolist()
    assert ages.size > 100
    assert (ages == n).any() and (ages < n).any()  # the root is the MRCA of some trees, not all


@pytest.mark.parametrize("target, seed", [(2, 95), (3, 96)])
def test_rejection_acceptance_matches_annealed_pmf(target, seed):
    n, proposals = 5, 40_000
    d = conditioned_mrca_sample(FINITE_MODEL, n, target, "rejection", proposals, root_seed=seed)
    p = annealed_pmf(FINITE_MODEL, 1, n, target)
    se = math.sqrt(p * (1.0 - p) / proposals)
    assert abs(d.accepted / proposals - p) < 4 * se


DOUBLING_LAW = FiniteLaw((0.0, 0.0, 1.0))
COPY_LAW = FiniteLaw((0.0, 1.0))


def test_population_cap_is_per_tree(monkeypatch):
    monkeypatch.setattr(simulate, "DEFAULT_POPULATION_CAP", 5)
    states = (DOUBLING_LAW, COPY_LAW)
    # three trees of 4: the chunk holds 12 > 5 individuals, no tree more than 5
    idx = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    _, sizes = _grow(states, idx, np.arange(3), stream(1, 0))
    assert sizes.tolist() == [4, 4, 4]
    doubling = EnvironmentModel((DOUBLING_LAW,), (1.0,))
    assert _mrca_rejection_chunk(doubling, 2, 2, stream(1, 0), 64) == {}
    # one tree reaches 8
    idx = np.array([[1, 1, 1], [0, 0, 0], [0, 1, 0]])
    with pytest.raises(PopulationCapError, match="explosive population: 8 exceeds cap 5"):
        list(_grow(states, idx, np.arange(3), stream(1, 0)))
    with pytest.raises(PopulationCapError, match="exceeds cap 5"):
        _mrca_rejection_chunk(doubling, 3, 2, stream(1, 0), 64)
