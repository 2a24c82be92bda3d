import itertools
import json
import logging
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

from bpre.environment import EnvironmentModel, regime_tilt, solve_critical_tilt, tilt
from bpre.errors import ContractError, PopulationCapError, TruncationError
from bpre import exact
from bpre.exact import (
    EnvSequence,
    annealed_pmf,
    annealed_pmf_row,
    horizon_rows,
    mrca_rows,
    quenched_coeff_row,
    quenched_survival,
    survival_rows,
)
from bpre.laws import FiniteLaw, LinearFractionalLaw
from bpre import simulate
from bpre.cli import main
from bpre.models import (
    intermediate_model, random_supercritical_lf_model, strongly_model, weakly_mrca_model,
    weakly_model,
)
from bpre.pgf import MAX_DEGREE, pow_rows
from bpre.simulate import (
    _CHUNK,
    _draw_brood,
    _forest_mrca_ages,
    _grow,
    _Blocks,
    _code_level,
    _importance_chunk,
    _lf_small_value_mass,
    _map_chunks,
    _mrca_rejection_chunk,
    _mrca_spine_chunk,
    _quenched_small_value_rows,
    _spine_bound,
    conditioned_mrca_sample,
    geiger_sample,
    importance_estimate,
    simulate_forward,
    stream,
    subseed,
    worker_count,
)

from helpers import (
    brood_law_oracle,
    log_derivative_mrca_rows,
    mrca_pair_law,
    phi_n,
    random_finite_law,
    random_lf_law,
    tree_mrca_age,
    walk,
)


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
        vals[rep] = traj.sizes[-1] * math.exp(-walk(traj.env.laws)[-1])
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - z0) < 3 * se


def _one_tree(model, z0, n, rng):
    """Parent arrays and horizon size of one tree: a one-row forest from ``_grow``."""
    idx = model.sample_indices(rng, (1, n))
    parents, sizes = _grow(model.states, idx, np.zeros(z0, dtype=np.int64), rng)
    return parents, int(sizes[0])


def test_tree_sizes_match_forward_in_distribution():
    model = weakly_model()
    n, reps = 5, 10_000
    fwd = np.array(
        [simulate_forward(model, 1, n, stream(5, r)).sizes[-1] for r in range(reps)]
    )
    trees = np.array([_one_tree(model, 1, n, stream(6, r))[1] for r in range(reps)])
    assert stats.ks_2samp(fwd, trees).pvalue > 0.001


def test_tree_parent_indices_are_consistent():
    parents, size = _one_tree(weakly_model(), 2, 6, stream(8, 1))
    sizes = [2] + [parent.size for parent in parents]
    assert sizes[-1] == size
    for k, parent in enumerate(parents, 1):
        if sizes[k]:
            assert parent.min() >= 0
            assert parent.max() < sizes[k - 1]
            # breadth-first labels: parent indices are nondecreasing
            assert np.all(np.diff(parent) >= 0)


def _forest_ages(parent_lists, sizes, target):
    parents = [np.asarray(p, dtype=np.int64) for p in parent_lists]
    return _forest_mrca_ages(parents, np.asarray(sizes), target).tolist()


def test_mrca_hand_trees():
    # two root children, both lines surviving with no later common ancestor
    assert _forest_ages([[0, 0], [0, 1], [0, 1]], [2], 2) == [3]
    # single survivor: its parent is a common ancestor one step back
    assert _forest_ages([[0, 0], [1]], [1], 1) == [1]
    # three trees: the first coalesces at the root, the second one step
    # back, the third dies out; trees of another size are left out
    forest = [[0, 0, 1], [0, 1, 2, 2]]
    assert _forest_ages(forest, [2, 2, 0], 2) == [2, 1]
    assert _forest_ages(forest, [2, 2, 0], 1) == []


def test_mrca_matches_oracle_on_random_trees():
    model = weakly_mrca_model()
    found = 0
    for rep in range(400):
        parents, size = _one_tree(model, 1, 6, stream(77, rep))
        if size == 0:
            continue
        found += 1
        assert _forest_ages(parents, [size], size) == [tree_mrca_age(parents)]
    assert found > 50


def test_mrca_bounds():
    model = intermediate_model()
    for rep in range(200):
        parents, size = _one_tree(model, 1, 7, stream(13, rep))
        if size == 0:
            continue
        (k,) = _forest_ages(parents, [size], size)
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
    expect = phi_n(env.laws, z0) / quenched_survival(env, z0)
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
    # the batched rows of importance sampling against one environment at a
    # time: bit for bit on rows with a finite law (the series route), and
    # within 1e-13 on all-LF rows, which the block composes from the block
    # table (n = 9 > L = 7) where the one-row call steps
    model = EnvironmentModel(
        (LinearFractionalLaw(1.6, 5.0), FiniteLaw((0.3, 0.2, 0.5)), LinearFractionalLaw(0.7, 0.4)),
        (0.4, 0.3, 0.3),
    )
    idx = model.sample_indices(np.random.default_rng(8), (64, 9))
    rows = _quenched_small_value_rows(model.states, idx, z0, j_max)
    series = (idx == 1).any(axis=1)
    assert series.any() and not series.all()
    for r in range(idx.shape[0]):
        row = quenched_coeff_row(EnvSequence.from_indices(model, idx[r]), z0, j_max)
        if series[r]:
            assert rows[r] == row[1:].sum()
        else:
            assert rows[r] == pytest.approx(row[1:].sum(), rel=1e-13, abs=0.0)


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


@pytest.mark.parametrize("n", [12, 20])
def test_importance_estimate_strongly_regime_coverage(n):
    # criterion 10's check on the strongly model at the regime's tilt, 1; at
    # lambda* = 3.58 the weights are heavy-tailed and the 99% intervals cover
    # the exact value in far fewer than 190 of 200 runs
    model = strongly_model()
    nu = regime_tilt(model)
    assert nu == 1.0
    exact = float(annealed_pmf_row(model, 1, n, 4)[1:].sum())
    z99 = 2.5758293035489004
    cover = 0
    for run in range(200):
        est = importance_estimate(model, 1, n, 4, nu, 400, root_seed=subseed(424242, "cov", run))
        cover += abs(est.estimate - exact) <= z99 * est.std_error
    assert cover >= 190


THREE_LF_MODEL = EnvironmentModel(
    (LinearFractionalLaw(1.6, 5.0), LinearFractionalLaw(0.7, 0.4), LinearFractionalLaw(1.2, 1.0)),
    (0.5, 0.3, 0.2),
)
STERILE_LF_MODEL = EnvironmentModel((FiniteLaw((1.0,)), LinearFractionalLaw(2.0, 8.0)), (0.1, 0.9))


def _assert_within_four_se(model, n, nu, seed, replicates=4000):
    exact_value = float(annealed_pmf_row(model, 1, n, 4)[1:].sum())
    est = importance_estimate(model, 1, n, 4, nu, replicates, root_seed=seed)
    assert abs(est.estimate - exact_value) <= 4 * est.std_error


@pytest.mark.parametrize(
    "name, n, composed, length",
    [("mixed", 15, False, 12), ("finite", 15, False, 12), ("finite", 0, False, 12)]
    + [("three_lf", n, True, 7) for n in (0, 6, 7, 8, 15)],
)
def test_importance_estimate_matches_enumeration_on_every_route(name, n, composed, length):
    # a model with a finite state expands its block codes into states, also
    # with no LF state and so no block table (the same K^L <= 4096 rule
    # sets L); an all-LF model (K = 3, L = 7) composes them, at n around
    # one and two blocks; at n = 0 no block is drawn and every value is 1
    model = {"mixed": MIXED_MODEL, "finite": FINITE_MODEL, "three_lf": THREE_LF_MODEL}[name]
    blocks = _Blocks.of(tilt(model, 0.3)[0], n)
    assert blocks.composed == composed
    assert [(level.depth, count) for level, count in blocks.groups] == (
        [(n % length, 1)] * (n % length > 0) + [(length, n // length)] * (n >= length)
    )
    assert (exact._lf_block_table(model.states) is None) == (name == "finite")
    _assert_within_four_se(model, n, 0.3, seed=n)


def test_importance_estimate_on_the_table_free_route(table_free):
    # with no block table an all-LF model draws one code per generation
    # (L = 1), expands it and steps every row
    model = weakly_model()
    nu = solve_critical_tilt(model)

    def run():
        blocks = _Blocks.of(tilt(model, nu)[0], 10)
        assert not blocks.composed
        assert [(level.depth, count) for level, count in blocks.groups] == [(1, 10)]
        _assert_within_four_se(model, 10, nu, seed=23)
        assert exact._lf_block_table(model.states) is None

    table_free(run)


def test_importance_estimate_at_zero_tilt_serves_a_sterile_state():
    # a state of mean 0 has X = -inf: nu = 0 is the identity tilt, and a row
    # that meets the sterile generation has the value 0
    est = importance_estimate(STERILE_LF_MODEL, 1, 5, 4, 0.0, 4000, root_seed=3)
    assert est.mu == 1.0 and math.isfinite(est.estimate) and math.isfinite(est.std_error)
    _assert_within_four_se(STERILE_LF_MODEL, 5, 0.0, seed=3)
    tilted, mu = tilt(STERILE_LF_MODEL, 0.0)
    blocks = _Blocks.of(tilted, 5)
    values = _importance_chunk(tilted, mu, 1, 5, 4, 0.0, blocks, stream(3, 0), 4096)
    (level, _), = blocks.groups
    assert (level.walk == -math.inf).any()
    assert not np.isnan(values).any() and (values == 0.0).any()


def test_alias_index_stays_below_the_table_size():
    # the largest uniform, 1 - 2^-53, takes the last entry of a table of 3^7
    level = _code_level(THREE_LF_MODEL, 7, False)
    size = 3**7
    u0 = np.array([1.0 - 2.0**-53])
    assert math.floor(u0[0] * size) == size - 1
    last = size - 1 if level.q[-1] > 0.0 else level.alias[-1]
    assert level.draw(u0, np.array([0.0]))[0] == last
    assert level.draw(u0, np.array([level.q[-1]]))[0] == level.alias[-1]


def _implied_law(level):
    """Each code's probability under the alias table, in exact arithmetic."""
    size = level.q.size
    mass = [Fraction(q) for q in level.q.tolist()]
    for j, (q, i) in enumerate(zip(level.q.tolist(), level.alias.tolist())):
        if i != j:
            mass[i] += 1 - Fraction(q)
    return [m / size for m in mass]


def _wide_model():
    rng = np.random.default_rng(4)
    w = rng.random(exact._SUFFIX_ROWS + 404) ** 4
    return EnvironmentModel(tuple(random_lf_law(rng) for _ in w), tuple(w / w.sum()))


@pytest.mark.parametrize(
    "name, length",
    [("one_state", 12), ("two_state", 12), ("three_state", 7), ("weakly_tilted", 12),
     ("sterile", 12), ("wide", 1)],
)
def test_code_levels_hold_the_product_law_and_the_walk(name, length):
    # every level a horizon draws: the alias table's law is the product of
    # the weights over the code's digits, the walk the sum of their x
    model = {
        "one_state": EnvironmentModel((LinearFractionalLaw(1.5, 3.0),), (1.0,)),
        "two_state": strongly_model(),
        "three_state": THREE_LF_MODEL,
        "weakly_tilted": tilt(weakly_model(), solve_critical_tilt(weakly_model()))[0],
        "sterile": STERILE_LF_MODEL,
        "wide": _wide_model(),
    }[name]
    k, w, x = len(model.states), model.weights, model.x_values
    assert max(1, exact.block_length(model.states)) == length
    blocks = _Blocks.of(model, 3 * length - 1)
    levels = [level for level, _ in blocks.groups]
    assert [level.depth for level in levels] == [length - 1] * (length > 1) + [length]
    for level in levels:
        digits = np.indices((k,) * level.depth).reshape(level.depth, -1).T
        want = [math.prod(w[d] for d in row) for row in digits.tolist()]
        got = _implied_law(level)
        assert max(abs(float(g / Fraction(v)) - 1.0) for g, v in zip(got, want)) <= 1e-14
        assert level.walk.tolist() == [sum(x[d] for d in row) for row in digits.tolist()]
        expanded = _code_level(model, level.depth, True)
        assert np.array_equal(expanded.digits, digits) and np.array_equal(expanded.q, level.q)


def _random_lf_model(k, seed):
    """A K-state supercritical all-LF model, ``random_supercritical_lf_model`` at K = 2."""
    rng = np.random.default_rng(seed)
    if k == 2:
        return random_supercritical_lf_model(rng)
    while True:  # that function's rule: redraw until E[X] > 1e-3
        w = rng.uniform(0.05, 1.0, k)
        model = EnvironmentModel(tuple(random_lf_law(rng) for _ in w), tuple(w / w.sum()))
        if model.drift > 1e-3:
            return model


def _assert_mass_matches_rows(states, codes, j_max):
    """The closed form against the z0 = 1 rows route, rel 4 j_max 2^-52: a + r = 1 to rounding."""
    p, a, _ = exact.composed_stats(states, codes)
    rows = pow_rows(exact.composed_rows(states, codes, j_max + 1), 1)[:, 1:].sum(axis=1)
    mass = _lf_small_value_mass(p, a, j_max)
    np.testing.assert_allclose(mass, rows, rtol=4 * j_max * 2.0**-52, atol=0.0)
    return mass


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lf_small_value_mass_matches_the_composed_rows(k):
    # two routes for P(1 <= Z_n <= j_max | env): p (1 - (1 - a)^j_max)
    # against the coefficient rows of f_{0,n} summed, on the block codes of
    # drawn environments, at n around one and three blocks and at 300
    model = _random_lf_model(k, seed=40 + k)
    length = exact.block_length(model.states)
    rng = np.random.default_rng(k)
    for n in (0, 1, length - 1, length, length + 1, 3 * length + 1, 300):
        idx = model.sample_indices(rng, (64, n))
        codes = list(exact._block_codes(length, k, idx))
        for j_max in (1, 4, 64, 1000):
            mass = _assert_mass_matches_rows(model.states, codes, j_max)
            assert np.all((mass > 0.0) & (mass <= 1.0))
            if n == 0:
                assert np.all(mass == 1.0)


def test_lf_small_value_mass_survives_long_excursions():
    # the 1100 + 1100 generation environments: behind the subcritical half p
    # underflows to 0 and its rows are exactly 0; behind the supercritical
    # half a underflows, and the survival returns to about 1/4
    states = (LinearFractionalLaw(0.5, 0.5), LinearFractionalLaw(2.0, 8.0))
    idx = np.stack([np.repeat([0, 1], 1100), np.repeat([1, 0], 1100)])
    codes = list(exact._block_codes(exact.block_length(states), 2, idx))
    for j_max in (1, 4, 64, 1000):
        mass = _assert_mass_matches_rows(states, codes, j_max)
        assert mass[0] == 0.0 and 0.0 < mass[1] <= 0.25 + 1e-14


def test_lf_small_value_mass_of_no_survival_is_zero():
    # p = 0 is exactly 0 at every a, also at a = 1 where log1p(-a) = -inf
    # (RuntimeWarnings are errors in this suite)
    p, a = np.zeros(4), np.array([0.0, 0.5, 1.0 - 2.0**-53, 1.0])
    for j_max in (1, 64, MAX_DEGREE):
        assert _lf_small_value_mass(p, a, j_max).tolist() == [0.0] * 4


def test_lf_small_value_mass_matches_mpmath():
    # given its own doubles p and a, the closed form is within 4 ulps of the
    # 50-digit p (-expm1(J log1p(-a))), also at a near 1e-119, where
    # 1 - (1 - a)^J loses every digit at 50 and a naive p (1 - r^J) in
    # doubles is 0
    rng = np.random.default_rng(7)
    a = np.concatenate([
        rng.random(64), 10.0 ** rng.uniform(-300, -1, 64), 1.0 - 10.0 ** rng.uniform(-16, -1, 32),
        [1e-119, 3.7e-119, 2.0**-1074, 0.0, 0.5, 1.0 - 2.0**-53, 1.0],
    ])
    p = rng.uniform(1e-3, 1.0, a.size)
    for j_max in (1, 4, 64, 1000, MAX_DEGREE):
        got = _lf_small_value_mass(p, a, j_max)
        with mpmath.workdps(50):
            for pi, ai, gi in zip(p.tolist(), a.tolist(), got.tolist()):
                log_keep = mpmath.log1p(-mpmath.mpf(ai)) if ai < 1.0 else -mpmath.inf
                want = float(mpmath.mpf(pi) * -mpmath.expm1(j_max * log_keep))
                assert abs(gi - want) <= 4 * np.spacing(want), (pi, ai, j_max)
    with mpmath.workdps(50):
        assert 1 - (1 - mpmath.mpf(1e-119)) ** 64 == 0
    r = 1.0 - 1e-119
    assert 1.0 - r**64 == 0.0 and _lf_small_value_mass(np.ones(1), np.array([1e-119]), 64)[0] > 0.0


def test_importance_chunk_at_z0_one_builds_no_coefficient_rows(monkeypatch):
    # an all-LF model at z0 = 1 reads each row's mass in closed form: no
    # (rows, j_max + 1) block; z0 = 2 keeps the rows route
    model = weakly_model()
    nu = solve_critical_tilt(model)
    want = importance_estimate(model, 2, 13, 64, nu, 400, root_seed=4)

    def refuse(*args):
        raise AssertionError("coefficient rows built")

    monkeypatch.setattr(simulate, "composed_rows", refuse)
    monkeypatch.setattr(simulate, "pow_rows", refuse)
    est = importance_estimate(model, 1, 40, 1000, nu, 400, root_seed=4)
    assert 0.0 < est.estimate < 1.0
    with pytest.raises(AssertionError, match="coefficient rows built"):
        importance_estimate(model, 2, 13, 64, nu, 400, root_seed=4)
    monkeypatch.undo()
    assert importance_estimate(model, 2, 13, 64, nu, 400, root_seed=4) == want


@pytest.mark.parametrize("name", ["weakly", "finite"])
@pytest.mark.parametrize(
    "z0, n, j_max, error, message",
    [
        (1, -1, 4, ContractError, "n must be >= 0"),
        (1, 5, -1, ContractError, "j_max must be >= 0"),
        (-1, 5, 4, ContractError, "initial size must be >= 0"),
        (1, 5, MAX_DEGREE + 1, TruncationError, f"required degree {MAX_DEGREE + 1} exceeds cap"),
        (1, 5, 20000, TruncationError, f"required degree 20000 exceeds cap {MAX_DEGREE}"),
    ],
    ids=["n", "j_max", "z0", "j_max_above_cap", "j_max_20000"],
)
def test_importance_estimate_refuses_bad_arguments_before_any_draw(
    name, z0, n, j_max, error, message, monkeypatch
):
    # the messages of ``quenched_coeff_row``; no stream, tilt or level is made
    model = {"weakly": weakly_model(), "finite": FINITE_MODEL}[name]

    def refuse(*args):
        raise AssertionError("work started")

    for fn in ("stream", "tilt", "_code_level"):
        monkeypatch.setattr(simulate, fn, refuse)
    with pytest.raises(error, match=message) as info:
        importance_estimate(model, z0, n, j_max, 0.3, 400, root_seed=1)
    assert (error is ContractError) == (type(info.value) is ContractError)


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


def test_conditioned_mrca_deterministic_across_workers(monkeypatch):
    model = intermediate_model()
    monkeypatch.setenv("BPRE_THREADS", "1")
    d1 = conditioned_mrca_sample(model, 5, 2, "geiger", 30_000, root_seed=7)
    monkeypatch.setenv("BPRE_THREADS", "2")
    d2 = conditioned_mrca_sample(model, 5, 2, "geiger", 30_000, root_seed=7)
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


FINITE_MODEL = EnvironmentModel(
    (FiniteLaw((0.2, 0.5, 0.3)), FiniteLaw((0.4, 0.2, 0.4))), (0.6, 0.4)
)
EVEN_FINITE_MODEL = EnvironmentModel(FINITE_MODEL.states, (0.5, 0.5))
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
        tails = mrca_rows(model.states, idx, 2)
        assert tails.shape == (idx.shape[0], n + 1)
        for r in range(idx.shape[0]):
            oracle = mrca_pair_law([model.states[a] for a in idx[r]])
            # column g is the MRCA generation, the oracle's index the age n - g:
            # A_g sums the ages 0..n - g, from the end, so no term cancels
            assert np.max(np.abs(tails[r] - np.cumsum(oracle)[::-1])) <= 1e-15
    with pytest.raises(ContractError, match="target size"):
        mrca_rows(model.states, idx, 1)


@pytest.mark.parametrize("target", [2, 3, 5])
@pytest.mark.parametrize("model", MRCA_MODELS, ids=MRCA_MODEL_IDS)
def test_mrca_rows_sum_to_annealed_pmf(model, target):
    n = 6
    idx, weights = _all_envs(model, n)
    total = weights @ mrca_rows(model.states, idx, target)[:, 0]
    exact = annealed_pmf(model, 1, n, target)
    assert exact > 0.0
    assert abs(total - exact) <= 1e-12 * exact


@pytest.mark.parametrize("target", [2, 3, 5])
def test_mrca_rows_route_per_row_in_mixed_block(target):
    # all-LF rows take the closed form, rows holding the finite state the
    # log-derivative route, and each row equals its own one-row call bit for bit
    idx = MIXED_MODEL.sample_indices(np.random.default_rng(91), (48, 7))
    idx[::3] = 0
    lf = (idx == 0).all(axis=1)
    assert lf.any() and not lf.all()
    rows = mrca_rows(MIXED_MODEL.states, idx, target)
    for r in range(idx.shape[0]):
        assert np.array_equal(rows[r], mrca_rows(MIXED_MODEL.states, idx[r : r + 1], target)[0])
    assert np.array_equal(rows[~lf], log_derivative_mrca_rows(MIXED_MODEL.states, idx[~lf], target))


def _mrca_block(block, rng, n):
    """(states, idx): 48 environments of n generations, all LF, all finite, or mixed."""
    if block == "mixed":
        idx = MIXED_MODEL.sample_indices(rng, (48, n))
        idx[::3] = 0
        return MIXED_MODEL.states, idx
    draw = random_lf_law if block == "lf" else random_finite_law
    return tuple(draw(rng) for _ in range(3)), rng.integers(0, 3, (48, n))


@pytest.mark.parametrize("target", [2, 3])
@pytest.mark.parametrize("block", ["lf", "finite", "mixed"])
def test_survival_rows_bound_the_mrca_law(block, target):
    # the spine lane thins on survival_rows, so no row may lose MRCA mass to it
    rng = np.random.default_rng(17 + target)
    for n in (1, 4, 12, 30):
        states, idx = _mrca_block(block, rng, n)
        survival = survival_rows(states, idx)
        assert survival.shape == (idx.shape[0],)
        total = mrca_rows(states, idx, target)[:, 0]
        assert np.all(survival >= total * (1.0 - 1e-12))


def _bound_model(block, rng):
    """Three random states at equal weights: LF, finite or mixed, optionally one with q(0) = 0."""
    if block == "mixed":
        states = [random_lf_law(rng), random_finite_law(rng), random_lf_law(rng)]
    elif block.startswith("lf"):
        states = [random_lf_law(rng) for _ in range(3)]
        if block == "lf_no_death":  # b = 2 m (m - 1) gives q(0) = 0
            m = rng.uniform(1.0, 2.5)
            states[1] = LinearFractionalLaw(m=m, b=2.0 * m * (m - 1.0))
    else:
        states = [random_finite_law(rng, with_extinction=True) for _ in range(3)]
        if block == "finite_no_death":
            states[1] = random_finite_law(rng, with_extinction=False)
    return EnvironmentModel(tuple(states), (1.0 / 3.0,) * 3)


@pytest.mark.parametrize("block", ["lf", "lf_no_death", "finite", "finite_no_death", "mixed"])
def test_spine_bound_holds_the_mrca_mass(block):
    # the spine lane cuts every proposal with u >= _spine_bound before any
    # per-environment work, so no row's A_0 may exceed it, at any horizon
    lf = block.startswith("lf")
    horizons = (1, 4, 30, 300, 2000) if lf else (1, 4, 30, 200)
    targets = (2, 3, 5, 1000) if lf else (2, 3, 5)
    rng = np.random.default_rng(31 + len(block))
    for n in horizons:
        for target in targets:
            model = _bound_model(block, rng)
            bound = _spine_bound(model, target)
            if block == "finite_no_death":
                assert bound == 1.0  # q(0) = 0 and a finite law: no cut
            mass = mrca_rows(model.states, rng.integers(0, 3, (48, n)), target)[:, 0]
            assert np.all(mass <= bound), (n, target)


@pytest.mark.parametrize("target", [2, 3, 5, 1000])
def test_spine_bound_is_attained_by_one_lf_generation(target):
    # one LF generation with ratio r = 1 - 1/T puts A_0 = (1 - q(0)) a r^(T-1)
    # at the bound's (1 - q(0)) (1 - 1/T)^(T-1) / T
    law = LinearFractionalLaw(m=1.0, b=2.0 * (target - 1))
    bound = _spine_bound(EnvironmentModel((law,), (1.0,)), target)
    mass = mrca_rows((law,), np.zeros((1, 1), dtype=np.int64), target)[0, 0]
    assert 0.9995 * bound <= mass <= bound
    # a finite state with q(0) = 0 puts kappa at 1, and c is 1 beside a finite law
    mixed = EnvironmentModel((law, FiniteLaw((0.0, 0.5, 0.5))), (0.5, 0.5))
    assert _spine_bound(mixed, target) == 1.0


@pytest.mark.parametrize(
    "law",
    [
        FiniteLaw((1.0 - 1e-7, 0.0, 1e-7 + 5e-13)),  # stored probabilities sum to 1 + 5e-13
        LinearFractionalLaw(m=1e-11, b=2e-11),  # 1 - q(0) = 5e-12 cancels in 1 - p0
    ],
    ids=["finite", "lf"],
)
def test_spine_bound_covers_a_tiny_one_step_survival(law):
    # a relative margin alone falls below q(2) = 1e-7 + 5e-13 on the finite law
    mass = mrca_rows((law,), np.zeros((1, 1), dtype=np.int64), 2)[0, 0]
    assert 0.0 < mass <= _spine_bound(EnvironmentModel((law,), (1.0,)), 2)


@pytest.mark.parametrize("target", [2, 3, 5])
@pytest.mark.parametrize("block", ["lf", "finite", "mixed"])
def test_mrca_tails_fall_from_the_target_mass_to_zero(block, target):
    # A_0 = P(Z_n = T | env) is the horizon row's coefficient T, A_n = 0, and
    # the tails never rise or go negative beyond rounding
    rng = np.random.default_rng(23 + target)
    for n in (1, 4, 12, 30):
        states, idx = _mrca_block(block, rng, n)
        tails = mrca_rows(states, idx, target)
        mass = horizon_rows(states, idx, target + 1)[:, target]
        assert np.all(np.abs(tails[:, 0] - mass) <= 1e-14 * mass)
        assert np.all(tails[:, n] == 0.0)
        slack = 1e-14 * tails[:, :1]
        assert np.all(tails >= -slack)
        assert np.all(np.diff(tails, axis=1) <= slack)


@pytest.mark.parametrize("target", [2, 3, 5])
def test_series_mrca_tails_match_log_derivative_helper(target):
    rng = np.random.default_rng(400 + target)
    for n in (1, 3, 8, 14):
        states = tuple(random_finite_law(rng, 3, with_extinction=True) for _ in range(3))
        idx = rng.integers(0, 3, (8, n))
        tails = mrca_rows(states, idx, target)
        oracle = log_derivative_mrca_rows(states, idx, target)
        np.testing.assert_allclose(tails, oracle, rtol=1e-13, atol=0.0)


def _differenced_rule_counts(model, n, target, rng, size, cut=True):
    """MRCA counts of one spine-lane chunk by the rule on differenced columns.

    The stream order of ``_mrca_spine_chunk``: one uniform per proposal,
    the cut at ``_spine_bound`` (none without ``cut``), then the kept
    proposals' environments.  Every kept environment is thinned on its
    survival alone, on LF models too, and the age comes from the cumulative
    sum of the columns A_g - A_{g+1}, clipped at 0, instead of from the
    tails.
    """
    u = rng.random(size)
    if cut:
        u = u[u < _spine_bound(model, target)]
    idx = model.sample_indices(rng, (u.size, n))
    keep = u < survival_rows(model.states, idx)
    tails = mrca_rows(model.states, idx[keep], target)
    cum = np.cumsum(np.clip(tails[:, :-1] - tails[:, 1:], 0.0, None), axis=1)
    u = u[keep]
    hit = u < cum[:, -1]
    return dict(Counter((n - np.argmax(u[hit, None] < cum[hit], axis=1)).tolist()))


DIFFERENCED_RULE_CASES = pytest.mark.parametrize(
    "model, n, target",
    [
        (strongly_model(), 16, 2),
        (strongly_model(), 10, 3),
        (EVEN_FINITE_MODEL, 8, 2),
        (MIXED_MODEL, 6, 3),
        (weakly_mrca_model(), 12, 2),
    ],
    ids=["lf_t2", "lf_t3", "finite", "mixed", "weakly_mrca"],
)


def _both_routes(table_free, check):
    """check() with the block table ``exact`` keeps (none on a finite model), then table-free."""
    check()
    table_free(check)


def _assert_spine_lane_matches_differenced_rule(model, n, target, cut, table_free):
    def check():
        accepted = 0
        for c, size in enumerate((_CHUNK, _CHUNK, _CHUNK, 1001)):
            got = _mrca_spine_chunk(model, n, target, stream(9, c), size)
            assert got == _differenced_rule_counts(model, n, target, stream(9, c), size, cut)
            accepted += sum(got.values())
        assert accepted > 0

    _both_routes(table_free, check)


@DIFFERENCED_RULE_CASES
def test_spine_lane_ages_match_differenced_rule(model, n, target, table_free):
    _assert_spine_lane_matches_differenced_rule(model, n, target, True, table_free)


@DIFFERENCED_RULE_CASES
def test_spine_lane_ages_match_differenced_rule_without_cut(
    model, n, target, monkeypatch, table_free
):
    # with the bound at 1 the lane cuts nothing, and neither does the oracle
    monkeypatch.setattr(simulate, "_spine_bound", lambda model, target: 1.0)
    _assert_spine_lane_matches_differenced_rule(model, n, target, False, table_free)


@pytest.mark.parametrize(
    "model, n, seed, size",
    [
        (strongly_model(), 16, 5, _CHUNK),
        (EVEN_FINITE_MODEL, 8, 5, _CHUNK),
        (strongly_model(), 16, 2, 3),  # every u is above the bound
        (EVEN_FINITE_MODEL, 8, 1, 1),  # the one u is above the bound
    ],
    ids=["strongly", "finite", "strongly_none_kept", "finite_none_kept"],
)
def test_spine_chunk_draws_uniforms_then_kept_environments(model, n, seed, size, table_free):
    # the chunk draws size uniforms, then n cells for each kept proposal, and
    # nothing else: a later change of this order changes every geiger draw
    def check():
        rng = stream(seed, 0)
        _mrca_spine_chunk(model, n, 2, rng, size)
        replay = stream(seed, 0)
        kept = int(np.count_nonzero(replay.random(size) < _spine_bound(model, 2)))
        assert (kept == 0) == (size < _CHUNK)
        replay.random(kept * n)
        assert rng.random() == replay.random()

    _both_routes(table_free, check)


@pytest.mark.parametrize(
    "model", [strongly_model(), weakly_mrca_model()], ids=["strongly", "weakly_mrca"]
)
def test_spine_chunk_memory_follows_kept_proposals(model, table_free):
    # a cut proposal holds no environment row, so one long chunk stays well
    # below a single (size, n) float block, the block table it builds included
    n = 2000

    def check():
        tracemalloc.start()
        try:
            _mrca_spine_chunk(model, n, 2, stream(3, 0), _CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * _CHUNK * n * 8

    _both_routes(table_free, check)


@pytest.mark.parametrize(
    "model, n, counts",
    [
        (strongly_model(), 16, {1: 10, 2: 1, 3: 1, 4: 2, 12: 2}),
        (weakly_mrca_model(), 8, {1: 36, 2: 14, 3: 3, 4: 4, 5: 7, 6: 4, 7: 6, 8: 7}),
    ],
    ids=["strongly_n16", "weakly_mrca_n8"],
)
def test_geiger_counts_are_pinned(model, n, counts, monkeypatch):
    # recorded before the sampler read a table of LF statistics, which moves
    # no draw and no bit of ``mrca_rows``, in one process or in a pool;
    # n = 16 steps four generations past the block table's L = 12, n = 8 none
    for workers in ("1", "2"):
        monkeypatch.setenv("BPRE_THREADS", workers)
        d = conditioned_mrca_sample(model, n, 2, "geiger", 3 * _CHUNK, root_seed=7)
        assert d.counts == counts
        assert d.accepted == sum(counts.values())


def test_one_block_table_serves_every_horizon_of_a_model(monkeypatch, tmp_path, table_free):
    # a geiger ``--n-list 8,16`` call and importance sampling at n = 16 and
    # 40 on one model build one table between them, a repeat builds none,
    # and ``exact`` keeps one table at most; a spine chunk steps only the
    # generations before its last L (``mrca_rows`` reads r's layers), and a
    # block's composed rows step none
    info = exact._lf_block_table.cache_info
    steps = []

    def step_spy(*args, **kwargs):
        steps.append(1)
        return lf_step(*args, **kwargs)

    lf_step = exact._lf_step
    monkeypatch.setenv("BPRE_THREADS", "1")
    model = strongly_model()
    path = tmp_path / "strongly.json"
    path.write_text(json.dumps(model.to_json()))
    argv = ["mrca", "--model", str(path), "--n-list", "8,16", "--replicates", str(3 * _CHUNK),
            "--seed", "5", "--out", str(tmp_path / "mrca.json")]
    assert info().maxsize == 1
    assert main(argv) == 0
    assert info().misses == 1 and info().currsize == 1
    estimates = [importance_estimate(model, 1, n, 4, 0.0, 3 * _CHUNK, root_seed=5) for n in (16, 40)]
    assert info().misses == 1 and info().currsize == 1
    artifact = (tmp_path / "mrca.json").read_bytes()
    assert main(argv) == 0 and (tmp_path / "mrca.json").read_bytes() == artifact
    assert [importance_estimate(model, 1, n, 4, 0.0, 3 * _CHUNK, root_seed=5)
            for n in (16, 40)] == estimates
    assert info().misses == 1 and exact._lf_block_table(model.states).length == 12
    monkeypatch.setattr(exact, "_lf_step", step_spy)
    for n in (8, 16, 30):
        exact._lf_block_table(model.states)  # ``table_free`` dropped the last one
        steps.clear()
        idx = model.sample_indices(stream(5, n), (_CHUNK, n))
        horizon_rows(model.states, idx, 5)
        survival_rows(model.states, idx)
        assert steps == []
        got = _mrca_spine_chunk(model, n, 2, stream(2, 0), _CHUNK)
        assert len(steps) == n - min(n, 12)
        monkeypatch.setattr(exact, "_lf_step", lf_step)
        assert got == table_free(lambda: _mrca_spine_chunk(model, n, 2, stream(2, 0), _CHUNK)) != {}
        monkeypatch.setattr(exact, "_lf_step", step_spy)
    exact._lf_block_table.cache_clear()
    conditioned_mrca_sample(model, 8, 2, "rejection", 10, root_seed=5)
    assert info().misses == 0  # the rejection lane reads no table


def test_one_state_samplers_read_a_table_past_255_generations(monkeypatch, table_free):
    # at K = 1 the table holds K = 2's L = 12 levels, so a row of n = 300
    # composes 25 blocks (importance sampling) or steps the 288 generations
    # before its last block (geiger); the geiger counts keep the table-free
    # route's, and the estimate agrees with it to rounding
    model = EnvironmentModel((LinearFractionalLaw(1.0, 0.1),), (1.0,))
    n = 300
    assert exact._lf_block_table(model.states).length == 12
    monkeypatch.setenv("BPRE_THREADS", "1")

    def run():
        est = importance_estimate(model, 1, n, 4, 0.0, 300, root_seed=3)
        d = conditioned_mrca_sample(model, n, 2, "geiger", 2 * _CHUNK + 5, root_seed=3)
        return est, d.counts, d.accepted

    (est, *geiger), (free, *geiger_free) = run(), table_free(run)
    assert geiger == geiger_free and geiger[1] > 0
    assert est.estimate > 0.0 and est.estimate == pytest.approx(free.estimate, rel=1e-13, abs=0.0)
    assert est.std_error == free.std_error == 0.0  # one state: every environment is the same


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


def _brood_chi2_pvalue(law, t, j_max, draws, rng, bins=30):
    """Chi-square p-value of ``draws`` brood draws against ``brood_law_oracle``.

    The cells (j, l), in row-major order, are cut into about ``bins`` groups
    of equal oracle probability.
    """
    p = brood_law_oracle(law, t, j_max).ravel()
    group = np.minimum(((np.cumsum(p) - 0.5 * p) * bins).astype(np.int64), bins - 1)
    cells = []
    for _ in range(draws):
        j, l = _draw_brood(law, t, rng)
        assert 1 <= l <= j <= j_max
        cells.append(j * (j_max + 1) + l)
    observed = np.bincount(group[cells], minlength=bins)
    expected = np.bincount(group, weights=p, minlength=bins)
    keep = expected > 0.0
    return stats.chisquare(observed[keep], expected[keep] * draws).pvalue


@pytest.mark.parametrize("t", [0.0, 0.3, 0.999])
@pytest.mark.parametrize("kmax", [3, 50, 300])
def test_draw_brood_matches_oracle_finite(kmax, t):
    rng = np.random.default_rng(kmax)
    raw = rng.random(kmax + 1) + 0.01
    law = FiniteLaw(tuple(raw / raw.sum()))
    assert _brood_chi2_pvalue(law, t, kmax, 10_000, stream(kmax, int(1000 * t))) > 1e-3


def test_draw_brood_matches_oracle_lf():
    # ratio 2/3: broods above j = 90, outside the oracle's cells, have probability 3e-16
    law = LinearFractionalLaw(m=2.0, b=8.0)
    assert _brood_chi2_pvalue(law, 0.8, 90, 10_000, stream(3, 0)) > 1e-3


@pytest.mark.parametrize(
    "law, t", [(FiniteLaw((1.0,)), 0.5), (FiniteLaw((0.5, 0.0, 0.5)), math.inf)]
)
def test_draw_brood_rejects_vanishing_weights(law, t):
    with pytest.raises(ContractError, match="brood weights"):
        _draw_brood(law, t, stream(1, 0))


@pytest.mark.parametrize("q", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("rare_first", [False, True])
def test_geiger_samples_small_survival(q, rare_first):
    # quenched survival is about q, so 1 - t_k keeps few digits; the
    # rare-first environment has a nontrivial conditional law of Z_2
    if rare_first:
        laws = (FiniteLaw((1.0 - q, 0.0, q)), FiniteLaw((0.25, 0.25, 0.5)))
    else:
        laws = (FiniteLaw((0.5, 0.0, 0.5)), FiniteLaw((1.0 - q, q)))
    env = EnvSequence(laws)
    row = quenched_coeff_row(env, 1, 8)
    exact = row[1:] / row[1:].sum()
    rng = stream(12, 0)
    reps = 3000
    z = np.array([geiger_sample(env, 1, rng).z_n for _ in range(reps)])
    freq = np.bincount(z, minlength=9)[1:9] / reps
    assert 0.5 * np.abs(exact - freq).sum() <= 0.04


# ---------------------------------------------------------------------------
# population cap and the chunk driver

# every individual has 1000 children: sizes run 1, 10^3, 10^6, 10^9
THOUSAND_LAW = FiniteLaw((0.0,) * 1000 + (1.0,))
THOUSAND_MODEL = EnvironmentModel((THOUSAND_LAW,), (1.0,))


def test_population_cap_raises_in_every_forward_simulation():
    with pytest.raises(PopulationCapError, match="exceeds cap"):
        simulate_forward(THOUSAND_MODEL, 1, 4, stream(1, 0))
    with pytest.raises(PopulationCapError, match="exceeds cap"):
        _one_tree(THOUSAND_MODEL, 1, 4, stream(1, 0))
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
def test_conditioned_mrca_chunk_layout(method, chunk_fn, monkeypatch):
    # 2 * _CHUNK + 1 proposals are three chunks of 4096, 4096 and 1, chunk c on stream(seed, c)
    n, seed = 5, 61
    monkeypatch.setenv("BPRE_THREADS", "1")
    dist = conditioned_mrca_sample(EVEN_FINITE_MODEL, n, 2, method, 2 * _CHUNK + 1, seed)
    merged = Counter()
    for c, size in enumerate((4096, 4096, 1)):
        merged.update(chunk_fn(EVEN_FINITE_MODEL, n, 2, stream(seed, c), size))
    assert dist.counts == dict(merged)
    assert dist.accepted == sum(merged.values()) > 0


def test_map_chunks_memory_does_not_grow_with_chunk_count():
    # a chunk's stream is built when the chunk runs, so only the returned
    # list, one pointer per chunk, grows with the chunk count; a Philox
    # generator per chunk would hold more than 600 bytes each
    def trivial(rng, size):
        return None

    _map_chunks(trivial, 1, 1, 1)  # first-call set-up, outside the trace
    peaks = []
    for chunks in (20, 2000):
        tracemalloc.start()
        try:
            out = _map_chunks(trivial, chunks * _CHUNK, 1, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert out == [None] * chunks
    assert peaks[1] - peaks[0] < 2000 * 16


class _CountedPickles:
    """A chunk function that records, in the process that pickles it, each time it is pickled."""

    def __init__(self, log):
        self.log = log

    def __call__(self, rng, size):
        return size, rng.random()

    def __reduce__(self):
        self.log.append(1)
        return (_CountedPickles, ([],))


def test_map_chunks_pickles_the_function_once_per_batch():
    # a pool is sent one batch per worker, so a function carrying a suffix
    # table is pickled once per worker, not once per chunk; the results are
    # those of the serial path, in chunk order
    log = []
    total = 40 * _CHUNK + 7
    pooled = _map_chunks(_CountedPickles(log), total, 3, 2)
    assert 1 <= len(log) <= 2
    assert pooled == _map_chunks(_CountedPickles([]), total, 3, 1)
    assert [size for size, _ in pooled] == [_CHUNK] * 40 + [7]


def test_importance_estimate_chunk_layout():
    model, n, j_max, seed = weakly_model(), 8, 3, 19
    nu = solve_critical_tilt(model)
    reps = 2 * _CHUNK + 1
    est = importance_estimate(model, 1, n, j_max, nu, reps, root_seed=seed)
    tilted, mu = tilt(model, nu)
    blocks = _Blocks.of(tilted, n)
    values = np.concatenate(
        [
            _importance_chunk(tilted, mu, 1, n, j_max, nu, blocks, stream(seed, c), size)
            for c, size in enumerate((4096, 4096, 1))
        ]
    )
    scale = values.max()
    assert est.estimate == scale * (values / scale).mean()
    assert est.std_error == scale * (values / scale).std(ddof=1) / math.sqrt(reps)


def test_conditioned_mrca_rejection_deterministic_across_workers(monkeypatch):
    args = (EVEN_FINITE_MODEL, 5, 2, "rejection", 2 * _CHUNK + 1)
    monkeypatch.setenv("BPRE_THREADS", "1")
    d1 = conditioned_mrca_sample(*args, root_seed=9)
    monkeypatch.setenv("BPRE_THREADS", "2")
    d2 = conditioned_mrca_sample(*args, root_seed=9)
    assert d1.counts == d2.counts
    assert d1.accepted == d2.accepted > 0


# ---------------------------------------------------------------------------
# the rejection lane's forest


def _forest_trees(idx, parents):
    """Per-tree parent arrays sliced out of a forest grown from one individual per row of idx."""
    tree_of = [np.arange(idx.shape[0])]
    for parent in parents:
        tree_of.append(tree_of[-1][parent])
    out = []
    for t in range(idx.shape[0]):
        members = [np.flatnonzero(ids == t) for ids in tree_of]
        local = []
        for k, parent in enumerate(parents, 1):
            prev = members[k - 1]
            local.append(parent[members[k]] - (prev[0] if prev.size else 0))
        out.append(local)
    return out


@pytest.mark.parametrize("target", [2, 3])
def test_forest_ages_match_per_tree_mrca(target):
    # two routes: the vectorized trace of the forest against the oracle on each tree sliced out of it
    n, size = 4, 4096
    rng = stream(91, target)
    idx = EVEN_FINITE_MODEL.sample_indices(rng, (size, n))
    parents, sizes = _grow(EVEN_FINITE_MODEL.states, idx, np.arange(size), rng)
    ages = _forest_mrca_ages(parents, sizes, target)
    sliced = _forest_trees(idx, parents)
    assert [tree[-1].size for tree in sliced] == sizes.tolist()
    assert [tree_mrca_age(tree) for tree in sliced if tree[-1].size == target] == ages.tolist()
    assert ages.size > 100
    assert (ages == n).any() and (ages < n).any()  # the root is the MRCA of some trees, not all


@pytest.mark.parametrize("target, seed", [(2, 95), (3, 96)])
def test_rejection_acceptance_matches_annealed_pmf(target, seed):
    n, proposals = 5, 40_000
    model = EVEN_FINITE_MODEL
    d = conditioned_mrca_sample(model, n, target, "rejection", proposals, root_seed=seed)
    p = annealed_pmf(model, 1, n, target)
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
