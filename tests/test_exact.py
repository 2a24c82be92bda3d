import gc
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpre.environment import EnvironmentModel
from bpre.errors import BudgetError, ContractError, TruncationError
from bpre import exact
from bpre.exact import (
    EnvSequence,
    annealed_pmf,
    annealed_pmf_row,
    fekete_bounds,
    quenched_coeff_row,
    quenched_survival,
    smallest_reachable,
    subtree_extinction_identity,
    survival_rows,
)
from bpre.laws import FiniteLaw, LinearFractionalLaw
from bpre.models import example1_model, gw_binary, weakly_model
from bpre.pgf import MAX_DEGREE, apply_law_rows, pow_rows

from helpers import (
    digit_block_table,
    digit_rows,
    gapped_finite_law,
    log_derivative_mrca_rows,
    phi_n,
    push_forward_distribution,
    quenched_pmf,
    random_finite_law,
    random_lf_law,
    reachable_closure_oracle,
    scalar_extinction_ladder,
    series_horizon_rows,
    spine_event_probability,
    survival_bounds,
    walk,
)


def test_mean_zero_law_walks_to_minus_inf():
    laws = (FiniteLaw((1.0,)),)
    assert walk(laws).tolist() == [0.0, -math.inf]
    model = EnvironmentModel((FiniteLaw((1.0,)), LinearFractionalLaw(2.0, 8.0)), (0.5, 0.5))
    assert walk(laws)[1] == model.x_values[0]


def test_quenched_pmf_caps_the_row_it_builds():
    env = EnvSequence((LinearFractionalLaw(2.0, 8.0),))
    with pytest.raises(TruncationError):
        quenched_coeff_row(env, 1, MAX_DEGREE + 1)
    assert quenched_pmf(env, 1, MAX_DEGREE) == pytest.approx(
        LinearFractionalLaw(2.0, 8.0).prob(MAX_DEGREE), rel=1e-9
    )


def test_env_sequence_walk():
    env = EnvSequence((FiniteLaw((0.25, 0.0, 0.75)), FiniteLaw((0.0, 1.0))))
    assert walk(env.laws) == pytest.approx([0.0, math.log(1.5), math.log(1.5)])
    lad = env.extinction_ladder()
    # t_k = f_{k,n}(0): the copy law in the last slot cannot die, so t_1 = 0
    assert lad[2] == 0.0
    assert lad[1] == pytest.approx(0.0)
    assert lad[0] == pytest.approx(0.25)
    # computed once per sequence and handed out read-only
    assert env.extinction_ladder() is lad
    assert not lad.flags.writeable
    reversed_env = EnvSequence((FiniteLaw((0.0, 1.0)), FiniteLaw((0.25, 0.0, 0.75))))
    assert reversed_env.extinction_ladder()[0] == pytest.approx(0.25)


@pytest.mark.parametrize("family", ["lf", "finite", "mixed"])
def test_extinction_ladder_matches_scalar_recursion(family):
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 30):
        if family == "lf":
            laws = tuple(random_lf_law(rng) for _ in range(n))
        elif family == "finite":
            laws = tuple(random_finite_law(rng, 4, with_extinction=True) for _ in range(n))
        else:
            alphabet = (random_lf_law(rng), random_finite_law(rng, 3), random_lf_law(rng))
            laws = tuple(alphabet[i] for i in rng.integers(0, 3, n))
        lad = EnvSequence(laws).extinction_ladder()
        np.testing.assert_allclose(lad, scalar_extinction_ladder(laws), rtol=1e-14, atol=0.0)


def test_horizon_rows_layers_and_widths_agree():
    # the in-place block is layer 0, and column 0 (the ladder) is the same at every width
    rng = np.random.default_rng(3)
    states = (random_lf_law(rng), random_finite_law(rng, 3, with_extinction=True))
    idx = rng.integers(0, 2, (32, 6))
    f = exact.horizon_rows(states, idx, 5, layers=True)
    assert f.shape == (7, 32, 5)
    assert np.array_equal(exact.horizon_rows(states, idx, 5), f[0])
    assert np.array_equal(exact.horizon_rows(states, idx, 1, layers=True)[..., 0], f[..., 0])
    for r in range(4):
        env = EnvSequence(tuple(states[a] for a in idx[r]))
        assert np.array_equal(env.extinction_ladder(), f[:, r, 0])


def _mp_lf_suffix(laws):
    """(A_k, B_k) of f_{k,n}(s) = 1 - (1-s) / (A_k + B_k (1-s)) for k = 0..n, at 60 digits."""
    with mpmath.workdps(60):
        a, b = mpmath.mpf(1), mpmath.mpf(0)
        suffix = [(a, b)]
        for law in reversed(laws):
            m = mpmath.mpf(law.m)
            a, b = a / m, mpmath.mpf(law.b) / (2 * m * m) + b / m
            suffix.append((a, b))
        return suffix[::-1]


def _mp_lf_rows(laws, width, layers=False):
    """Rows of f_{0,n} for an all-LF sequence from its suffix statistics, at 60 digits.

    With ``layers`` the list of rows of f_{k,n} for k = 0..n.
    """
    suffix = _mp_lf_suffix(laws)
    with mpmath.workdps(60):
        rows = []
        for a, b in suffix if layers else suffix[:1]:
            d = a + b
            rows.append([1 - 1 / d] + [a / d**2 * (b / d) ** (j - 1) for j in range(1, width)])
        return rows if layers else rows[0]


def _mp_lf_mrca(laws, target):
    """A_g = prod_{k=1..g} f_k'(t_k) [s^target] f_{g,n} for g = 0..n, at 60 digits.

    The definition term by term: f_k'(s) = (1/m) / (1/m + eta (1-s))^2 at
    1 - t_k = P(Z_n > 0 | Z_k = 1), which is kept as 1/(A_k + B_k) so no
    digit is lost when it is far below 10^-60.
    """
    suffix = _mp_lf_suffix(laws)
    rows = _mp_lf_rows(laws, target + 1, layers=True)
    with mpmath.workdps(60):
        prefix, out = mpmath.mpf(1), []
        for g, (a, b) in enumerate(suffix):
            if g > 0:
                law = laws[g - 1]
                inv_m, eta = 1 / mpmath.mpf(law.m), mpmath.mpf(law.b) / (2 * mpmath.mpf(law.m) ** 2)
                prefix *= inv_m / (inv_m + eta / (a + b)) ** 2
            out.append(prefix * rows[g][target])
        return out


def test_lf_closed_form_rows_match_mpmath():
    model = weakly_model()
    idx = model.sample_indices(np.random.default_rng(40), (40, 40))
    rows = exact.horizon_rows(model.states, idx, 65)
    for r in range(idx.shape[0]):
        oracle = _mp_lf_rows([model.states[a] for a in idx[r]], 65)
        for j, value in enumerate(oracle):
            assert abs(rows[r, j] - value) <= 1e-13 * abs(value), (r, j)


@pytest.mark.parametrize("width", [1, 3, 65])
@pytest.mark.parametrize("layers", [False, True])
def test_lf_closed_form_matches_series_route(width, layers):
    rng = np.random.default_rng(width)
    for _ in range(6):
        states = tuple(random_lf_law(rng) for _ in range(3))
        idx = rng.integers(0, 3, (8, int(rng.integers(0, 25))))
        rows = exact.horizon_rows(states, idx, width, layers=layers)
        np.testing.assert_allclose(
            rows, series_horizon_rows(states, idx, width, layers), rtol=1e-11, atol=1e-300
        )


@pytest.mark.parametrize("width", [1, 65])
@pytest.mark.parametrize("sub_first", [True, False])
def test_lf_closed_form_survives_long_excursions(width, sub_first):
    # 1100 generations at m = 0.5 and 1100 at m = 2: the suffix statistic A
    # reaches 2^1100, yet the bounded recursion stays finite and nonnegative
    states = (LinearFractionalLaw(0.5, 0.5), LinearFractionalLaw(2.0, 8.0))
    order = [0, 1] if sub_first else [1, 0]
    idx = np.repeat(order, 1100)[None, :]
    rows = exact.horizon_rows(states, idx, width)
    assert np.all(np.isfinite(rows)) and np.all(rows >= 0.0)
    layered = exact.horizon_rows(states, idx, width, layers=True)
    assert np.all(np.isfinite(layered)) and np.all(layered >= 0.0)
    if sub_first:
        np.testing.assert_allclose(
            rows, series_horizon_rows(states, idx, width), rtol=0.0, atol=1e-300
        )
        np.testing.assert_allclose(
            layered, series_horizon_rows(states, idx, width, True), rtol=1e-11, atol=1e-300
        )
        return
    # the survival behind the subcritical suffix falls to 2^-1100 and comes
    # back to 1/4; the series route loses it too, so check the true values
    oracle = _mp_lf_rows([states[a] for a in idx[0]], width, layers=True)
    true = np.array([[float(v) for v in row] for row in oracle])
    err = np.abs(layered[:, 0] - true)
    normal = true >= np.finfo(float).tiny
    assert np.all(err[normal] <= 1e-13 * true[normal])
    assert np.all(err[~normal] <= 1e-290)
    assert np.array_equal(rows, layered[0])
    survival = 1 - oracle[0][0]
    assert abs((1.0 - rows[0, 0]) - survival) <= 1e-14 * survival
    assert survival == pytest.approx(0.25, rel=1e-14)


def test_lf_closed_form_scales_survival_back_up():
    # behind 1100 subcritical generations p is 2^-1100, carried with an exponent;
    # 1400 supercritical ones bring it back near 1, so the mantissa must scale back
    states = (LinearFractionalLaw(0.5, 0.5), LinearFractionalLaw(2.0, 4.1))
    laws = [states[1]] * 1400 + [states[0]] * 1100
    idx = np.repeat([1, 0], [1400, 1100])[None, :]
    oracle = _mp_lf_rows(laws, 3)
    for layers in (False, True):
        row = exact.horizon_rows(states, idx, 3, layers=layers)[0].ravel()
        for j, value in enumerate(oracle):
            assert abs(row[j] - value) <= 1e-13 * value, (layers, j)
    survival = 1 - oracle[0]
    assert abs(survival - 4.0 / 4.1) <= 1e-14
    assert abs(survival_rows(states, idx)[0] - survival) <= 1e-14 * survival


# composed LF rows against stepped ones, relative, wherever the stepped value
# is a normal double; 1.3e-15 was seen at n <= 100 and 4.5e-14 at K = 1, n = 300
COMPOSED_RTOL = 1e-13


def _assert_composed_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    err = np.abs(got - want)
    normal = np.abs(want) >= np.finfo(float).tiny
    assert np.all(err[normal] <= COMPOSED_RTOL * np.abs(want[normal]))
    assert np.all(err[~normal] <= 1e-300)


@pytest.mark.parametrize("width", [1, 4, 65])
@pytest.mark.parametrize("layers", [False, True])
def test_horizon_rows_route_per_row_in_mixed_block(width, layers):
    # all-LF rows take the closed form, rows with a finite law the series
    # route; a series row, and a layered LF row, equals its one-row call bit
    # for bit, and an LF row of the block without layers, composed from the
    # block table (n = 9 > L = 7), agrees with its one-row steps
    rng = np.random.default_rng(11)
    states = (random_lf_law(rng), random_finite_law(rng, 3, with_extinction=True), random_lf_law(rng))
    idx = rng.choice([0, 2], (24, 9))
    idx[1::2, rng.integers(0, 9, 12)] = 1
    closed = np.arange(24) % 2 == 0
    f = exact.horizon_rows(states, idx, width, layers=layers)
    if not layers:
        f = f[None]
    lf_rows = exact._lf_layers(*exact._lf_suffix(states, idx[closed], width, layers), width)
    assert np.array_equal(f[:, closed], lf_rows)
    assert np.array_equal(f[:, ~closed], exact._series_layers(states, idx[~closed], width, layers))
    for r in range(idx.shape[0]):
        one = exact.horizon_rows(states, idx[r : r + 1], width, layers=layers)
        got, want = (one[:, 0], f[:, r]) if layers else (one[0], f[0, r])
        if layers or not closed[r]:
            assert np.array_equal(got, want)
        else:
            _assert_composed_close(want, got)


def _suffix_case(name):
    """(states, the block table's length L, idx sampler) of a two-route block table case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "two":  # K = 2: 2^12 = 4096
        states = (random_lf_law(rng), random_lf_law(rng))
        return states, 12, lambda b, n: rng.integers(0, 2, (b, n))
    if name == "lf":  # K = 3: 3^7 <= 4096 < 3^8
        states = tuple(random_lf_law(rng) for _ in range(3))
        return states, 7, lambda b, n: rng.integers(0, 3, (b, n))
    if name == "mixed":  # the finite state 1 sends a row to the series route

        def draw(b, n):
            idx = rng.choice([0, 2], (b, n))
            idx[1::2, rng.integers(0, n, (b + 1) // 2)] = 1
            return idx

        states = (random_lf_law(rng), random_finite_law(rng, 3, with_extinction=True), random_lf_law(rng))
        return states, 7, draw
    if name == "single":  # K = 1 takes K = 2's length, whatever the horizon
        return (random_lf_law(rng),), 12, lambda b, n: np.zeros((b, n), dtype=np.int64)
    # lf_carry: 1 - q(0) = 2^-47 for the first state, so keep^10 > 2^-512 >
    # keep^11: the survival bound caps L at 10, and a row's exponent carry
    # starts right after the first block
    states = (LinearFractionalLaw(2.0**-47, 0.0), LinearFractionalLaw(1.5, 4.0))
    return states, 10, lambda b, n: rng.integers(0, 2, (b, n))


def _as_bytes(x):
    """Arrays as bytes and floats as hex, through nested tuples and lists: a bit-for-bit key."""
    if isinstance(x, (tuple, list)):
        return [_as_bytes(y) for y in x]
    if isinstance(x, float):
        return x.hex()
    return None if x is None else x.tobytes()


BLOCK_TABLE_CASES = pytest.mark.parametrize("name", ["two", "lf", "mixed", "single", "lf_carry"])
HORIZONS = pytest.mark.parametrize("offset", ["1", "L-1", "L", "L+1", "3L+1", "300"])


def _horizon(offset, length):
    return {"1": 1, "L-1": length - 1, "L": length, "L+1": length + 1, "3L+1": 3 * length + 1,
            "300": 300}[offset]


@HORIZONS
@BLOCK_TABLE_CASES
def test_block_table_keeps_every_bit_of_r_layers(name, offset, table_free):
    # two routes: the r-layered reads of ``_lf_mrca`` (the last min(n, L)
    # generations from the kept table, the rest stepped) against the
    # table-free route, byte for byte, at every width; at K = 1 and n = 300
    # a row steps 288 generations past the table
    states, length, draw = _suffix_case(name)
    n = _horizon(offset, length)
    idx = draw(64, n)
    lf = exact._lf_states(states).is_lf[idx].all(axis=1)
    assert lf.any()

    def kernels():
        return (
            [exact._lf_suffix(states, idx[lf], width, False, r_layers=True)
             for width in (1, 2, 3, 5, 65)],
            [exact.mrca_rows(states, idx, target) for target in (2, 4, 64)],
        )

    got = kernels()
    assert exact._lf_block_table.cache_info().misses == 1  # every kernel read the one table
    assert exact._lf_block_table(states).length == length
    assert _as_bytes(got) == _as_bytes(table_free(kernels))
    if name == "lf_carry" and n > 2 * length:  # some row carries an exponent past the table
        assert got[0][0][0].min() < 2.0**-512


@HORIZONS
@BLOCK_TABLE_CASES
def test_composed_rows_match_the_layered_route(name, offset):
    # two routes: (p, a, r) of f_{0,n} composed from the block table against
    # layered ``_lf_suffix``, which reads no table and steps every
    # generation; a row of n <= L reads one block and keeps every bit.
    # ``horizon_rows`` and ``survival_rows`` give the composed statistics
    states, length, draw = _suffix_case(name)
    n = _horizon(offset, length)
    idx = draw(64, n)
    lf = exact._lf_states(states).is_lf[idx].all(axis=1)
    composed = exact._lf_suffix(states, idx[lf], 3, False)
    layered = [x[:1] for x in exact._lf_suffix(states, idx[lf], 3, True)]
    assert exact._lf_block_table.cache_info().misses == 1
    for got, want in zip(composed, layered):
        assert got.shape == want.shape
        _assert_composed_close(got, want)
        if n <= length:
            assert got.tobytes() == want.tobytes()
    for width in (1, 2, 5):
        rows = exact._lf_layers(*exact._lf_suffix(states, idx[lf], width, False), width)[0]
        assert exact.horizon_rows(states, idx, width)[lf].tobytes() == rows.tobytes()
    assert survival_rows(states, idx)[lf].tobytes() == composed[0][0].tobytes()


@pytest.mark.parametrize("width", [1, 3, 6])
def test_composed_rows_survive_long_excursions(width, monkeypatch):
    # the environments of ``test_lf_closed_form_survives_long_excursions``,
    # both orders in one block, so that they compose from the block table:
    # behind the subcritical half the composed p falls below 2^-512 and is
    # carried with an exponent; the series route checks the row whose
    # survival underflows, the true values the one it comes back to 1/4 in
    states = (LinearFractionalLaw(0.5, 0.5), LinearFractionalLaw(2.0, 8.0))
    idx = np.stack([np.repeat([0, 1], 1100), np.repeat([1, 0], 1100)])
    carried = []
    compose = exact._lf_compose

    def spy(outer, p, e, a, r, carry):
        carried.append(carry)
        return compose(outer, p, e, a, r, carry)

    monkeypatch.setattr(exact, "_lf_compose", spy)
    rows = exact.horizon_rows(states, idx, width)
    assert len(carried) == 2200 // 12 and any(carried)
    assert np.all(np.isfinite(rows)) and np.all(rows >= 0.0)
    np.testing.assert_allclose(
        rows[0], series_horizon_rows(states, idx[:1], width)[0], rtol=0.0, atol=1e-300
    )
    oracle = _mp_lf_rows([states[a] for a in idx[1]], width)
    _assert_composed_close(rows[1], np.array([float(v) for v in oracle]))
    survival = survival_rows(states, idx)
    assert survival[0] <= 1e-300
    _assert_composed_close(survival[1], float(1 - oracle[0]))
    assert float(1 - oracle[0]) == pytest.approx(0.25, rel=1e-14)


@pytest.mark.parametrize("name, n", [("two", 12), ("lf", 40), ("single", 300), ("lf_carry", 40)])
def test_quenched_rows_read_no_block_table(name, n, table_free):
    # ``quenched_coeff_row`` and ``quenched_survival`` of all-LF environments,
    # one row each, neither build nor evict the model's block table and give
    # the table-free route's bits; the same environments in a block, composed
    # from the table, agree with them, bit for bit where n <= L
    states, length, draw = _suffix_case(name)
    idx = draw(8, n)
    envs = [EnvSequence(tuple(states[a] for a in row)) for row in idx]

    def quenched():
        return [(quenched_coeff_row(env, z0, 6), quenched_survival(env, z0))
                for env in envs for z0 in (1, 3)]

    block = (exact.horizon_rows(states, idx, 7), survival_rows(states, idx))
    table = exact._lf_block_table(states)
    got = quenched()
    info = exact._lf_block_table.cache_info()
    assert info.misses == 1 and info.currsize == 1 and exact._lf_block_table(states) is table
    assert _as_bytes(got) == _as_bytes(table_free(quenched))
    for row, env in enumerate(envs):
        alone = (exact.horizon_rows(*env._indexed, 7)[0], survival_rows(*env._indexed)[0])
        if n <= length:
            assert _as_bytes(alone) == _as_bytes((block[0][row], block[1][row]))
        _assert_composed_close(block[0][row], alone[0])
        _assert_composed_close(block[1][row], alone[1])


@BLOCK_TABLE_CASES
def test_block_table_matches_digit_oracle(name):
    # two routes: the breadth-first levels against ``_lf_suffix`` on every
    # block written out as digits, byte for byte, placeholder entries of
    # the mixed model's finite state included
    states, length, _ = _suffix_case(name)
    want = digit_block_table(states, exact._SUFFIX_ROWS)
    assert exact._lf_block_table.cache_info().misses == 0  # the oracle reads no table
    table = exact._lf_block_table(states)
    assert table.length == len(want.bounds) - 1 == length and table.bounds == want.bounds
    k = len(states)
    assert table.stats.shape == (3, sum(k**d for d in range(length + 1)))
    assert table.r_by_code.shape == (length + 1, k**length)
    for field in ("stats", "start", "r_by_code"):
        got, ref = getattr(table, field), getattr(want, field)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), field


@BLOCK_TABLE_CASES
def test_lf_levels_match_per_row_recursion(name):
    # level d of the breadth-first growth is ``_lf_suffix`` on the K^d digit
    # rows of length d, at every width, layered so that it reads no table and
    # steps every generation; two levels past the lf_carry case's table some
    # rows carry an exponent
    states, longest, _ = _suffix_case(name)
    keep = min(1.0 - law.p0 for law in states if isinstance(law, LinearFractionalLaw))
    for width in (1, 2, 3):
        levels = list(exact._lf_levels(states, keep, longest + 2, width))
        assert len(levels) == longest + 3
        for d, (p, e, a, r) in enumerate(levels):
            want = exact._lf_suffix(states, digit_rows(len(states), d), width, True)
            got = (np.ldexp(p, -512 * e), a, r)
            assert [None if x is None else x.tobytes() for x in got] == [
                None if x is None else x[0].tobytes() for x in want
            ], (width, d)
        assert (levels[-1][1].max() > 0) == (name == "lf_carry")
    assert exact._lf_block_table.cache_info().misses == 0  # the reference read no table


def test_block_table_is_skipped_without_an_lf_state_or_a_level(monkeypatch):
    rng = np.random.default_rng(5)
    finite = (random_finite_law(rng, 3, with_extinction=True),) * 2
    assert exact._lf_block_table(finite) is None
    lf = (random_lf_law(rng), random_lf_law(rng))
    assert exact._lf_block_table(lf).length == 12
    assert exact._lf_block_table(lf[:1]).length == 12  # K = 1 takes K = 2's length
    monkeypatch.setattr(exact, "_SUFFIX_ROWS", 1)
    exact._lf_block_table.cache_clear()
    assert exact._lf_block_table(lf) is None
    monkeypatch.setattr(exact, "_SUFFIX_ROWS", 3)
    exact._lf_block_table.cache_clear()  # the kept None was found at 1 row
    assert exact._lf_block_table(lf).length == 1
    # 1 - q(0) = 1e-160 < 2^-512: not one generation keeps the bound, so a
    # block builds no table and steps every generation
    tiny = (LinearFractionalLaw(1e-160, 0.0), lf[0])
    assert exact._lf_block_table(tiny) is None
    idx = rng.integers(0, 2, (4, 30))
    layered = [x[:1] for x in exact._lf_suffix(tiny, idx, 3, True)]
    assert _as_bytes(exact._lf_suffix(tiny, idx, 3, False)) == _as_bytes(layered)


@pytest.mark.parametrize("target", [2, 3, 7])
def test_lf_mrca_rows_match_log_derivative_route(target):
    # the closed form A_g = p_0 a_0 r_g^(T-1) against exp(cumsum log f') [s^T] f_{g,n}:
    # both give tail masses, so each is held to its own size, with no difference formed
    rng = np.random.default_rng(300 + target)
    for n in range(1, 25):
        states = tuple(random_lf_law(rng) for _ in range(3))
        idx = rng.integers(0, 3, (6, n))
        tails = exact.mrca_rows(states, idx, target)
        oracle = log_derivative_mrca_rows(states, idx, target)
        assert tails.shape == (6, n + 1) and np.all(tails[:, n] == 0.0)
        np.testing.assert_allclose(tails, oracle, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("target", [2, 3, 7])
def test_lf_mrca_tails_match_mpmath(target):
    # every tail mass within 1e-13 of its 60-digit value wherever that is a normal double
    rng = np.random.default_rng(320 + target)
    for n in (1, 2, 5, 12, 24):
        states = tuple(random_lf_law(rng) for _ in range(3))
        idx = rng.integers(0, 3, (4, n))
        tails = exact.mrca_rows(states, idx, target)
        for r in range(idx.shape[0]):
            true = np.array([float(v) for v in _mp_lf_mrca([states[a] for a in idx[r]], target)])
            normal = true >= np.finfo(float).tiny
            assert np.all(np.abs(tails[r] - true)[normal] <= 1e-13 * true[normal]), (n, r)
            assert np.all(tails[r][~normal] <= np.finfo(float).tiny)


def test_lf_mrca_rows_skip_log_derivatives_and_layers(monkeypatch):
    rng = np.random.default_rng(5)
    states = tuple(random_lf_law(rng) for _ in range(3))
    idx = rng.integers(0, 3, (16, 9))
    expected = exact.mrca_rows(states, idx, 3)

    def forbidden(*args, **kwargs):
        raise AssertionError("all-LF rows took the series route")

    monkeypatch.setattr(exact, "_log_derivatives", forbidden)
    monkeypatch.setattr(exact, "_lf_layers", forbidden)
    monkeypatch.setattr(exact, "_series_layers", forbidden)
    assert np.array_equal(exact.mrca_rows(states, idx, 3), expected)


@pytest.mark.parametrize("target", [2, 3])
@pytest.mark.parametrize("sub_first", [False, True])
def test_lf_mrca_rows_survive_long_excursions(target, sub_first):
    # 1100 generations at m = 2 and 1100 at m = 0.5: the log-derivative
    # route overflowed exp(log prefix) while [s^T] f_{g,n} underflowed
    states = (LinearFractionalLaw(2.0, 8.0), LinearFractionalLaw(0.5, 0.5))
    order = [1, 0] if sub_first else [0, 1]
    idx = np.repeat(order, 1100)[None, :]
    tails = exact.mrca_rows(states, idx, target)
    assert np.all(np.isfinite(tails)) and np.all(tails >= 0.0)
    total = exact.horizon_rows(states, idx, target + 1)[0, target]
    assert abs(tails[0, 0] - total) <= 1e-13 * total
    if not sub_first and target == 2:
        assert total == pytest.approx(0.046875, rel=1e-14)
    a = tails[0]
    true = np.array([float(v) for v in _mp_lf_mrca([states[i] for i in idx[0]], target)])
    err = np.abs(a - true)
    normal = true >= np.finfo(float).tiny
    assert np.all(err[normal] <= 1e-13 * true[normal])
    assert np.all(err[~normal] <= 1e-300)


def test_survival_rows_keep_survival_below_double_resolution():
    # 100 generations at m = 0.5: t_0 rounds to 1, so 1 - t_0 is 0, while the
    # survival is about 3.9e-31 and P(Z_n = 2 | env) about 9.9e-32
    states = (LinearFractionalLaw(0.5, 0.5),)
    idx = np.zeros((1, 100), dtype=np.int64)
    a, b = _mp_lf_suffix([states[0]] * 100)[0]
    with mpmath.workdps(60):
        true = float(1 / (a + b))
    survival = exact.survival_rows(states, idx)
    assert survival.shape == (1,)
    assert abs(survival[0] - true) <= 1e-13 * true
    assert exact.horizon_rows(states, idx, 1)[0, 0] == 1.0
    assert survival[0] >= exact.mrca_rows(states, idx, 2)[0, 0] > 0.0


FINITE_PAIR = EnvironmentModel((FiniteLaw((0.2, 0.5, 0.3)), FiniteLaw((0.4, 0.2, 0.4))), (0.5, 0.5))


@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("model", [weakly_model(), FINITE_PAIR], ids=["lf", "finite"])
def test_horizon_rows_memory_does_not_grow_with_cells(model, width):
    # one (n, b) float array of this block is 8 MB: besides idx the kernel
    # holds per-generation columns and its (b, width) result, never a
    # per-cell gather or route mask
    idx = model.sample_indices(np.random.default_rng(0), (4096, 256))
    tracemalloc.start()
    try:
        exact.horizon_rows(model.states, idx, width)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "laws, z0, j_max",
    [
        ((), 2, 5),  # n = 0: the identity row, s^z0
        ((), 3, 2),  # n = 0 and z0 > j_max: nothing kept
        ((), 0, 0),
        ((FiniteLaw((0.3, 0.2, 0.5)), LinearFractionalLaw(1.5, 4.0)), 2, 0),  # j_max = 0: t_0^z0
        ((FiniteLaw((0.3, 0.2, 0.5)), LinearFractionalLaw(1.5, 4.0)), 0, 4),  # z0 = 0: Z_n = 0
        ((FiniteLaw((0.3, 0.2, 0.5)), FiniteLaw((0.6, 0.0, 0.4))), 5, 3),  # z0 > j_max
    ],
)
def test_quenched_coeff_row_edge_cases(laws, z0, j_max):
    row = quenched_coeff_row(EnvSequence(laws), z0, j_max)
    oracle = push_forward_distribution(laws, z0, cap=512)
    assert row.shape == (j_max + 1,)
    np.testing.assert_allclose(row, oracle[: j_max + 1], rtol=0.0, atol=1e-12)
    with pytest.raises(ContractError, match="j_max"):
        quenched_coeff_row(EnvSequence(laws), z0, -1)


def test_quenched_pmf_examples():
    copy_law = FiniteLaw((0.0, 1.0))
    assert quenched_pmf(EnvSequence((copy_law,)), 1, 1) == pytest.approx(1.0)
    half = FiniteLaw((0.5, 0.0, 0.5))
    env = EnvSequence((half,))
    # coefficient of s^2 in (1/2 + s^2/2)^2 = 1/4 + s^2/2 + s^4/4
    assert quenched_pmf(env, 2, 2) == pytest.approx(0.5, abs=1e-15)
    # all-copy environment keeps the population at one
    env_all_q1 = EnvSequence((copy_law,) * 6)
    assert quenched_pmf(env_all_q1, 1, 1) == pytest.approx(1.0, abs=1e-15)


def test_quenched_law_doubles_until_tail_certified():
    env = EnvSequence(
        (LinearFractionalLaw(2.0, 8.0), LinearFractionalLaw(0.5, 0.5), LinearFractionalLaw(2.0, 8.0))
    )
    degree, row = 16, quenched_coeff_row(env, 2, 16)
    while 1.0 - row.sum() >= 1e-10:
        wider = quenched_coeff_row(env, 2, 2 * degree)
        # raising the degree keeps every lower coefficient exact
        np.testing.assert_allclose(wider[: degree + 1], row, rtol=0.0, atol=1e-15)
        degree, row = 2 * degree, wider
    tail_mass = max(0.0, 1.0 - float(row.sum()))
    assert tail_mass < 1e-10
    assert degree > 16  # doubled past the request to certify the tail
    assert row[0] == pytest.approx(env.extinction_ladder()[0] ** 2, abs=1e-12)
    assert 1.0 - row[0] == pytest.approx(quenched_survival(env, 2), abs=1e-12)
    # pmf mass up to the kept degree accounts for everything but the tail
    assert float(row.sum()) >= 1.0 - tail_mass - 1e-12
    assert float(row.sum()) <= 1.0 + 1e-12


@given(st.integers(0, 2**32 - 1))
def test_quenched_distribution_matches_push_forward(seed):
    rng = np.random.default_rng(seed)
    laws = tuple(random_finite_law(rng, max_support=3) for _ in range(rng.integers(1, 5)))
    z0 = int(rng.integers(1, 4))
    env = EnvSequence(laws)
    oracle = push_forward_distribution(laws, z0, cap=3 ** len(laws) * z0 + 1)
    row = quenched_coeff_row(env, z0, 8)
    for j in range(9):
        expect = oracle[j] if j < oracle.size else 0.0
        assert row[j] == pytest.approx(expect, abs=1e-12)
    assert quenched_survival(env, z0) == pytest.approx(1.0 - oracle[0], abs=1e-12)


def test_quenched_matches_lf_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(20):
        laws = tuple(
            LinearFractionalLaw(m=m, b=max(0.0, 2 * m * (m - 1)) + b)
            for m, b in zip(rng.uniform(0.5, 2.0, 6), rng.uniform(0.1, 3.0, 6))
        )
        env = EnvSequence(laws)
        oracle = _mp_lf_rows(laws, 5)
        for j in range(0, 5):
            assert quenched_pmf(env, 1, j) == pytest.approx(float(oracle[j]), abs=1e-10)


@pytest.mark.parametrize("z0", [1, 2])
def test_quenched_survival_keeps_a_small_lf_survival(z0):
    # 60 subcritical LF(0.5, 0.5) generations: A = 2^60, B = 2^60 - 1, so
    # p = 1/(2^61 - 1); 1 - t_0 rounds it to 0
    env = EnvSequence((LinearFractionalLaw(0.5, 0.5),) * 60)
    p = survival_rows(*env._indexed)[0]
    assert p == pytest.approx(1.0 / (2.0**61 - 1.0), rel=1e-14)
    assert 1.0 - env.extinction_ladder()[0] == 0.0
    with mpmath.workdps(40):
        expect = float(1 - (1 - mpmath.mpf(1) / (2**61 - 1)) ** z0)
    survival = quenched_survival(env, z0)
    assert survival == pytest.approx(expect, rel=1e-14)
    if z0 == 1:
        assert survival == p > 0.0
        assert survival_bounds(env.laws).lf_exact == pytest.approx(p, rel=1e-12)
        assert quenched_pmf(env, 1, 1) > 0.0


@pytest.mark.parametrize(
    "law", [FiniteLaw((0.0, 0.5, 0.5)), FiniteLaw((0.2, 0.5, 0.3)), LinearFractionalLaw(2.0, 8.0)], ids=repr
)
def test_quenched_survival_at_no_initial_individual_agrees_with_the_coefficient_row(law):
    # Z_0 = 0 stays 0, also where one individual never dies out (q(0) = 0)
    env = EnvSequence((law,) * 3)
    assert quenched_coeff_row(env, 0, 2).tolist() == [1.0, 0.0, 0.0]
    survival = quenched_survival(env, 0)
    assert type(survival) is float and survival == 0.0 and math.copysign(1.0, survival) == 1.0
    for f in (lambda: quenched_coeff_row(env, -1, 2), lambda: quenched_survival(env, -1)):
        with pytest.raises(ContractError, match="initial size must be >= 0"):
            f()


def test_phi_single_generation():
    law = FiniteLaw((0.3, 0.5, 0.2))
    env = EnvSequence((law,))
    assert phi_n(env.laws, 1) == pytest.approx(law.prob(1), abs=1e-15)
    # from two initial individuals: one parent carries both survivors
    assert phi_n(env.laws, 2) == pytest.approx(2 * law.prob(2) * law.prob(0), abs=1e-15)


def test_phi_matches_brute_force_spine_event():
    laws = (FiniteLaw((0.5, 0.0, 0.5)), FiniteLaw((0.25, 0.25, 0.5)))
    env = EnvSequence(laws)
    for z0 in (1, 2):
        oracle = spine_event_probability(laws, z0)
        assert phi_n(env.laws, z0) == pytest.approx(oracle, abs=1e-13)


@given(st.integers(0, 2**32 - 1))
def test_phi_below_quenched_pmf(seed):
    rng = np.random.default_rng(seed)
    laws = tuple(random_finite_law(rng, max_support=3) for _ in range(rng.integers(1, 5)))
    env = EnvSequence(laws)
    z0 = int(rng.integers(1, 3))
    assert phi_n(env.laws, z0) <= quenched_pmf(env, z0, z0) + 1e-13


def test_phi_event_is_spine_event_for_z0_one():
    # with a single initial individual, {Z_n = 1} forces all side subtrees dead
    rng = np.random.default_rng(17)
    for _ in range(10):
        laws = tuple(random_finite_law(rng, max_support=3) for _ in range(3))
        env = EnvSequence(laws)
        assert phi_n(env.laws, 1) == pytest.approx(quenched_pmf(env, 1, 1), rel=1e-12, abs=1e-15)


def test_subtree_extinction_identity_trivial_cases():
    one = FiniteLaw((0.4, 0.3, 0.3))
    env = EnvSequence((one,))
    lhs, rhs = subtree_extinction_identity(env, 1)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    copy_env = EnvSequence((FiniteLaw((0.0, 1.0)),) * 4)
    lhs, rhs = subtree_extinction_identity(copy_env, 1)
    assert (lhs, rhs) == (pytest.approx(1.0), pytest.approx(1.0))


def test_subtree_extinction_identity_random_envs():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        laws = tuple(random_finite_law(rng, max_support=3) for _ in range(n))
        env = EnvSequence(laws)
        z = int(rng.integers(1, 4))
        if quenched_survival(env, z) <= 1e-12:
            continue
        lhs, rhs = subtree_extinction_identity(env, z)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_subtree_extinction_identity_lf_states():
    rng = np.random.default_rng(3)
    laws = tuple(LinearFractionalLaw(m=m, b=2 * m * m) for m in rng.uniform(0.6, 1.8, 4))
    env = EnvSequence(laws)
    lhs, rhs = subtree_extinction_identity(env, 2)
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_subtree_extinction_identity_survives_long_excursions():
    # t_k rounds to 1 in the subcritical stretch, where (1 - t_k) / (1 - t_{k-1})
    # was 0 / 0; the ratio is 1 / g(t_k), which does not cancel
    laws = (LinearFractionalLaw(2.0, 8.0),) * 1100 + (LinearFractionalLaw(0.5, 0.5),) * 1100
    lhs, rhs = subtree_extinction_identity(EnvSequence(laws), 1)
    assert math.isfinite(lhs)
    assert abs(lhs - rhs) <= 1e-11 * rhs


def test_smallest_reachable_examples():
    assert smallest_reachable(example1_model(0.3, 0.5)).z0 == 2
    gw = smallest_reachable(gw_binary())
    assert gw.z0 == 2
    assert 1 not in gw.closure
    assert {2, 4, 6}.issubset(gw.closure)
    rich = EnvironmentModel((FiniteLaw((0.2, 0.3, 0.5)),), (1.0,))
    reach = smallest_reachable(rich)
    assert reach.z0 == 1
    assert reach.closure == frozenset(range(1, reach.cap + 1))
    no_ext = EnvironmentModel((FiniteLaw((0.0, 1.0)),), (1.0,))
    with pytest.raises(ContractError):
        smallest_reachable(no_ext)


def _closure_models():
    rng = np.random.default_rng(41)
    models = {}
    for i in range(4):
        laws = tuple(gapped_finite_law(rng) for _ in range(2))
        models[f"gapped{i}"] = EnvironmentModel(laws, (0.5, 0.5))
    models["gaps_0_3_7"] = EnvironmentModel(
        (FiniteLaw((0.3, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.4)),), (1.0,)
    )
    # support {0, 1}: nothing overflows, so the closure is {1}, uncapped
    models["lf_ratio_zero"] = EnvironmentModel((LinearFractionalLaw(m=0.7, b=0.0),), (1.0,))
    models["lf_ratio_zero_with_gaps"] = EnvironmentModel(
        (LinearFractionalLaw(m=0.7, b=0.0), FiniteLaw((0.2, 0.0, 0.0, 0.8))), (0.5, 0.5)
    )
    models["mixed_lf_finite"] = EnvironmentModel(
        (random_lf_law(rng), FiniteLaw((0.4, 0.0, 0.6))), (0.3, 0.7)
    )
    # the zero-weight state would set z0 = 1 in the first model and cap the second
    models["zero_weight_state"] = EnvironmentModel(
        (FiniteLaw((0.3, 0.0, 0.0, 0.7)), FiniteLaw((0.5, 0.5))), (1.0, 0.0)
    )
    models["zero_weight_unbounded_state"] = EnvironmentModel(
        (FiniteLaw((0.5, 0.5)), random_lf_law(rng)), (1.0, 0.0)
    )
    return models


@pytest.mark.parametrize("cap", [1, 7, 64])
@pytest.mark.parametrize("name", sorted(_closure_models()))
def test_smallest_reachable_matches_set_closure_oracle(name, cap):
    model = _closure_models()[name]
    try:
        z0, closure, capped = reachable_closure_oracle(model, cap)
    except ContractError:
        with pytest.raises(ContractError):
            smallest_reachable(model, cap)
        return
    reach = smallest_reachable(model, cap)
    assert (reach.z0, reach.closure, reach.capped, reach.cap) == (z0, closure, capped, cap)


def test_smallest_reachable_matches_oracle_on_random_supports():
    rng = np.random.default_rng(17)
    for _ in range(200):
        laws = []
        for _ in range(rng.integers(1, 4)):
            probs = rng.random(rng.integers(2, 8)) * (rng.random() < 0.8)
            probs = probs * (rng.random(len(probs)) < 0.5)
            probs[-1] += 0.1
            laws.append(FiniteLaw(tuple(probs / probs.sum())))
        model = EnvironmentModel(tuple(laws), (1.0 / len(laws),) * len(laws))
        cap = int(rng.integers(1, 13))
        try:
            expect = reachable_closure_oracle(model, cap)
        except ContractError:
            with pytest.raises(ContractError):
                smallest_reachable(model, cap)
            continue
        reach = smallest_reachable(model, cap)
        assert (reach.z0, reach.closure, reach.capped) == expect


def test_annealed_matches_naive_enumeration():
    rng = np.random.default_rng(123)
    model = EnvironmentModel(
        (random_finite_law(rng, 2), random_finite_law(rng, 3)), (0.6, 0.4)
    )
    n = 5
    for z0, j in ((1, 1), (1, 2), (2, 2)):
        naive = 0.0
        cap = z0 * 3**n  # exact population ceiling for supports <= 3
        for assign in itertools.product(range(2), repeat=n):
            w = math.prod(model.weights[a] for a in assign)
            laws = tuple(model.states[a] for a in assign)
            dist = push_forward_distribution(laws, z0, cap=cap)
            naive += w * dist[j]
        assert annealed_pmf(model, z0, n, j) == pytest.approx(naive, rel=1e-12, abs=1e-15)


def test_annealed_row_and_degenerate_cases():
    model = gw_binary()
    row = annealed_pmf_row(model, 1, 0, 4)
    assert row[1] == 1.0 and row.sum() == 1.0
    # q(1) = 0 makes {Z_1 = 1} impossible
    assert annealed_pmf(model, 1, 1, 1) == 0.0


def test_annealed_example1_identity_small_n():
    model = example1_model(0.3, 0.5)
    for n in range(1, 9):
        assert annealed_pmf(model, 1, n, 1) == pytest.approx(0.3**n, rel=1e-13)


@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=10)
def test_annealed_supermultiplicative(seed, n, m):
    rng = np.random.default_rng(seed)
    model = EnvironmentModel(
        (random_finite_law(rng, 2, with_extinction=True), random_finite_law(rng, 2)),
        (0.5, 0.5),
    )
    try:
        z0 = smallest_reachable(model).z0
    except ContractError:
        return
    p_nm = annealed_pmf(model, z0, n + m, z0)
    p_n = annealed_pmf(model, z0, n, z0)
    p_m = annealed_pmf(model, z0, m, z0)
    assert p_nm >= p_n * p_m - 1e-14


def test_budget_guard():
    model = weakly_model()
    with pytest.raises(BudgetError, match="Monte Carlo"):
        annealed_pmf(model, 1, 40, 1)
    with pytest.raises(BudgetError, match="Monte Carlo"):
        fekete_bounds(model, n_max=40)
    # only positive-weight states are enumerated, so only they count: 2^17 fits, 2^27 does not
    zero_weight = EnvironmentModel(
        (FiniteLaw((0.2, 0.5, 0.3)), FiniteLaw((0.5, 0.5)), FiniteLaw((0.3, 0.3, 0.4))),
        (0.5, 0.0, 0.5),
    )
    assert len(fekete_bounds(zero_weight, n_max=17).rows) == 17
    with pytest.raises(BudgetError, match=r"2\^27"):
        fekete_bounds(zero_weight, n_max=27)


def _block_depth(model, width):
    """Deepest horizon the enumerator covers with its breadth-first block of rows of ``width``."""
    a = sum(1 for w in model.weights if w > 0.0)
    return max(d for d in range(64) if a**d * width <= exact._BLOCK_CELLS)


@pytest.mark.parametrize(
    "model, z0, n_max",
    [
        (
            EnvironmentModel(
                (
                    FiniteLaw((0.2, 0.5, 0.3)),
                    FiniteLaw((0.4, 0.2, 0.4)),
                    LinearFractionalLaw(m=1.5, b=4.0),
                ),
                (0.3, 0.3, 0.4),
            ),
            1,
            12,
        ),
        (gw_binary(), 2, 10),
        (
            EnvironmentModel(
                (FiniteLaw((0.2, 0.5, 0.3)), FiniteLaw((0.5, 0.5)), FiniteLaw((0.3, 0.3, 0.4))),
                (0.5, 0.0, 0.5),
            ),
            1,
            18,
        ),
    ],
    ids=["three_states", "gw_binary", "zero_weight_state"],
)
def test_fekete_sweep_matches_per_horizon_enumeration(model, z0, n_max):
    table = fekete_bounds(model, z0=z0, n_max=n_max)
    depth = _block_depth(model, z0 + 1)
    assert table.z0 == z0
    for row in table.rows:
        a_n = -math.log(annealed_pmf(model, z0, row.n, z0))
        if row.n <= depth:
            assert row.a_n == a_n
        else:
            assert abs(row.a_n - a_n) <= 1e-12


@pytest.mark.parametrize("block_rows", [1, 3, 9])
def test_depth_first_pass_matches_breadth_first_block(block_rows, monkeypatch):
    rng = np.random.default_rng(5)
    model = EnvironmentModel(
        (random_finite_law(rng, 3, with_extinction=True), random_lf_law(rng)), (0.45, 0.55)
    )
    wide = fekete_bounds(model, z0=1, n_max=9)
    rows = annealed_pmf_row(model, 2, 9, 6)
    # at width 7 (j_max = 6) the block holds at most block_rows rows
    monkeypatch.setattr(exact, "_BLOCK_CELLS", 7 * block_rows)
    narrow = fekete_bounds(model, z0=1, n_max=9)
    for w, v in zip(wide.rows, narrow.rows):
        assert abs(w.a_n - v.a_n) <= 1e-12
    assert np.allclose(annealed_pmf_row(model, 2, 9, 6), rows, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "model",
    [
        gw_binary(),
        EnvironmentModel((FiniteLaw((0.05, 0.9, 0.05)), FiniteLaw((0.5, 0.5))), (1.0, 0.0)),
    ],
    ids=["gw_binary", "critical_with_zero_weight_state"],
)
def test_single_state_enumeration_runs_any_horizon(model):
    # one positive-weight state never trips the budget, so the horizon is
    # unbounded; the sweep must not take a stack frame per generation
    law = model.states[0]
    n = 2000
    for z0 in (1, 2):
        row = annealed_pmf_row(model, z0, n, 4)
        expected = quenched_coeff_row(EnvSequence((law,) * n), z0, 4)
        assert np.allclose(row, expected, rtol=1e-10, atol=1e-300)


@pytest.mark.parametrize("j_max, n", [(1, 18), (8, 15), (64, 12)])
def test_breadth_first_block_stays_under_cell_cap(j_max, n, monkeypatch):
    # each n is two generations past the deepest block of 2^d rows of width
    # j_max + 1 that fits the cap, so a block grown past the cap would have
    # a law applied to it, and the depth-first pass applies laws to the block
    calls = []

    def spy(law, c, out=None):
        calls.append(c.size)
        return apply_law_rows(law, c, out=out)

    monkeypatch.setattr(exact, "apply_law_rows", spy)
    model = EnvironmentModel(
        (FiniteLaw((0.2, 0.5, 0.3)), LinearFractionalLaw(m=0.5, b=0.5)), (2.0 / 3.0, 1.0 / 3.0)
    )
    annealed_pmf_row(model, 1, n, j_max)
    assert max(calls) <= exact._BLOCK_CELLS < 2 * max(calls)


@pytest.mark.parametrize("j_max, n", [(0, 16), (8, 16), (64, 16), (128, 15)])
def test_lf_block_and_horizon_rows_stay_under_cell_cap(j_max, n, monkeypatch):
    # an all-LF block holds 5 cells per row (p, e, a, r and the weight), so
    # it stops at 2^14 rows and n = 15, 16 reach the depth-first pass; the
    # coefficient rows of a horizon are built in chunks under the cap too
    steps, layers = [], []

    def step_spy(m, em, p, *rest, out=None):
        steps.append(p.size)
        return lf_step(m, em, p, *rest, out=out)

    def layers_spy(*args):
        f = lf_layers(*args)
        layers.append(f.size)
        return f

    lf_step, lf_layers = exact._lf_step, exact._lf_layers
    monkeypatch.setattr(exact, "_lf_step", step_spy)
    monkeypatch.setattr(exact, "_lf_layers", layers_spy)
    annealed_pmf_row(weakly_model(), 1, n, j_max)
    assert 5 * max(steps) <= exact._BLOCK_CELLS < 10 * max(steps)
    assert max(layers) <= exact._BLOCK_CELLS


def _enumeration_oracle(model, z0, n, width, series=True):
    """Sum of w(env) pow_rows(f_{0,n}, z0) over all a^n environments, one row each.

    Each row comes from the series route, or with ``series=False`` from
    ``horizon_rows``, which takes the closed form on all-LF rows.
    """
    states = tuple(law for law, w in zip(model.states, model.weights) if w > 0.0)
    weights = np.array([w for w in model.weights if w > 0.0])
    idx = np.array(list(itertools.product(range(len(states)), repeat=n)), dtype=np.int64)
    idx = idx.reshape(len(states) ** n, n)
    if series:
        rows = exact._series_layers(states, idx, width, False)[0]
    else:
        rows = exact.horizon_rows(states, idx, width)
    return np.prod(weights[idx], axis=1) @ pow_rows(rows, z0)


@pytest.mark.parametrize("width", [1, 2, 7, 65])
@pytest.mark.parametrize("block_cells", [None, 1, 12])
def test_lf_enumeration_matches_series_route_oracle(width, block_cells, monkeypatch):
    # all-LF models take the closed-form block; every horizon of one sweep
    # must agree with explicit enumeration on series rows
    if block_cells is not None:
        monkeypatch.setattr(exact, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(60 + width)
    for trial in range(4):
        k = 1 + trial % 3
        model = EnvironmentModel(
            tuple(random_lf_law(rng) for _ in range(k)), tuple(rng.dirichlet(np.ones(k)))
        )
        n_max = {1: 9, 2: 6, 3: 5}[k]
        for z0 in (1, 2):
            totals = exact._annealed_rows(model, z0, (0, 1, 2, n_max), width - 1)
            for n, got in totals.items():
                want = _enumeration_oracle(model, z0, n, width)
                assert np.allclose(got, want, rtol=1e-12, atol=0.0), (trial, z0, n)


def test_lf_single_state_enumeration_carries_survival_below_2_pow_512():
    # survival falls to about 0.75^2000 ~ 1e-250, below 2^-512, so the
    # enumerator carries it with an exponent; P(Z_n = 1) = m^n / (1 + c)^2
    # with c = eta (1 - m^n) / (1/m - 1) for a constant LF law
    law = LinearFractionalLaw(m=0.75, b=0.5)
    model = EnvironmentModel((law,), (1.0,))
    n = 2000
    for z0 in (1, 2):
        row = annealed_pmf_row(model, z0, n, 4)
        expected = quenched_coeff_row(EnvSequence((law,) * n), z0, 4)
        assert np.allclose(row, expected, rtol=1e-12, atol=0.0)
        assert row[z0] > 0.0
    c = law.eta_lf * (1.0 - law.m**n) / (1.0 / law.m - 1.0)
    log_p1 = n * math.log(law.m) - 2.0 * math.log1p(c)
    assert math.log(annealed_pmf_row(model, 1, n, 1)[1]) == pytest.approx(log_p1, rel=1e-12)


_DESCENT_MODELS = {
    "all_lf": (weakly_model(), 8),
    "all_finite": (
        EnvironmentModel((FiniteLaw((0.2, 0.5, 0.3)), FiniteLaw((0.4, 0.2, 0.4))), (0.5, 0.5)),
        8,
    ),
    "mixed": (
        EnvironmentModel(
            (FiniteLaw((0.2, 0.5, 0.3)), FiniteLaw((0.1, 0.2, 0.3, 0.4)), LinearFractionalLaw(1.5, 4.0)),
            (0.3, 0.3, 0.4),
        ),
        6,
    ),
    # 1 - q(0) is about 2^-50 for the first state, so keep^d falls below
    # 2^-512 at d = 11 and the exponent carry starts inside the descent (at
    # 2^-60, q(0) would round to 1 and the carry start at the root)
    "lf_carry": (
        EnvironmentModel(
            (LinearFractionalLaw(2.0**-26, 0.5), LinearFractionalLaw(1.5, 4.0)), (0.5, 0.5)
        ),
        12,
    ),
}


@pytest.mark.parametrize("width", [1, 2, 3, 7])
@pytest.mark.parametrize("name", sorted(_DESCENT_MODELS))
def test_depth_first_descent_matches_per_environment_rows(name, width, monkeypatch):
    # a 15-cell block stops growing at depth 1 to 3 (LF rows: 5 cells,
    # series rows: width cells, 2 or 3 states), so nearly every horizon
    # comes out of the depth-first descent and its level buffers
    model, n_max = _DESCENT_MODELS[name]
    if name == "lf_carry":
        keep = 1.0 - model.states[0].p0
        assert keep**10 > 2.0**-512 > keep**11
    monkeypatch.setattr(exact, "_BLOCK_CELLS", 15)
    for z0 in (1, 2):
        totals = exact._annealed_rows(model, z0, range(n_max + 1), width - 1)
        for n, got in totals.items():
            want = _enumeration_oracle(model, z0, n, width, series=False)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0), (z0, n)


@pytest.mark.parametrize(
    "model, cells",
    [(weakly_model(), 5), (_DESCENT_MODELS["all_finite"][0], 3)],
    ids=["all_lf", "all_finite"],
)
def test_annealed_sweep_memory_stays_in_its_workspace(model, cells):
    # a Fekete sweep at width 2 and n = 20: the block stops at R rows
    # (2^14 LF rows of 5 cells, 2^16 series rows of 2 cells) and the descent
    # keeps one block and weight vector of R rows per level below it, at
    # most `cells` doubles per row (weight included).  The slack, two more
    # such blocks, covers what lives beside them: the breadth-first block,
    # the chunk of coefficient rows and the kernels' temporaries.  With the
    # cyclic collector off, a reference cycle that holds the workspace would
    # show as traced memory left after the call.
    n_max, width = 20, 2
    rows = 2 ** _block_depth(model, 5 if model.is_lf_pure else width)
    levels = n_max - round(math.log2(rows))
    workspace = levels * rows * cells * 8
    slack = 2 * rows * cells * 8
    exact._annealed_rows(model, 1, range(1, n_max + 1), width - 1)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        totals = exact._annealed_rows(model, 1, range(1, n_max + 1), width - 1)
        del totals
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()
    assert peak - base <= workspace + slack, (peak - base, workspace, slack)
    assert current - base <= 16 * 1024


_NARROW_MODELS = {
    "benchmark_finite": _DESCENT_MODELS["all_finite"][0],
    "degrees_1_and_4": EnvironmentModel(
        (FiniteLaw((0.5, 0.5)), FiniteLaw((0.1, 0.2, 0.3, 0.2, 0.2))), (0.6, 0.4)
    ),
    "degree_0": EnvironmentModel((FiniteLaw((1.0,)), FiniteLaw((0.1, 0.2, 0.7))), (0.3, 0.7)),
    "mixed_lf": EnvironmentModel(
        (FiniteLaw((0.2, 0.5, 0.3)), LinearFractionalLaw(1.5, 4.0)), (0.5, 0.5)
    ),
    "one_state": EnvironmentModel((FiniteLaw((0.2, 0.5, 0.3)),), (1.0,)),
}


@pytest.mark.parametrize("j_max", [7, 64, 128])
@pytest.mark.parametrize("name", sorted(_NARROW_MODELS))
def test_narrowed_breadth_first_blocks_match_enumeration_oracle(name, j_max, monkeypatch):
    # breadth-first series blocks are only as wide as the degree one more
    # generation can reach (an LF state keeps them at full width); every
    # block handed to a law must be column-major and wide enough for the
    # degree of the rows it holds, and every horizon must match the oracle
    model = _NARROW_MODELS[name]
    width = j_max + 1
    # at width 129 a 2-state block stops at 512 rows, depth 9: n = 11 passes
    # a law to a depth-first level buffer
    n = 40 if len(model.states) == 1 else 11
    maxdeg = max(
        len(law.probs) - 1 if isinstance(law, FiniteLaw) else width for law in model.states
    )
    want = {
        (z0, m): _enumeration_oracle(model, z0, m, width) for z0 in (1, 2) for m in range(n + 1)
    }
    widths = []

    def check(c):
        used = np.flatnonzero(c.any(axis=0))
        w_in = used[-1] + 1 if len(used) else 1
        assert c.flags.f_contiguous
        assert c.shape[1] >= min(width, maxdeg * (w_in - 1) + 1), (c.shape, w_in)
        widths.append(c.shape[1])

    def spy(law, c, out=None):
        check(c)
        return apply_law_rows(law, c, out=out)

    def ladder_spy(laws, c, out=None, work=None):
        check(c)
        return power_ladder(laws, c, out, work)

    # wide sweeps of a model with two finite states of degree >= 2 expand
    # each node once through the power ladder, the others law by law
    power_ladder = exact._power_ladder
    monkeypatch.setattr(exact, "apply_law_rows", spy)
    monkeypatch.setattr(exact, "_power_ladder", ladder_spy)
    for z0 in (1, 2):
        got = annealed_pmf_row(model, z0, n, j_max)
        assert np.allclose(got, np.clip(want[z0, n], 0.0, None), rtol=1e-12, atol=0.0)
        totals = exact._annealed_rows(model, z0, range(n + 1), j_max)
        for m, got in totals.items():
            assert np.allclose(got, want[z0, m], rtol=1e-12, atol=0.0), (z0, m)
    # the narrowing is in effect wherever no LF state forces the full width
    assert (min(widths) < width) == (maxdeg < width)


def test_series_emission_is_the_row_major_weighted_sum_bit_for_bit():
    # the blocks are column-major, but a horizon's weighted sum must be the
    # BLAS product over row-major rows, bit for bit: at n = 8 and width 129
    # the benchmark's finite model still emits from its breadth-first block,
    # whose rows and weights are in the order of itertools.product.  That
    # width takes the power ladder, so each row is built by it, one
    # generation at a time, from the row-major identity rows
    model = _NARROW_MODELS["benchmark_finite"]
    n, width = 8, 129
    assert width >= exact._LADDER_WIDTH
    idx = np.array(list(itertools.product(range(2), repeat=n)), dtype=np.int64)
    rows = np.zeros((len(idx), width))
    rows[:, 1] = 1.0
    for g in range(n - 1, -1, -1):
        children = exact._power_ladder(list(model.states), rows)
        rows = np.choose(idx[:, g, None], children)
    wvec = np.ones(1)
    for _ in range(n):
        wvec = np.concatenate([wvec * w for w in model.weights])
    for z0 in (1, 2):
        got = exact._annealed_rows(model, z0, (n,), width - 1)[n]
        want = wvec @ np.ascontiguousarray(pow_rows(rows, z0))
        assert got.tobytes() == want.tobytes(), z0


def _pgf_rows(rng, rows, width):
    """Column-major rows with nonnegative coefficients summing to at most 1, like pgf rows."""
    c = rng.random((rows, width)) * (rng.random((rows, width)) < 0.9)
    return np.asfortranarray(c / (c.sum(axis=1, keepdims=True) + rng.random((rows, 1))))


def _finite_law(rng, degree):
    """A random finite law on {0..degree}; at degree 0 the one law there is."""
    return FiniteLaw((1.0,)) if degree == 0 else random_finite_law(rng, degree)


@pytest.mark.parametrize("degree", range(6))
def test_power_ladder_children_match_apply_law_rows(degree):
    # every child of one expansion against the law's own Horner rows: finite
    # laws of degree up to ``degree`` (one of exactly that degree), alone and
    # with LF laws mixed in, with fresh and with given buffers
    rng = np.random.default_rng(300 + degree)
    for width in (1, 2, 9, 40):
        for mixed in (False, True):
            laws = [_finite_law(rng, d) for d in rng.integers(0, degree + 1, size=2)]
            laws.append(_finite_law(rng, degree))
            if mixed:
                laws[1:1] = [random_lf_law(rng), random_lf_law(rng)]
            c = _pgf_rows(rng, 11, width)
            want = [apply_law_rows(law, c) for law in laws]
            out = [np.empty_like(c) for _ in laws]
            work = [np.empty_like(c) for _ in range(3)]
            for got in (exact._power_ladder(laws, c), exact._power_ladder(laws, c, out, work)):
                assert len(got) == len(laws)
                for g, w in zip(got, want):
                    assert g.flags.f_contiguous
                    assert np.allclose(g, w, rtol=1e-14, atol=0.0)
                    assert np.array_equal(g == 0.0, w == 0.0)
            assert all(g is o for g, o in zip(exact._power_ladder(laws, c, out, work), out))


def _spy_products(monkeypatch):
    """Count the products the enumerator's power ladder makes, by kernel."""
    calls = {"sqr_rows": 0, "mul_rows": 0, "ladder": 0, "apply_law_rows": 0}

    def spy(name, kernel):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(exact, "sqr_rows", spy("sqr_rows", exact.sqr_rows))
    monkeypatch.setattr(exact, "mul_rows", spy("mul_rows", exact.mul_rows))
    monkeypatch.setattr(exact, "_power_ladder", spy("ladder", exact._power_ladder))
    monkeypatch.setattr(exact, "apply_law_rows", spy("apply_law_rows", exact.apply_law_rows))
    return calls


@pytest.mark.parametrize(
    "degrees, sqr, mul",
    [((2, 2), 1, 0), ((2, 4, 3), 1, 2), ((5,), 1, 3), ((1, 1), 0, 0), ((0, 2), 1, 0)],
)
def test_power_ladder_makes_d_minus_1_products_per_expansion(degrees, sqr, mul, monkeypatch):
    # D - 1 products for the node, c^2 by sqr_rows, where per-law Horner
    # schemes make sum_a (d_a - 1): for the benchmark's two degree-2 laws
    # that is one sqr_rows call in place of two products
    rng = np.random.default_rng(sum(degrees))
    laws = [_finite_law(rng, d) for d in degrees]
    assert max(degrees) - 1 == sqr + mul or max(degrees) < 2
    calls = _spy_products(monkeypatch)
    exact._power_ladder(laws, _pgf_rows(rng, 8, 33))
    assert (calls["sqr_rows"], calls["mul_rows"]) == (sqr, mul)


def test_wide_sweep_expands_each_node_once(monkeypatch):
    # the benchmark's finite model at width 129: each breadth-first
    # generation and each depth-first node is one ladder expansion of one
    # sqr_rows call, and no finite law goes through apply_law_rows.  The
    # block stops at depth 9, so at n = 11 the descent expands the block
    # and its two children
    model = _NARROW_MODELS["benchmark_finite"]
    top = _block_depth(model, 129)
    calls = _spy_products(monkeypatch)
    exact._annealed_rows(model, 1, (11,), 128)
    nodes = top + 2 ** (11 - top) - 1
    assert calls == {"sqr_rows": nodes, "mul_rows": 0, "ladder": nodes, "apply_law_rows": 0}


@pytest.mark.parametrize(
    "model",
    [
        _NARROW_MODELS["mixed_lf"],
        _NARROW_MODELS["degrees_1_and_4"],
        _NARROW_MODELS["benchmark_finite"],
    ],
    ids=["one_finite_and_lf", "one_law_above_degree_1", "benchmark_finite"],
)
def test_ladder_is_chosen_per_sweep_by_width_and_product_saving(model, monkeypatch):
    # the ladder pays only where it saves a product (two finite states of
    # degree >= 2) and the rows are wide; every other sweep applies each law
    calls = _spy_products(monkeypatch)
    saves = sum(isinstance(law, FiniteLaw) and len(law.probs) > 2 for law in model.states) >= 2
    for width in (2, 3, exact._LADDER_WIDTH - 1, exact._LADDER_WIDTH):
        calls["ladder"] = 0
        exact._annealed_rows(model, 1, (3,), width - 1)
        assert (calls["ladder"] > 0) == (saves and width >= exact._LADDER_WIDTH), width


def test_power_ladder_memory_does_not_grow_with_the_degree():
    # with its blocks given, as the depth-first descent gives them, one
    # expansion by a degree-40 law holds no more than one by a degree-2 law,
    # up to one block: the ladder keeps two powers, never all of them
    rng = np.random.default_rng(8)
    c = _pgf_rows(rng, 256, 65)

    def peak(laws):
        out = [np.empty_like(c) for _ in laws]
        work = [np.empty_like(c) for _ in range(3)]
        exact._power_ladder(laws, c, out, work)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            exact._power_ladder(laws, c, out, work)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    low = peak([FiniteLaw((0.2, 0.5, 0.3)), FiniteLaw((0.4, 0.2, 0.4))])
    high = peak([FiniteLaw(tuple(np.full(41, 1.0 / 41.0))), FiniteLaw((0.4, 0.2, 0.4))])
    assert high - low <= c.nbytes, (low, high, c.nbytes)


_LADDER_MODELS = {
    "benchmark_finite": _NARROW_MODELS["benchmark_finite"],
    "degrees_2_3_5": EnvironmentModel(
        (FiniteLaw((0.2, 0.5, 0.3)), FiniteLaw((0.1, 0.2, 0.3, 0.4)),
         FiniteLaw((0.3, 0.1, 0.0, 0.2, 0.2, 0.2))),
        (0.3, 0.3, 0.4),
    ),
    "mixed": _DESCENT_MODELS["mixed"][0],
}


@pytest.mark.parametrize("block_cells", [None, 200])
@pytest.mark.parametrize("name", sorted(_LADDER_MODELS))
def test_annealed_rows_match_oracle_on_either_side_of_the_ladder_width(name, block_cells, monkeypatch):
    # every horizon of one sweep against per-environment rows, at the widest
    # Horner sweep and the narrowest ladder sweep; a 200-cell block sends all
    # but the first generations through the depth-first descent
    model = _LADDER_MODELS[name]
    if block_cells is not None:
        monkeypatch.setattr(exact, "_BLOCK_CELLS", block_cells)
    calls = _spy_products(monkeypatch)
    n_max = 6 if len(model.states) == 2 else 4
    for width in (exact._LADDER_WIDTH - 1, exact._LADDER_WIDTH):
        for z0 in (1, 2):
            calls["ladder"] = 0
            totals = exact._annealed_rows(model, z0, range(n_max + 1), width - 1)
            assert (calls["ladder"] > 0) == (width >= exact._LADDER_WIDTH)
            for n, got in totals.items():
                want = _enumeration_oracle(model, z0, n, width)
                assert np.allclose(got, want, rtol=1e-12, atol=0.0), (width, z0, n)


def _fold_model(kind, seed):
    """A random two- or three-state model whose laws all have q(0) > 0 and q(1) > 0."""
    rng = np.random.default_rng(240 + seed)
    letters = {"lf": "ll", "lf_three": "lll", "finite": "ff", "mixed": "flf"}[kind]
    laws = tuple(
        random_lf_law(rng) if c == "l" else FiniteLaw(tuple(rng.dirichlet(np.ones(4))))
        for c in letters
    )
    return EnvironmentModel(laws, tuple(rng.dirichlet(np.ones(len(laws)))))


def _check_fekete_route(model, z0, n_max, folded):
    """The Fekete sweep's coefficient z0 against ``annealed_pmf_row`` at every horizon.

    Every horizon below n_max keeps its bits; with ``folded`` the last one,
    whose generation is folded in closed form, agrees to 1e-13 relative.
    """
    got = exact._annealed_rows(model, z0, range(1, n_max + 1), z0, only_z0=True)
    for n in range(1, n_max + 1):
        want = annealed_pmf_row(model, z0, n, z0)[z0]
        assert want > 0.0
        if n < n_max or not folded:
            assert got[n][z0] == want, n
        else:
            assert abs(got[n][z0] - want) <= 1e-13 * want


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["lf", "lf_three", "finite", "mixed"])
def test_fekete_route_matches_annealed_rows(kind, seed, monkeypatch):
    # a 15-cell block stops at depth 1 (LF rows) or 2 (series rows of width
    # 2), so the descent emits nearly every horizon and folds the last one
    monkeypatch.setattr(exact, "_BLOCK_CELLS", 15)
    model = _fold_model(kind, seed)
    _check_fekete_route(model, 1, 6 if kind == "lf_three" else 9, folded=True)


_FOLD_EDGE_MODELS = {
    # survival near 1e-9 with eta m p of order 1: a fold that read 1 - (1 - p)
    # in place of p would be off by about 1e-9
    "lf_heavy": EnvironmentModel(
        (LinearFractionalLaw(0.8, 1e9), LinearFractionalLaw(1.5, 1e9)), (0.5, 0.5)
    ),
    # 1 - q(0) = 2^-47 and p = 2^-47 p per first-state generation, so keep^d
    # falls below 2^-512 at d = 11 and the all-first-state row of depth 11,
    # which the fold reads, carries p = 2^-5 * 2^-512
    "lf_carry": EnvironmentModel(
        (LinearFractionalLaw(2.0**-47, 0.0), LinearFractionalLaw(1.5, 4.0)), (0.5, 0.5)
    ),
}


@pytest.mark.parametrize("name", sorted(_FOLD_EDGE_MODELS))
def test_fekete_route_folds_from_the_survival_itself(name, monkeypatch):
    model = _FOLD_EDGE_MODELS[name]
    if name == "lf_carry":
        keep = 1.0 - model.states[0].p0
        assert keep**10 > 2.0**-512 > keep**11
    monkeypatch.setattr(exact, "_BLOCK_CELLS", 15)
    _check_fekete_route(model, 1, 12, folded=True)


@pytest.mark.parametrize(
    "model",
    [
        EnvironmentModel((FiniteLaw((0.0, 0.5, 0.5)), FiniteLaw((0.0, 0.2, 0.8))), (0.5, 0.5)),
        EnvironmentModel(
            (LinearFractionalLaw(2.0, 4.0), LinearFractionalLaw(1.5, 1.5)), (0.3, 0.7)
        ),
        EnvironmentModel((FiniteLaw((0.0, 0.3, 0.7)), LinearFractionalLaw(2.0, 4.0)), (0.6, 0.4)),
    ],
    ids=["finite", "lf", "mixed"],
)
def test_fekete_route_in_the_monotone_case(model, monkeypatch):
    # no state has q(0) > 0, so P_1(Z_n = 1) = E[q(1)]^n, the folded horizon included
    assert model.extinction_in_one_step == 0.0
    monkeypatch.setattr(exact, "_BLOCK_CELLS", 15)
    q1 = sum(w * law.prob(1) for law, w in zip(model.states, model.weights))
    got = exact._annealed_rows(model, 1, range(1, 11), 1, only_z0=True)
    for n in range(1, 11):
        assert got[n][1] == pytest.approx(q1**n, rel=1e-13, abs=0.0), n


@pytest.mark.parametrize(
    "model, z0, n_max",
    [
        (gw_binary(), 2, 40),
        (EnvironmentModel((LinearFractionalLaw(0.9, 1.5),), (1.0,)), 1, 60),
        (_fold_model("lf", 0), 2, 8),
        (
            EnvironmentModel((FiniteLaw((0.3, 0.0, 0.7)), FiniteLaw((0.5, 0.0, 0.5))), (0.5, 0.5)),
            2,
            9,
        ),
        (_fold_model("mixed", 1), 2, 6),
    ],
    ids=["gw_binary", "one_lf_state", "lf_z0_2", "finite_z0_2", "mixed_z0_2"],
)
def test_fekete_route_keeps_every_horizon_where_nothing_folds(model, z0, n_max, monkeypatch):
    # one state never leaves the breadth-first block, and at z0 = 2 the
    # coefficient [s^2] f_a(g)^2 is not linear in the law: n_max keeps its bits too
    monkeypatch.setattr(exact, "_BLOCK_CELLS", 15)
    _check_fekete_route(model, z0, n_max, folded=False)


def test_fekete_sweep_expands_no_block_of_the_last_generation(monkeypatch):
    # at n_max = 20 an LF block stops at depth 14, so the descent has
    # 2 + 4 + ... + 64 = 126 nodes; the fold removes the 64 of depth 20, and
    # the sweep forms no 1 - p row and no power
    steps, rows = [], []

    def spy(calls, kernel):
        def wrapped(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(exact, "_lf_step", spy(steps, exact._lf_step))
    monkeypatch.setattr(exact, "_lf_layers", spy(rows, exact._lf_layers))
    monkeypatch.setattr(exact, "pow_rows", spy(rows, exact.pow_rows))
    fekete_bounds(weakly_model(), 1, 20)
    folded = len(steps)
    assert rows == []
    steps.clear()
    exact._annealed_rows(weakly_model(), 1, range(1, 21), 1)
    assert len(steps) - folded == 64


def test_fekete_table():
    model = gw_binary()
    table = fekete_bounds(model, n_max=8)
    assert table.z0 == 2
    ns = [r.n for r in table.rows]
    assert ns == list(range(1, 9))
    # subadditivity of a_n on all computed pairs
    a = {r.n: r.a_n for r in table.rows}
    for i in range(1, 9):
        for j in range(1, 9 - i):
            assert a[i + j] <= a[i] + a[j] + 1e-12
    # slope column only on even rows
    assert all((r.slope is None) == (r.n % 2 == 1) for r in table.rows)


def test_fekete_gw_approaches_log2_from_above():
    table = fekete_bounds(gw_binary(), n_max=14)
    vals = [r.a_n_over_n for r in table.rows]
    assert all(v > math.log(2.0) for v in vals)
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
