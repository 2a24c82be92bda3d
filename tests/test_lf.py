import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpre.environment import EnvironmentModel, Regime, rate_function_at_zero
from bpre.errors import ContractError
from bpre.exact import (
    EnvSequence,
    fekete_bounds,
    horizon_rows,
    quenched_coeff_row,
    quenched_survival,
    survival_rows,
)
from bpre.laws import FiniteLaw, LinearFractionalLaw
from bpre.lf import lf_rho
from bpre.models import strongly_model, weakly_model

from helpers import (
    eta_general,
    quenched_pmf,
    random_finite_law,
    random_lf_law,
    scalar_extinction_ladder,
    survival_bounds,
    walk,
)


def lf_env(rng, n):
    return EnvSequence(tuple(random_lf_law(rng) for _ in range(n)))


def walk_statistics(env):
    """A = exp(-S_n) and B = sum_k eta_lf_{k+1} exp(-S_k), straight from the walk."""
    s = walk(env.laws)
    eta = np.array([law.eta_lf for law in env.laws])
    return math.exp(-s[-1]), float(np.sum(eta * np.exp(-s[:-1])))


def test_fgen_normalization_and_single_law():
    law = LinearFractionalLaw(m=2.0, b=8.0)
    env = EnvSequence((law,))
    # A = 1/2, B = 1: extinction probability 1 - 1/(1/2 + 1) = 1/3
    assert survival_rows(*env._indexed)[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    row = quenched_coeff_row(env, 1, 200)
    assert row[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert row.sum() == pytest.approx(1.0, abs=1e-15)  # the tail past s^200 is (2/3)^200


def test_fgen_matches_pgf_engine():
    rng = np.random.default_rng(21)
    for _ in range(25):
        env = lf_env(rng, int(rng.integers(1, 7)))
        t0 = scalar_extinction_ladder(env.laws)[0]
        assert 1.0 - survival_rows(*env._indexed)[0] == pytest.approx(t0, abs=1e-12)
        assert env.extinction_ladder()[0] == pytest.approx(t0, abs=1e-12)


def test_derivative_at_one_is_quenched_mean():
    # coefficients p a r^(j-1) with a + r = 1: f'(1) = p a / a^2, a = 1 - c_2 / c_1
    rng = np.random.default_rng(2)
    env = lf_env(rng, 5)
    _, c1, c2 = quenched_coeff_row(env, 1, 2)
    assert c1 / (1.0 - c2 / c1) ** 2 == pytest.approx(math.exp(walk(env.laws)[-1]), rel=1e-12)


def test_derivative_at_zero_is_survival_squared_identity():
    # P(Z_n = 1 | env) = exp(-S_n) P(Z_n > 0 | env)^2 for LF environments
    rng = np.random.default_rng(3)
    for _ in range(10):
        env = lf_env(rng, int(rng.integers(1, 6)))
        surv = survival_rows(*env._indexed)[0]
        p1 = quenched_coeff_row(env, 1, 1)[1]
        assert p1 == pytest.approx(math.exp(-walk(env.laws)[-1]) * surv * surv, rel=1e-12)
        assert p1 == quenched_pmf(env, 1, 1)


def test_quenched_pmf_properties():
    rng = np.random.default_rng(5)
    env = lf_env(rng, 6)
    row = quenched_coeff_row(env, 1, 8)
    assert row[0] == pytest.approx(1.0 - survival_rows(*env._indexed)[0], abs=1e-14)
    # geometric in j >= 1, with the ratio B / (A + B) of the composed law
    a, b = walk_statistics(env)
    for j in range(1, 8):
        assert row[j + 1] / row[j] == pytest.approx(b / (a + b), rel=1e-10)
    # P(Z_n = 2) <= P(Z_n = 1)
    assert row[2] <= row[1]
    # z0 > 1 is the z0-fold convolution of the z0 = 1 row
    for z0 in (2, 3):
        conv = row[:5]
        for _ in range(z0 - 1):
            conv = np.convolve(conv, row[:5])[:5]
        np.testing.assert_allclose(quenched_coeff_row(env, z0, 4), conv, rtol=0.0, atol=1e-14)


@given(st.integers(0, 2**32 - 1))
def test_concatenation_composes_fgen(seed):
    # the law of a concatenated environment is the composition of its parts' laws:
    # layer n_a of the rows of a + b is f_{n_a,n}, the rows of b alone
    rng = np.random.default_rng(seed)
    n_a, n_b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    laws_a = tuple(random_lf_law(rng) for _ in range(n_a))
    laws_b = tuple(random_lf_law(rng) for _ in range(n_b))
    combined = horizon_rows(*EnvSequence(laws_a + laws_b)._indexed, 6, layers=True)
    second = horizon_rows(*EnvSequence(laws_b)._indexed, 6)
    np.testing.assert_array_equal(combined[n_a], second)  # the same suffix arithmetic
    t0 = scalar_extinction_ladder(laws_a + laws_b)[0]
    assert combined[0, 0, 0] == pytest.approx(t0, rel=1e-12)


@pytest.mark.parametrize("z0", [1, 2, 3])
def test_quenched_pmf_rejects_negative_size(z0):
    env = lf_env(np.random.default_rng(14), 5)
    with pytest.raises(ContractError, match="j_max"):
        quenched_pmf(env, z0, -1)


def test_quenched_pmf_is_the_kernel_row():
    # the closed form 1 - p, p a r^(j-1) with p = 1/(A + B), a = A p, r = B p from the walk
    rng = np.random.default_rng(13)
    for _ in range(20):
        env = lf_env(rng, int(rng.integers(0, 30)))
        a, b = walk_statistics(env)
        p = 1.0 / (a + b)
        expect = [1.0 - p] + [p * a * p * (b * p) ** (j - 1) for j in range(1, 8)]
        for j in range(8):
            assert quenched_pmf(env, 1, j) == pytest.approx(expect[j], rel=1e-10, abs=1e-300)


def test_state_survives_long_supercritical_horizon():
    # exp(-S_n) = 2^-1100 underflows; the bounded state keeps the survival
    env = EnvSequence((LinearFractionalLaw(2.0, 8.0),) * 1100)
    survival = survival_rows(*env._indexed)[0]
    assert survival == quenched_survival(env, 1)
    assert survival == pytest.approx(0.5, rel=1e-14)
    assert survival_bounds(env.laws).lf_exact == pytest.approx(survival, rel=1e-12)


def test_states_past_double_range_give_ieee_limits():
    # supercritical: P(Z_n = j) = p a r^(j-1) with a = 2^-1100 / D, 0 in double, survival 1/2;
    # subcritical: the survival is about 2^-1100, 0 in double, so f_{0,n} is 1
    sup = EnvSequence((LinearFractionalLaw(2.0, 8.0),) * 1100)
    sub = EnvSequence((LinearFractionalLaw(0.5, 0.5),) * 1100)
    assert survival_rows(*sup._indexed)[0] == pytest.approx(0.5, rel=1e-14)
    assert survival_rows(*sub._indexed)[0] == 0.0 == quenched_survival(sub, 1)
    sup_row = horizon_rows(*sup._indexed, 3)[0]
    assert sup_row[0] == pytest.approx(0.5, rel=1e-14) and sup_row[1:].tolist() == [0.0, 0.0]
    assert horizon_rows(*sub._indexed, 3)[0].tolist() == [1.0, 0.0, 0.0]


def test_agresti_bounds_past_double_range():
    # exp(-S_n) = 2^1100 overflows, so the lower bound is below the smallest double
    sub = EnvSequence((LinearFractionalLaw(0.5, 0.5),) * 1100)
    bounds = survival_bounds(sub.laws)
    assert bounds.lower == 0.0 and bounds.lf_exact == 0.0 == survival_rows(*sub._indexed)[0]
    assert bounds.upper == 0.0  # exp(S_n) = 2^-1100 underflows too
    # a mean-1 law without variance has eta = 0 where exp(-S_k) overflows: no inf * 0
    flat = EnvSequence(sub.laws + (FiniteLaw((0.0, 1.0)),) * 5)
    assert survival_bounds(flat.laws).lower == 0.0
    # the walk comes back to 0: the bound stays finite and below the survival 1/4
    excursion = EnvSequence((LinearFractionalLaw(2.0, 8.0),) * 1100 + sub.laws)
    bounds = survival_bounds(excursion.laws)
    assert 0.0 < bounds.lower <= bounds.lf_exact == pytest.approx(0.25, rel=1e-12)
    assert survival_rows(*excursion._indexed)[0] == pytest.approx(0.25, rel=1e-12)


def test_lf_rho_strongly_weakly_and_boundary():
    strongly = EnvironmentModel(
        (
            LinearFractionalLaw(m=math.e, b=2 * math.e**2),
            LinearFractionalLaw(m=math.exp(-1.0), b=2 * math.exp(-2.0)),
        ),
        (0.9, 0.1),
    )
    res = lf_rho(strongly)
    assert res.regime is Regime.STRONGLY
    expect = -math.log(0.9 * math.exp(-1.0) + 0.1 * math.e)
    assert res.rho == pytest.approx(expect, rel=1e-12)

    weakly = weakly_model()
    res = lf_rho(weakly)
    assert res.regime is Regime.WEAKLY
    assert res.rho == pytest.approx(-math.log(2.0 * math.sqrt(2.0) / 3.0), abs=1e-9)
    assert res.rho == rate_function_at_zero(weakly).value  # -log E[exp(-lambda* X)] both ways

    p_star = math.e / (math.e + math.exp(-1.0))
    boundary = EnvironmentModel(
        (
            LinearFractionalLaw(m=math.e, b=2 * math.e**2),
            LinearFractionalLaw(m=math.exp(-1.0), b=2 * math.exp(-2.0)),
        ),
        (p_star, 1.0 - p_star),
    )
    res = lf_rho(boundary)
    assert res.regime is Regime.INTERMEDIATE
    # at the boundary both branch formulas coincide
    assert res.rho == pytest.approx(rate_function_at_zero(boundary).value, abs=1e-10)


def test_lf_rho_ignores_zero_weight_finite_state():
    base = weakly_model()
    padded = EnvironmentModel(base.states + (FiniteLaw((0.9, 0.0, 0.1)),), base.weights + (0.0,))
    assert lf_rho(padded) == lf_rho(base)


def test_lf_rho_requires_lf_states():
    mixed = EnvironmentModel(
        (FiniteLaw((0.25, 0.0, 0.75)), LinearFractionalLaw(m=2.0, b=8.0)), (0.5, 0.5)
    )
    with pytest.raises(ContractError, match="requires LF"):
        lf_rho(mixed)


def test_lf_rho_below_fekete_bounds():
    for model in (weakly_model(), strongly_model()):
        rho = lf_rho(model).rho
        table = fekete_bounds(model, n_max=10)
        assert all(rho <= r.a_n_over_n + 1e-9 for r in table.rows)


def test_agresti_bounds_reject_a_mean_zero_law():
    with pytest.raises(ContractError):
        survival_bounds((FiniteLaw((1.0,)),))


def test_agresti_bounds_lf_exact():
    rng = np.random.default_rng(8)
    for _ in range(15):
        env = lf_env(rng, int(rng.integers(1, 6)))
        bounds = survival_bounds(env.laws)
        surv = quenched_survival(env, 1)
        assert bounds.lf_exact == pytest.approx(surv, abs=1e-10)
        assert bounds.lower <= surv + 1e-12
        assert surv <= bounds.upper + 1e-12
        assert bounds.lower <= bounds.upper + 1e-12


def test_agresti_bounds_general_env():
    rng = np.random.default_rng(9)
    for _ in range(15):
        laws = tuple(random_finite_law(rng, 3) for _ in range(int(rng.integers(1, 6))))
        env = EnvSequence(laws)
        bounds = survival_bounds(laws)
        surv = quenched_survival(env, 1)
        assert bounds.lf_exact is None
        assert bounds.lower <= surv + 1e-12 <= bounds.upper + 1e-11 + surv


def test_agresti_lower_bound_matches_eta_general_sum():
    # the lower bound takes sum eta_general exp(-S_i) as twice the eta_lf sum; bit for bit
    rng = np.random.default_rng(12)
    for n in range(12):
        laws = tuple(
            random_lf_law(rng) if rng.random() < 0.5 else random_finite_law(rng, 3, False)
            for _ in range(n)
        )
        s = walk(laws)
        terms = np.array([eta_general(law) for law in laws]) * np.exp(-s[:-1])
        h_general = float(np.cumsum(terms)[-1]) if n else 0.0
        expected = 1.0 / (math.exp(-s[-1]) + h_general)
        assert survival_bounds(laws).lower == expected


def test_agresti_deterministic_line():
    bounds = survival_bounds((FiniteLaw((0.0, 1.0)),) * 5)
    assert bounds.lower == pytest.approx(1.0, abs=1e-15)
    assert bounds.upper == pytest.approx(1.0, abs=1e-15)
