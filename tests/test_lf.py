import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpre.environment import EnvironmentModel, Regime, rate_function_at_zero
from bpre.errors import ContractError
from bpre.exact import EnvSequence, fekete_bounds, quenched_pmf, quenched_survival
from bpre.laws import FiniteLaw, LinearFractionalLaw
from bpre.lf import (
    LFQuenchedState,
    agresti_survival_bounds,
    lf_composed_law,
    lf_derivative,
    lf_fgen,
    lf_quenched_pmf,
    lf_rho,
)
from bpre.models import strongly_model, weakly_model

from helpers import random_finite_law, random_lf_law


def lf_env(rng, n):
    return EnvSequence(tuple(random_lf_law(rng) for _ in range(n)))


def test_fgen_normalization_and_single_law():
    law = LinearFractionalLaw(m=2.0, b=8.0)
    state = LFQuenchedState.from_law(law)
    assert lf_fgen(state, 1.0) == pytest.approx(1.0, abs=1e-15)
    # s_exp = 1/2, eta_sum = 1: extinction probability 1 - 1/(1/2 + 1) = 1/3
    assert lf_fgen(state, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert state.s_exp == pytest.approx(0.5) and state.eta_sum == pytest.approx(1.0)


def test_fgen_matches_pgf_engine():
    rng = np.random.default_rng(21)
    for _ in range(25):
        env = lf_env(rng, int(rng.integers(1, 7)))
        state = LFQuenchedState.from_env(env)
        assert lf_fgen(state, 0.0) == pytest.approx(
            env.extinction_ladder()[0], abs=1e-10
        )


def test_derivative_at_one_is_quenched_mean():
    rng = np.random.default_rng(2)
    env = lf_env(rng, 5)
    state = LFQuenchedState.from_env(env)
    assert lf_derivative(state, 1.0) == pytest.approx(math.exp(env.walk[-1]), rel=1e-12)


def test_derivative_at_zero_is_survival_squared_identity():
    # P(Z_n = 1 | env) = exp(-S_n) P(Z_n > 0 | env)^2 for LF environments
    rng = np.random.default_rng(3)
    for _ in range(10):
        env = lf_env(rng, int(rng.integers(1, 6)))
        state = LFQuenchedState.from_env(env)
        surv = 1.0 - lf_fgen(state, 0.0)
        assert lf_derivative(state, 0.0) == pytest.approx(
            state.s_exp * surv * surv, rel=1e-12
        )
        assert lf_derivative(state, 0.0) == pytest.approx(
            quenched_pmf(env, 1, 1), abs=1e-10
        )


def test_derivative_finite_difference():
    rng = np.random.default_rng(4)
    env = lf_env(rng, 4)
    state = LFQuenchedState.from_env(env)
    h = 1e-5
    for s in (0.1, 0.5, 0.9):
        fd = (lf_fgen(state, s + h) - lf_fgen(state, s - h)) / (2 * h)
        assert abs(lf_derivative(state, s) - fd) <= 1e-6


def test_quenched_pmf_properties():
    rng = np.random.default_rng(5)
    env = lf_env(rng, 6)
    state = LFQuenchedState.from_env(env)
    assert lf_quenched_pmf(state, 1, 0) == pytest.approx(lf_fgen(state, 0.0), abs=1e-14)
    # geometric in j >= 1
    ratio = lf_composed_law(state).ratio
    for j in range(1, 7):
        assert lf_quenched_pmf(state, 1, j + 1) / lf_quenched_pmf(state, 1, j) == pytest.approx(
            ratio, rel=1e-10
        )
    # P(Z_n = 2) <= P(Z_n = 1)
    assert lf_quenched_pmf(state, 1, 2) <= lf_quenched_pmf(state, 1, 1)
    # agreement with the generic engine, including z0 > 1
    for z0 in (1, 2, 3):
        for j in range(0, 5):
            assert lf_quenched_pmf(state, z0, j) == pytest.approx(
                quenched_pmf(env, z0, j), abs=1e-10
            )


@given(st.integers(0, 2**32 - 1))
def test_concatenation_composes_fgen(seed):
    # the law of a concatenated environment is the composition of its parts' laws
    rng = np.random.default_rng(seed)
    n_a, n_b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    laws_a = tuple(random_lf_law(rng) for _ in range(n_a))
    laws_b = tuple(random_lf_law(rng) for _ in range(n_b))
    combined = LFQuenchedState.from_env(EnvSequence(laws_a + laws_b))
    first, second = (LFQuenchedState.from_env(EnvSequence(laws)) for laws in (laws_a, laws_b))
    for s in (0.0, 0.3, 0.7, 0.99, 1.0):
        assert lf_fgen(combined, s) == pytest.approx(lf_fgen(first, lf_fgen(second, s)), rel=1e-12)


@pytest.mark.parametrize("z0", [1, 2, 3])
def test_quenched_pmf_rejects_negative_size(z0):
    state = LFQuenchedState.from_env(lf_env(np.random.default_rng(14), 5))
    with pytest.raises(ContractError, match="population size"):
        lf_quenched_pmf(state, z0, -1)


def test_quenched_pmf_is_the_kernel_row():
    rng = np.random.default_rng(13)
    for _ in range(20):
        env = lf_env(rng, int(rng.integers(0, 30)))
        state = LFQuenchedState.from_env(env)
        for j in range(8):
            assert lf_quenched_pmf(state, 1, j) == quenched_pmf(env, 1, j)


def test_state_survives_long_supercritical_horizon():
    # exp(-S_n) = 2^-1100 underflows; the bounded state keeps the survival
    env = EnvSequence((LinearFractionalLaw(2.0, 8.0),) * 1100)
    survival = LFQuenchedState.from_env(env).survival
    assert survival == quenched_survival(env, 1) == agresti_survival_bounds(env).lf_exact
    assert survival == pytest.approx(0.5, rel=1e-14)


def test_states_past_double_range_give_ieee_limits():
    # supercritical: a = exp(-S_n) / D = 2^-1100 / D is 0 in double, survival 1/2;
    # subcritical: the survival 2^-1100 is 0 in double, a = r = 1/2
    sup = LFQuenchedState.from_env(EnvSequence((LinearFractionalLaw(2.0, 8.0),) * 1100))
    sub = LFQuenchedState.from_env(EnvSequence((LinearFractionalLaw(0.5, 0.5),) * 1100))
    assert sup.a == 0.0 and sub.survival == 0.0
    for state in (sup, sub):
        assert lf_fgen(state, 1.0) == 1.0
        with pytest.raises(ContractError, match="not representable"):
            lf_composed_law(state)
    assert lf_fgen(sup, 0.0) == pytest.approx(0.5, rel=1e-14)
    assert lf_fgen(sub, 0.0) == 1.0
    # the quenched mean exp(S_n) is 2^1100 and 2^-1100
    assert lf_derivative(sup, 1.0) == math.inf
    assert lf_derivative(sub, 1.0) == 0.0
    assert sup.s_exp == 0.0 and sup.eta_sum == pytest.approx(2.0, rel=1e-14)
    assert sub.s_exp == math.inf and sub.eta_sum == math.inf


def test_agresti_bounds_past_double_range():
    # exp(-S_n) = 2^1100 overflows, so the lower bound is below the smallest double
    sub = EnvSequence((LinearFractionalLaw(0.5, 0.5),) * 1100)
    bounds = agresti_survival_bounds(sub)
    assert bounds.lower == 0.0 and bounds.lf_exact == 0.0
    assert bounds.upper == 0.0  # exp(S_n) = 2^-1100 underflows too
    # a mean-1 law without variance has eta = 0 where exp(-S_k) overflows: no inf * 0
    flat = EnvSequence(sub.laws + (FiniteLaw((0.0, 1.0)),) * 5)
    assert agresti_survival_bounds(flat).lower == 0.0
    # the walk comes back to 0: the bound stays finite and below the survival 1/4
    excursion = EnvSequence((LinearFractionalLaw(2.0, 8.0),) * 1100 + sub.laws)
    bounds = agresti_survival_bounds(excursion)
    assert 0.0 < bounds.lower <= bounds.lf_exact == pytest.approx(0.25, rel=1e-12)


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
    assert res.rho == pytest.approx(rate_function_at_zero(weakly).value, abs=1e-12)

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
        agresti_survival_bounds(EnvSequence((FiniteLaw((1.0,)),)))


def test_agresti_bounds_lf_exact():
    rng = np.random.default_rng(8)
    for _ in range(15):
        env = lf_env(rng, int(rng.integers(1, 6)))
        bounds = agresti_survival_bounds(env)
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
        bounds = agresti_survival_bounds(env)
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
        env = EnvSequence(laws)
        terms = np.array([law.eta_general for law in laws]) * np.exp(-env.walk[:-1])
        h_general = float(np.cumsum(terms)[-1]) if n else 0.0
        expected = 1.0 / (math.exp(-env.walk[-1]) + h_general)
        assert agresti_survival_bounds(env).lower == expected


def test_agresti_deterministic_line():
    env = EnvSequence((FiniteLaw((0.0, 1.0)),) * 5)
    bounds = agresti_survival_bounds(env)
    assert bounds.lower == pytest.approx(1.0, abs=1e-15)
    assert bounds.upper == pytest.approx(1.0, abs=1e-15)


def test_derivative_times_one_minus_s_squared_bound():
    # f'(s) (1-s)^2 <= exp(-S_n) (1 - f(0))^2 on [0, 1)
    rng = np.random.default_rng(10)
    for _ in range(10):
        env = lf_env(rng, int(rng.integers(1, 6)))
        state = LFQuenchedState.from_env(env)
        bound = state.s_exp * (1.0 - lf_fgen(state, 0.0)) ** 2
        for s in (0.0, 0.3, 0.9):
            assert lf_derivative(state, s) * (1.0 - s) ** 2 <= bound + 1e-14
