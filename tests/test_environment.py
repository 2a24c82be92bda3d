import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpre.environment import (
    EnvironmentModel,
    Regime,
    classify_regime,
    lattice_span,
    rate_function_at_zero,
    solve_critical_tilt,
    tilt,
)
from bpre.errors import ContractError, NotSupercriticalError
from bpre.laws import FiniteLaw, LinearFractionalLaw
from bpre.models import weakly_model

from helpers import random_lf_law, searchsorted_indices


def two_point_model(x_up, x_down, w_up):
    """LF states with prescribed walk increments."""
    up = LinearFractionalLaw(m=math.exp(x_up), b=2.0 * math.exp(2 * x_up))
    down = LinearFractionalLaw(m=math.exp(x_down), b=2.0 * math.exp(2 * x_down))
    return EnvironmentModel((up, down), (w_up, 1.0 - w_up))


def test_model_validation():
    law = FiniteLaw((0.5, 0.5))
    with pytest.raises(ContractError):
        EnvironmentModel((), ())
    with pytest.raises(ContractError):
        EnvironmentModel((law,), (0.9,))
    with pytest.raises(ContractError):
        EnvironmentModel((law, law), (0.7,))


def test_json_round_trip_exact_schema(tmp_path):
    model = weakly_model()
    doc = model.to_json()
    assert set(doc) == {"states", "weights"}
    assert doc["states"][0] == {"type": "lf", "m": 2.0, "b": 8.0}
    restored = EnvironmentModel.from_json(json.loads(json.dumps(doc)))
    assert restored == model
    with pytest.raises(ContractError):
        EnvironmentModel.from_json({"weights": [1.0]})


def test_model_walk_moments():
    model = two_point_model(math.log(2.0), -math.log(2.0), 2.0 / 3.0)
    assert model.drift == pytest.approx(math.log(2.0) / 3.0, rel=1e-12)
    assert model.tilted_moment(0.0) == pytest.approx(1.0, abs=1e-15)
    # E[X e^-X] = (2/3) log2 / 2 - (1/3) log2 * 2 = -log2 / 3
    assert model.cross_moment == pytest.approx(-math.log(2.0) / 3.0, rel=1e-12)


def test_rate_function_two_point_log2():
    # closed form: minimize (2/3) 2^-lam + (1/3) 2^lam at lam = 1/2
    model = two_point_model(math.log(2.0), -math.log(2.0), 2.0 / 3.0)
    res = rate_function_at_zero(model)
    assert res.flag == "interior"
    assert res.lambda_star == pytest.approx(0.5, abs=1e-8)
    assert res.value == pytest.approx(-math.log(2.0 * math.sqrt(2.0) / 3.0), abs=1e-9)


def test_rate_function_boundary_case():
    # X >= 0 with an atom at zero: value is -log P(X = 0), flag boundary
    unit = LinearFractionalLaw(m=1.0, b=2.0)
    up = LinearFractionalLaw(m=math.e, b=2.0 * math.e**2)
    model = EnvironmentModel((unit, up), (0.4, 0.6))
    res = rate_function_at_zero(model)
    assert res.flag == "boundary"
    assert math.isinf(res.lambda_star)
    assert res.value == pytest.approx(-math.log(0.4), abs=1e-12)


def test_rate_function_no_small_value():
    model = EnvironmentModel((LinearFractionalLaw(m=2.0, b=8.0),), (1.0,))
    res = rate_function_at_zero(model)
    assert res.flag == "no-small-value"
    assert math.isinf(res.value)


def test_rate_function_requires_supercritical():
    model = two_point_model(math.log(2.0), -math.log(2.0), 0.5)
    with pytest.raises(NotSupercriticalError):
        rate_function_at_zero(model)


@given(st.integers(0, 2**32 - 1))
def test_golden_section_matches_grid(seed):
    rng = np.random.default_rng(seed)
    laws = tuple(random_lf_law(rng) for _ in range(rng.integers(2, 4)))
    raw = rng.random(len(laws)) + 0.05
    model = EnvironmentModel(laws, tuple(raw / raw.sum()))
    if model.drift <= 0.0 or min(model.x_values) >= 0.0:
        return
    res = rate_function_at_zero(model)
    grid = np.linspace(0.0, max(4.0 * res.lambda_star, 1.0), 10_001)
    g = np.array([model.tilted_moment(l) for l in grid])
    assert res.value >= -math.log(g.min()) - 1e-8


def test_tilt_identity_and_round_trip():
    model = weakly_model()
    tilted, mu = tilt(model, 0.0)
    assert mu == pytest.approx(1.0, abs=1e-15)
    assert tilted.weights == pytest.approx(model.weights)
    tilted, mu = tilt(model, 0.7)
    back, _ = tilt(tilted, -0.7)
    assert np.allclose(back.weights, model.weights, atol=1e-12)
    assert mu == pytest.approx(model.tilted_moment(0.7), rel=1e-12)


def test_tilt_centre_drift():
    model = two_point_model(math.log(2.0), -math.log(2.0), 2.0 / 3.0)
    tilted, _ = tilt(model, 0.5)
    assert tilted.drift == pytest.approx(0.0, abs=1e-12)


def test_critical_tilt_closed_forms():
    model = two_point_model(math.log(2.0), -math.log(2.0), 2.0 / 3.0)
    assert solve_critical_tilt(model) == pytest.approx(0.5, abs=1e-10)
    model2 = two_point_model(1.0, -1.0, 0.9)
    assert solve_critical_tilt(model2) == pytest.approx(math.log(3.0), abs=1e-10)
    tilted, _ = tilt(model2, solve_critical_tilt(model2))
    assert abs(tilted.drift) <= 1e-12


def test_critical_tilt_contract_errors():
    torch = EnvironmentModel((LinearFractionalLaw(m=2.0, b=8.0),), (1.0,))
    with pytest.raises(ContractError):
        solve_critical_tilt(torch)  # no negative increments
    sym = two_point_model(0.5, -0.5, 0.5)
    with pytest.raises(NotSupercriticalError):
        solve_critical_tilt(sym)  # zero drift


def test_classify_regime_examples():
    strongly = two_point_model(1.0, -1.0, 0.9)
    assert classify_regime(strongly) is Regime.STRONGLY
    p_star = math.e / (math.e + math.exp(-1.0))
    boundary = two_point_model(1.0, -1.0, p_star)
    assert classify_regime(boundary) is Regime.INTERMEDIATE
    weakly = two_point_model(math.log(2.0), -math.log(2.0), 2.0 / 3.0)
    assert classify_regime(weakly) is Regime.WEAKLY


@given(st.integers(0, 2**32 - 1))
def test_classify_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed)
    laws = tuple(random_lf_law(rng) for _ in range(3))
    raw = rng.random(3) + 0.05
    model = EnvironmentModel(laws, tuple(raw / raw.sum()))
    if model.drift <= 0.0:
        return
    perm = rng.permutation(3)
    shuffled = EnvironmentModel(
        tuple(laws[i] for i in perm), tuple(model.weights[i] for i in perm)
    )
    assert classify_regime(model) is classify_regime(shuffled)


def test_lattice_span():
    model = two_point_model(math.log(2.0), -math.log(2.0), 2.0 / 3.0)
    assert lattice_span(model) == pytest.approx(math.log(2.0), rel=1e-9)
    mixed = two_point_model(1.0, -math.log(2.0), 0.8)
    assert lattice_span(mixed) is None
    single = EnvironmentModel((LinearFractionalLaw(m=1.0, b=2.0),), (1.0,))
    assert lattice_span(single) == 0.0


def _sample_models():
    rng = np.random.default_rng(12)
    six = rng.random(6)
    six[[1, 4]] = 0.0  # zero-weight states: repeated cumulative weights
    lopsided = np.array([1e-9, 0.0, 1.0 - 1e-9])
    return [
        EnvironmentModel((LinearFractionalLaw(1.5, 3.0),), (1.0,)),
        weakly_model(),
        EnvironmentModel(tuple(random_lf_law(rng) for _ in range(6)), tuple(six / six.sum())),
        EnvironmentModel(tuple(random_lf_law(rng) for _ in range(3)), tuple(lopsided)),
    ]


@pytest.mark.parametrize("size", [1, 1000, (1, 7), (257, 9)])
@pytest.mark.parametrize("model", _sample_models(), ids=["one_state", "two_state", "six_state", "lopsided"])
def test_sample_indices_match_searchsorted_oracle(model, size):
    for seed in range(5):
        got = model.sample_indices(np.random.default_rng(seed), size)
        want = searchsorted_indices(model, np.random.default_rng(seed), size)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)
    never = [a for a, w in enumerate(model.weights) if w == 0.0]
    assert not np.isin(model.sample_indices(np.random.default_rng(0), 100_000), never).any()
