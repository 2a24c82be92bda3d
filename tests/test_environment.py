import json
import math
import warnings

import mpmath
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

from helpers import random_finite_law, random_lf_law, searchsorted_indices


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
    assert model.tilted_cross_moment(1.0) == pytest.approx(-math.log(2.0) / 3.0, rel=1e-12)


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


STERILE_LF_MODEL = EnvironmentModel((FiniteLaw((1.0,)), LinearFractionalLaw(2.0, 8.0)), (0.1, 0.9))


def test_tilt_at_zero_is_the_identity_also_with_a_sterile_state():
    # X = -inf on the sterile state, where 0 X is not a number
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tilted, mu = tilt(STERILE_LF_MODEL, 0.0)
        assert tilted is STERILE_LF_MODEL and mu == 1.0
        dropped, mu = tilt(STERILE_LF_MODEL, -1.0)  # exp(-inf) = 0: the sterile state drops
        assert dropped.states == STERILE_LF_MODEL.states[1:] and mu == pytest.approx(0.9 * 2.0)


@pytest.mark.parametrize(
    "model, nu",
    [(STERILE_LF_MODEL, 1e308), (weakly_model(), 1e308), (STERILE_LF_MODEL, 1.0)],
    ids=["sterile", "weakly", "sterile_at_one"],
)
def test_tilt_without_a_finite_normalizer_raises_without_a_warning(model, nu):
    # exp(-nu X) overflows (weakly) or is exp(inf) (the sterile state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="tilt normalizer is not finite and positive"):
            tilt(model, nu)


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


def test_zero_weight_states_stay_out_of_the_walk():
    base = weakly_model()
    extra = (LinearFractionalLaw(m=1.0, b=2.0), FiniteLaw((1.0,)), FiniteLaw((0.9, 0.0, 0.1)))
    padded = EnvironmentModel(base.states + extra, base.weights + (0.0,) * 3)
    assert padded == base
    assert padded.drift == base.drift
    for lam in (0.0, 0.5, 2.0):
        assert padded.tilted_moment(lam) == base.tilted_moment(lam)
        assert padded.tilted_cross_moment(lam) == base.tilted_cross_moment(lam)
    assert rate_function_at_zero(padded) == rate_function_at_zero(base)
    assert solve_critical_tilt(padded) == solve_critical_tilt(base)
    assert lattice_span(padded) == lattice_span(base)
    assert padded.assumption1_gamma == base.assumption1_gamma == pytest.approx(1.0 / 3.0)
    tilted, mu = tilt(padded, 0.5)
    base_tilted, base_mu = tilt(base, 0.5)
    assert mu == base_mu
    assert tilted == base_tilted
    # the zero-weight X = 0 state once made the rate -log(0)
    lone = EnvironmentModel((LinearFractionalLaw(m=2.0, b=8.0), extra[0]), (1.0, 0.0))
    assert rate_function_at_zero(lone).flag == "no-small-value"


def test_mean_zero_state_has_increment_minus_inf():
    model = EnvironmentModel((FiniteLaw((1.0,)), LinearFractionalLaw(m=2.0, b=8.0)), (0.2, 0.8))
    assert model.x_values[0] == -math.inf
    assert model.drift == -math.inf
    assert model.assumption1_gamma == 0.0
    assert lattice_span(model) is None
    with pytest.raises(NotSupercriticalError):
        rate_function_at_zero(model)


def _sample_models():
    rng = np.random.default_rng(12)
    six = rng.random(6)
    six[[1, 4]] = 0.0  # zero-weight states, dropped at construction
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


@pytest.mark.parametrize("size", [1, 1000, (1, 7), (4096, 16)])
@pytest.mark.parametrize("model", _sample_models(), ids=["one_state", "two_state", "six_state", "lopsided"])
def test_state_indices_match_sample_indices_on_the_same_stream(model, size):
    # the MRCA spine lane draws the uniforms itself and maps only the rows it keeps
    for seed in range(3):
        drawn = np.random.Generator(np.random.Philox(seed))
        want = model.sample_indices(drawn, size)
        rng = np.random.Generator(np.random.Philox(seed))
        u = rng.random(size)
        got = model.state_indices(u)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert rng.random() == drawn.random()  # both leave the stream at the same place
        keep = u < 0.3
        assert np.array_equal(model.state_indices(u[keep]), want[keep])


class _Words:
    """A generator whose bit generator yields the given 64-bit words, and whose doubles are theirs."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.bit_generator = self

    def random_raw(self, size):
        return self.words[:size].copy()

    def random(self, size):
        return (self.random_raw(size) >> np.uint64(11)) * 2.0**-53


@pytest.mark.parametrize(
    "weights",
    [
        (0.3, 0.7),
        (0.25, 0.375, 0.375),
        (1.0 - 2.0**-53, 2.0**-53),
        (1.0, 1e-13),
        (1.0 + 2.0**-52, 1e-13),
    ],
    ids=["inexact", "dyadic", "ulp_below_one", "at_one", "ulp_above_one"],
)
def test_raw_word_bounds_match_the_doubles_at_each_boundary(weights):
    # the words on and next to each bound ceil(cum 2^53) << 11; at cum >= 1
    # the bound 2^53 << 11 fits no uint64, and no word crosses it
    model = EnvironmentModel(tuple(random_lf_law(np.random.default_rng(1)) for _ in weights), weights)
    tops = [math.ceil(c * 2.0**53) for c in np.cumsum(model.weights)[:-1]]
    assert len(model._raw_bounds) == sum(t < 2**53 for t in tops)
    words = [0, 2**64 - 1, (2**53 - 1) << 11]
    for t in tops:
        words += [w for w in ((t << 11) - 1, t << 11, (t << 11) + 1, (t << 11) + 2047) if w < 2**64]
    got = model.sample_indices(_Words(words), len(words))
    assert np.array_equal(got, model.state_indices(_Words(words).random(len(words))))
    assert got[1] == sum(c <= 1.0 - 2.0**-53 for c in np.cumsum(model.weights)[:-1])


@pytest.mark.parametrize("bits", [np.random.Philox, np.random.PCG64])
@pytest.mark.parametrize("k", [1, 3, 300])
def test_sample_indices_keep_the_doubles_indices_on_one_stream(k, bits):
    # the words a draw reads are the words ``random`` turns into doubles
    rng = np.random.default_rng(k)
    w = rng.random(k) + 0.01
    model = EnvironmentModel(tuple(random_lf_law(rng) for _ in range(k)), tuple(w / w.sum()))
    for size in [(4096, 40), (3,), (0, 5), 1]:
        drawn, doubles = np.random.Generator(bits(11)), np.random.Generator(bits(11))
        got = model.sample_indices(drawn, size)
        assert got.dtype == np.int64
        assert np.array_equal(got, model.state_indices(doubles.random(size)))
        assert drawn.random() == doubles.random()


@pytest.mark.parametrize("size", [(4096, 40), (3,), (0, 5)])
@pytest.mark.parametrize("k", [2, 3, 7, 300])
def test_sample_indices_widen_a_small_count_to_int64(k, size):
    # the count runs in uint8 up to k = 256 and in uint16 at k = 300
    rng = np.random.default_rng(k)
    w = rng.random(k) + 0.01
    model = EnvironmentModel(tuple(random_lf_law(rng) for _ in range(k)), tuple(w / w.sum()))
    got = model.sample_indices(np.random.default_rng(7), size)
    u = np.random.default_rng(7).random(size)
    want = np.searchsorted(np.cumsum(model.weights)[:-1], u, side="right")
    assert got.dtype == np.int64 and got.shape == size
    assert np.array_equal(got, want)


def _lf_step_law(x):
    """LF law whose walk increment is log m = x (up to the rounding of exp)."""
    m = math.exp(x)
    return LinearFractionalLaw(m=m, b=2.0 * m * m)


# increments so small that the tilt runs to ~1e6, a root the absolute test
# |h| <= 1e-12 missed, and a root past which exp(-nu X) overflows
HARD_TILT_MODELS = [
    EnvironmentModel((_lf_step_law(1e-6), _lf_step_law(-1e-6)), (0.9, 0.1)),
    EnvironmentModel((_lf_step_law(1e-4), _lf_step_law(-1e-15)), (0.5, 0.5)),
    EnvironmentModel(
        (LinearFractionalLaw(1.0 + 1e-15, 2.0 * (1.0 + 1e-15) ** 2), _lf_step_law(-1.0)),
        (1.0 - 1e-300, 1e-300),
    ),
]


def _mp_critical_tilt(model):
    """60-digit bisection of E[X exp(-lam X)] = 0 on the model's double increments."""
    with mpmath.workdps(60):
        wx = [(mpmath.mpf(w), mpmath.mpf(x)) for w, x in zip(model.weights, model.x_values)]

        def h(lam):
            return mpmath.fsum(w * x * mpmath.exp(-lam * x) for w, x in wx)

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while h(hi) >= 0:
            hi *= 2
        while hi - lo > hi * mpmath.mpf(10) ** -55:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if h(mid) > 0 else (lo, mid)
        lam = (lo + hi) / 2
        value = -mpmath.log(mpmath.fsum(w * mpmath.exp(-lam * x) for w, x in wx))
        return float(lam), float(value)


def _random_tilt_models(count):
    rng = np.random.default_rng(2026)
    models = []
    while len(models) < count:
        k = int(rng.integers(2, 5))
        if len(models) % 2:
            laws = tuple(random_finite_law(rng, max_support=4) for _ in range(k))
        else:
            laws = tuple(random_lf_law(rng) for _ in range(k))
        raw = rng.random(k) + 0.05
        model = EnvironmentModel(laws, tuple(raw / raw.sum()))
        if model.drift > 0.0 and min(model.x_values) < 0.0:
            models.append(model)
    return models


@pytest.mark.parametrize(
    "model", HARD_TILT_MODELS + _random_tilt_models(40), ids=lambda m: m.model_id
)
def test_critical_tilt_and_rate_match_mpmath_bisection(model):
    lam_ref, value_ref = _mp_critical_tilt(model)
    lam = solve_critical_tilt(model)
    assert lam == pytest.approx(lam_ref, rel=1e-12, abs=0.0)
    res = rate_function_at_zero(model)
    assert res.flag == "interior"
    assert res.lambda_star == lam
    assert res.value == pytest.approx(value_ref, rel=0.0, abs=1e-14)


def test_critical_tilt_of_weakly_is_exactly_one_half():
    assert solve_critical_tilt(weakly_model()) == 0.5
    assert rate_function_at_zero(weakly_model()).lambda_star == 0.5


def test_zero_and_rounding_weight_states_are_dropped():
    a, b = LinearFractionalLaw(2.0, 8.0), LinearFractionalLaw(0.5, 0.5)
    base = EnvironmentModel((a, b), (0.5, 0.5 + 1e-13))
    padded = EnvironmentModel(
        (FiniteLaw((1.0,)), a, LinearFractionalLaw(1.0, 2.0), b, FiniteLaw((0.9, 0.0, 0.1))),
        (0.0, 0.5, -1e-13, 0.5 + 1e-13, 0.0),
    )
    assert padded == base
    assert padded.to_json() == base.to_json()
    assert padded.model_id == base.model_id
    assert EnvironmentModel.from_json(json.loads(json.dumps(padded.to_json()))) == base
    for seed in range(3):
        got = padded.sample_indices(np.random.default_rng(seed), 1000)
        assert np.array_equal(got, base.sample_indices(np.random.default_rng(seed), 1000))

    # the words of uniforms in [0.5 - 1e-13, 0.5), where the -1e-13 state's interval once lay
    below_half = np.linspace(0.5 - 1e-13, np.nextafter(0.5, 0.0), 64)
    drawn = padded.sample_indices(_Words((below_half * 2.0**53).astype(np.uint64) << np.uint64(11)), 64)
    assert all(padded.states[i] is a for i in drawn)
