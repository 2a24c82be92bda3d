import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpre.errors import ContractError, DegenerateLawError
from bpre.laws import FiniteLaw, LinearFractionalLaw, law_from_json, law_to_json

from helpers import eta_general, law_pmf_vector, random_lf_law, truncated_second_moment


def test_moments_finite_quarter_three_quarter():
    law = FiniteLaw((0.25, 0.0, 0.75))
    assert law.mean == pytest.approx(1.5, abs=1e-15)
    assert law.second_factorial_moment == pytest.approx(1.5, abs=1e-15)
    assert eta_general(law) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert law.eta_lf == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert law.eta_lf == 0.5 * eta_general(law)  # the same bits as halving b / m^2


def test_moments_lf():
    law = LinearFractionalLaw(m=2.0, b=8.0)
    assert law.eta_lf == pytest.approx(1.0, abs=1e-15)
    assert eta_general(law) == pytest.approx(2.0, abs=1e-15)
    assert law.eta_lf == 0.5 * eta_general(law)
    assert (law.mean, law.second_factorial_moment) == (2.0, 8.0)


def test_moments_deterministic_single_offspring():
    law = FiniteLaw((0.0, 1.0))
    assert (law.mean, law.second_factorial_moment, eta_general(law)) == (1.0, 0.0, 0.0)
    assert law.eta_lf == 0.0


def test_zero_mean_law_rejected():
    law = FiniteLaw((1.0,))
    with pytest.raises(DegenerateLawError):
        law.eta_lf


def test_invalid_probabilities_rejected():
    with pytest.raises(ContractError):
        FiniteLaw((0.5, 0.6))
    with pytest.raises(ContractError):
        FiniteLaw((-0.1, 1.1))
    with pytest.raises(ContractError):
        LinearFractionalLaw(m=2.0, b=1.0)  # q(0) would be negative
    with pytest.raises(ContractError):
        LinearFractionalLaw(m=0.0, b=1.0)


def test_truncated_second_moment_finite():
    law = FiniteLaw((0.25, 0.0, 0.75))
    assert truncated_second_moment(law, 2) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert truncated_second_moment(law, 3) == 0.0
    assert truncated_second_moment(FiniteLaw((0.0, 1.0)), 1) == pytest.approx(1.0)
    with pytest.raises(ContractError):
        truncated_second_moment(law, 0)


def test_truncated_second_moment_lf_matches_series():
    law = LinearFractionalLaw(m=2.0, b=8.0)
    for a in (1, 2, 5, 11):
        direct = sum(k * k * law.prob(k) for k in range(a, 4000)) / law.m**2
        assert truncated_second_moment(law, a) == pytest.approx(direct, rel=1e-12)


def test_lf_atom_and_ratio():
    law = LinearFractionalLaw(m=2.0, b=8.0)
    assert law.p0 == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert law.ratio == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert law.prob(1) == pytest.approx((2.0 / 3.0) * (1.0 / 3.0), abs=1e-15)
    # geometric decay of the positive part
    for k in range(1, 8):
        assert law.prob(k + 1) / law.prob(k) == pytest.approx(law.ratio, rel=1e-12)


def test_lf_pgf_matches_series():
    law = LinearFractionalLaw(m=1.3, b=4.0)
    for s in (0.0, 0.3, 0.7, 0.95):
        series = sum(law.prob(k) * s**k for k in range(0, 2000))
        assert law.pgf(s) == pytest.approx(series, rel=1e-12)
    assert law.pgf(1.0) == pytest.approx(1.0, abs=1e-12)
    assert law.pgf_prime(1.0) == pytest.approx(law.m, rel=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_pgf_derivative_finite_difference(seed):
    rng = np.random.default_rng(seed)
    law = random_lf_law(rng) if rng.random() < 0.5 else FiniteLaw((0.2, 0.3, 0.1, 0.4))
    s = rng.uniform(0.05, 0.9)
    h = 1e-6
    fd = (law.pgf(s + h) - law.pgf(s - h)) / (2 * h)
    assert law.pgf_prime(s) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_coefficients_and_tail():
    law = LinearFractionalLaw(m=2.0, b=8.0)
    coeffs = law_pmf_vector(law, 64)
    assert np.all(coeffs >= 0.0)
    assert coeffs[0] == pytest.approx(law.p0)
    tail = 1.0 - coeffs.sum()
    assert tail == pytest.approx((1.0 - law.p0) * law.ratio**64, rel=1e-9)


def test_sampling_matches_pmf():
    rng = np.random.default_rng(11)
    for law in (FiniteLaw((0.3, 0.45, 0.25)), LinearFractionalLaw(m=1.4, b=3.0)):
        draws = law.sample(rng, 200_000)
        pmf = law_pmf_vector(law, 6)
        for k in range(6):
            freq = np.mean(draws == k)
            se = math.sqrt(pmf[k] * (1 - pmf[k]) / draws.size)
            assert abs(freq - pmf[k]) < 4 * se + 1e-12
        assert draws.mean() == pytest.approx(law.mean, abs=0.02)


def test_law_json_round_trip():
    for law in (FiniteLaw((0.25, 0.0, 0.75)), LinearFractionalLaw(m=2.0, b=8.0)):
        assert law_from_json(law_to_json(law)) == law
    with pytest.raises(ContractError):
        law_from_json({"type": "nope"})


def _old_pgf(law, s):
    """``FiniteLaw.pgf`` as first written: a fresh array at every Horner step."""
    out = 0.0
    for p in reversed(law.probs):
        out = out * s + p
    return out


def _old_pgf_prime(law, s):
    out = 0.0
    for k in range(len(law.probs) - 1, 0, -1):
        out = out * s + k * law.probs[k]
    return out


@pytest.mark.parametrize("degree", range(6))
def test_finite_pgf_in_place_keeps_the_bits_of_the_fresh_array_steps(degree):
    rng = np.random.default_rng(70 + degree)
    raw = rng.random(degree + 1) + 0.05
    law = FiniteLaw(tuple(raw / raw.sum()))
    for shape in ((1,), (17,), (5, 3)):
        s = rng.random(shape)
        for new, old in ((law.pgf, _old_pgf), (law.pgf_prime, _old_pgf_prime)):
            got, want = new(s), old(law, s)
            assert isinstance(got, np.ndarray) and got.shape == shape
            if degree == 0 and old is _old_pgf_prime:  # the old steps gave the scalar 0.0
                assert want == 0.0 and not got.any()
            else:
                assert got.tobytes() == np.asarray(want).tobytes()
    # scalars take the scalar steps: the same values, and the same types
    for s in (0.3, np.float64(0.3), np.array(0.3), 1, np.float32(0.3)):
        for new, old in ((law.pgf, _old_pgf), (law.pgf_prime, _old_pgf_prime)):
            got, want = new(s), old(law, s)
            assert type(got) is type(want) and got == want, (s, got, want)


def _fold_loop_prime(law, t):
    """f'(t) of a finite law by the in-place Horner loop the annealed fold once carried."""
    probs = law.probs
    out = np.empty_like(t)
    out.fill((len(probs) - 1) * probs[-1])
    for j in range(len(probs) - 2, 0, -1):
        out *= t
        out += j * probs[j]
    return out


def _out_laws():
    rng = np.random.default_rng(91)
    for degree in range(5):
        raw = rng.random(degree + 1) + 0.05
        yield FiniteLaw(tuple(raw / raw.sum()))
    yield FiniteLaw((0.25, 0.0, 0.75))  # a zero coefficient inside the support
    yield from (LinearFractionalLaw(2.0, 8.0), LinearFractionalLaw(0.5, 0.5), LinearFractionalLaw(1.2, 0.5))


@pytest.mark.parametrize("law", list(_out_laws()), ids=repr)
def test_pgf_prime_out_returns_the_buffer_with_the_bits_of_a_fresh_result(law):
    rng = np.random.default_rng(92)
    edges = np.array([-0.0, 0.0, 1.0])
    for s in (np.concatenate([edges, rng.random(13)]), np.concatenate([edges, rng.random(9)]).reshape(3, 4)):
        want = law.pgf_prime(s)
        buf = np.full(s.shape, np.nan)
        got = law.pgf_prime(s, out=buf)
        assert got is buf
        assert got.tobytes() == want.tobytes()  # the sign of every zero included
        # at t >= 0 the bits are those of the fold's former loop for a finite law
        if isinstance(law, FiniteLaw) and len(law.probs) > 1:
            t = np.abs(s)
            assert law.pgf_prime(t, out=np.empty(s.shape)).tobytes() == _fold_loop_prime(law, t).tobytes()
    # a scalar keeps its float steps and type, and a result array takes it with their bits
    a = 1.0 / law.m if isinstance(law, LinearFractionalLaw) else None
    for s in (0.3, -0.0, 0.0, 1.0, 1):
        want = _old_pgf_prime(law, s) if a is None else a / (a + law.eta_lf * (1.0 - s)) ** 2
        got = law.pgf_prime(s)
        assert type(got) is type(want) is float and got == want, (s, got, want)
        buf = np.empty(1)
        assert law.pgf_prime(s, out=buf) is buf and buf[0] == want


def test_finite_pgf_writes_one_array_per_call():
    # the Horner steps update one result array in place: the traced peak of a
    # call on n doubles stays within one result array and a little overhead
    import tracemalloc

    law = FiniteLaw(tuple(np.full(9, 1.0 / 9.0)))
    s = np.random.default_rng(1).random(1 << 16)
    for f in (law.pgf, law.pgf_prime):
        f(s)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = f(s)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.nbytes <= peak < out.nbytes + 4096, peak
