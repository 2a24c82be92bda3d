import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpre.errors import ContractError, TruncationError
from bpre.exact import EnvSequence, quenched_coeff_row
from bpre.laws import FiniteLaw, LinearFractionalLaw
from bpre.pgf import MAX_DEGREE, apply_law_rows, mul_rows, pow_rows, recip_rows, sqr_rows

from helpers import law_pmf_vector


def test_mul_rows_matches_convolution():
    rng = np.random.default_rng(0)
    a = rng.random((4, 7))
    b = rng.random((4, 7))
    out = mul_rows(a, b)
    for i in range(4):
        ref = np.convolve(a[i], b[i])[:7]
        assert np.allclose(out[i], ref, atol=1e-14)


@pytest.mark.parametrize("width", [1, 2, 3, 8, 33, 129])
def test_sqr_rows_matches_mul_rows_within_the_summation_bound(width):
    # both kernels sum nonnegative products, each within (terms) u of the
    # exactly rounded sum; sqr_rows sums about half as many, so against an
    # fsum reference it is held to (j//2 + 2) u per column j, and to
    # mul_rows within the two bounds together
    rng = np.random.default_rng(10 + width)
    c = rng.random((6, width)) / width
    got, mul = sqr_rows(c), mul_rows(c, c)
    u = np.finfo(float).eps / 2
    for r in range(len(c)):
        for j in range(width):
            ref = math.fsum(c[r, i] * c[r, j - i] for i in range(j + 1))
            assert abs(got[r, j] - ref) <= (j // 2 + 2) * u * ref, (r, j)
            assert abs(got[r, j] - mul[r, j]) <= (j // 2 + j + 4) * u * ref, (r, j)
    # within 4 ulps where each column sums at most a few products
    narrow = min(width, 9)
    assert np.all(np.abs(got - mul)[:, :narrow] <= 4 * np.spacing(mul[:, :narrow]))


@pytest.mark.parametrize("width", [1, 2, 5, 64, 129])
def test_sqr_rows_is_exact_on_dyadic_rows(width):
    # coefficients k / 64 with k < 64: every product and partial sum is a
    # dyadic rational with few bits, so both kernels are exact and agree
    rng = np.random.default_rng(20 + width)
    c = rng.integers(0, 64, size=(7, width)) / 64.0
    out = np.empty_like(c)
    assert sqr_rows(c, out=out) is out
    assert np.array_equal(out, mul_rows(c, c))
    assert np.array_equal(sqr_rows(np.zeros((2, width))), np.zeros((2, width)))


def test_recip_rows_inverts():
    rng = np.random.default_rng(1)
    w = rng.random((3, 9)) + 0.1
    r = recip_rows(w)
    unit = mul_rows(w, r)
    expect = np.zeros((3, 9))
    expect[:, 0] = 1.0
    scale = np.abs(r).max()
    assert np.allclose(unit, expect, atol=1e-13 * scale)


def test_pow_rows_matches_repeated_convolution():
    rng = np.random.default_rng(2)
    c = rng.random((2, 6)) / 6.0
    p = pow_rows(c, 3)
    for i in range(2):
        ref = np.convolve(np.convolve(c[i], c[i]), c[i])[:6]
        assert np.allclose(p[i], ref, atol=1e-14)


def test_apply_law_rows_lf_matches_direct_composition():
    law = LinearFractionalLaw(m=1.7, b=3.1)
    inner = law_pmf_vector(FiniteLaw((0.3, 0.3, 0.4)), 10)[None, :]
    out = apply_law_rows(law, inner.copy())[0]
    # compare with numeric coefficients of law.pgf(inner(s)) via polynomial fit
    xs = np.linspace(-0.25, 0.25, 11)
    vals = [law.pgf(np.polyval(inner[0][::-1], x)) for x in xs]
    ref = np.polyfit(xs, vals, 10)[::-1]
    assert np.allclose(out[:6], ref[:6], atol=1e-8)


def _horner_rows(probs, c):
    """``apply_law_rows`` for a finite law as first written: Horner from the constant row."""
    out = np.zeros_like(c)
    out[:, 0] = probs[-1]
    for k in range(len(probs) - 2, -1, -1):
        out = mul_rows(out, c)
        out[:, 0] += probs[k]
    return out


@pytest.mark.parametrize("degree", range(6))
def test_apply_law_rows_finite_matches_full_horner_bit_for_bit(degree):
    # the first Horner product of the constant row [q_d, 0, ...] is q_d c exactly
    rng = np.random.default_rng(40 + degree)
    for width in (1, 2, 5, 17):
        for _ in range(4):
            raw = rng.random(degree + 1) * (rng.random(degree + 1) < 0.8)
            raw[-1] += 0.1
            law = FiniteLaw(tuple(raw / raw.sum()))
            c = rng.random((6, width))
            out = apply_law_rows(law, c.copy())
            assert out.tobytes() == _horner_rows(law.probs, c).tobytes()
    point = apply_law_rows(FiniteLaw((1.0,)), rng.random((3, 4)))
    assert np.array_equal(point, np.repeat([[1.0, 0.0, 0.0, 0.0]], 3, axis=0))


def test_compose_identity_outer():
    g = law_pmf_vector(FiniteLaw((0.25, 0.0, 0.75)), 6)[None, :]
    out = apply_law_rows(FiniteLaw((0.0, 1.0)), g.copy())
    assert np.allclose(out, g, atol=1e-15)


def test_compose_self_composition_value():
    law = FiniteLaw((0.25, 0.0, 0.75))
    out = apply_law_rows(law, law_pmf_vector(law, 8)[None])[0]
    assert out[0] == pytest.approx(0.296875, abs=1e-15)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_compose_with_constant_one():
    law = FiniteLaw((0.25, 0.25, 0.5))
    one = np.zeros((1, 6))
    one[0, 0] = 1.0
    out = apply_law_rows(law, one)[0]
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(out[1:] == 0.0)


def test_degree_cap():
    env = EnvSequence((FiniteLaw((0.5, 0.5)),))
    with pytest.raises(TruncationError):
        quenched_coeff_row(env, 1, MAX_DEGREE + 1)


@st.composite
def small_laws(draw):
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4).filter(lambda v: sum(v) > 0))
    return FiniteLaw(tuple(v / sum(raw) for v in raw))


@given(small_laws(), small_laws(), small_laws())
def test_compose_associativity_within_tail(f, g, h):
    # (f o g) o h against f o (g o h): f o g has degree <= 9, so its row at
    # degree 9 is an exact finite law and both sides are exact to degree 12
    h_row = law_pmf_vector(h, 12)[None, :]
    fg = FiniteLaw(tuple(apply_law_rows(f, law_pmf_vector(g, 9)[None, :])[0]))
    left = apply_law_rows(fg, h_row.copy())
    right = apply_law_rows(f, apply_law_rows(g, h_row.copy()))
    assert np.max(np.abs(left - right)) <= 1e-12


def test_power_of_series():
    sq = pow_rows(np.array([[0.5, 0.0, 0.5]]), 2)[0]
    assert np.allclose(sq, [0.25, 0.0, 0.5], atol=1e-15)  # s^4 truncated away
    assert 1.0 - sq.sum() == pytest.approx(0.25)


def test_pow_rows_per_row_exponents_match_scalar_power():
    rng = np.random.default_rng(3)
    c = rng.random((14, 5)) / 3.0
    for z in (0, 1, 2, 3, 5, 8, 13, 31, 64):  # each row of a batch is its own scalar power
        out = pow_rows(c, z)
        for r in range(c.shape[0]):
            assert np.array_equal(out[r], pow_rows(c[r : r + 1], z)[0])
    unit = np.zeros_like(c)
    unit[:, 0] = 1.0
    assert np.array_equal(pow_rows(c, 0), unit)
    # the first power is the input itself: no copy is made
    assert pow_rows(c, 1) is c


def test_pow_rows_rejects_negative_exponents():
    c = np.ones((2, 3))
    with pytest.raises(ContractError, match="negative power"):
        pow_rows(c, -1)


_LAYOUT_LAWS = (
    FiniteLaw((1.0,)),
    FiniteLaw((0.4, 0.6)),
    FiniteLaw((0.2, 0.5, 0.3)),
    FiniteLaw((0.1, 0.2, 0.3, 0.4)),
    FiniteLaw((0.1, 0.2, 0.3, 0.2, 0.2)),
    LinearFractionalLaw(m=1.5, b=4.0),
)


@pytest.mark.parametrize("rows", [1, 7, 512])
@pytest.mark.parametrize("width", [1, 2, 3, 65, 129])
def test_row_kernels_give_the_same_bits_in_either_memory_order(width, rows):
    # the annealed enumerator keeps its blocks column-major; every kernel
    # must give it the bits of the row-major call, in a column-major result
    rng = np.random.default_rng(100 * width + rows)
    a = rng.random((rows, width)) / width
    b = rng.random((rows, width)) / width
    w = rng.random((rows, width)) / width
    w[:, 0] += 1.0

    def same(got_c, got_f):
        assert got_f.flags.f_contiguous
        assert np.array_equal(got_c, got_f)

    fa, fb, fw = map(np.asfortranarray, (a, b, w))
    same(mul_rows(a, b), mul_rows(fa, fb))
    same(mul_rows(a, b), mul_rows(fa, fb, out=np.empty_like(fa)))
    same(sqr_rows(a), sqr_rows(fa))
    same(sqr_rows(a), sqr_rows(fa, out=np.empty_like(fa)))
    same(recip_rows(w), recip_rows(fw))
    for z in range(6):
        same(pow_rows(a, z), pow_rows(fa, z))
    for law in _LAYOUT_LAWS:
        same(apply_law_rows(law, a), apply_law_rows(law, fa))
        same(apply_law_rows(law, a), apply_law_rows(law, fa, out=np.empty_like(fa)))
