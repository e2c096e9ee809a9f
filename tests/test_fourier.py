import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpgaps.errors import StripDomainError
from qpgaps.fourier import (FourierMap, matmul, matrix_exp, mul, strip_norm)

from oracles import fourier_from_function, mul_reference, trim_reference


def random_real_map(rng, band, period=1, scale=1.0):
    c = (rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1))
    c = scale * 0.5 * (c + c[::-1].conj())
    return FourierMap(c, period)


def test_eval_cosine_off_axis():
    c = FourierMap.cosine()
    assert c(1j * 0.1) == pytest.approx(math.cosh(0.2 * math.pi), abs=1e-12)


def test_eval_zero_and_harmonic():
    assert FourierMap(np.zeros(9, dtype=complex))(0.37) == 0
    assert FourierMap.harmonic(1)(0.25) == pytest.approx(1j, abs=1e-12)


def test_strip_norm_cosine():
    c = FourierMap.cosine()
    assert strip_norm(c, 0.0) == pytest.approx(1.0, abs=1e-12)
    h = 0.08
    assert strip_norm(c, h) == pytest.approx(math.cosh(2 * math.pi * h), rel=1e-9)


def test_strip_norm_scaling_homogeneity():
    rng = np.random.default_rng(3)
    m = random_real_map(rng, 6)
    lam = 3.7
    a = strip_norm(m, 0.03)
    b = strip_norm(lam * m, 0.03)
    assert b == pytest.approx(lam * a, rel=1e-12)


def test_product_to_sum_identity():
    c = FourierMap.cosine()
    p = mul(c, c)
    n = p.band_limit
    assert p.coeffs[n] == pytest.approx(0.5)
    assert p.coeffs[n + 2] == pytest.approx(0.25)
    assert p.coeffs[n - 2] == pytest.approx(0.25)
    assert abs(p.coeffs[n + 1]) < 1e-15


def test_average():
    assert FourierMap.cosine().average() == 0
    assert FourierMap.constant(2.5).average() == 2.5


def test_shift_phase():
    h = FourierMap.harmonic(1)
    s = h.shift(0.3)
    assert s.coeff(1) == pytest.approx(np.exp(2j * math.pi * 0.3))


def test_shift_roundtrip_exact():
    rng = np.random.default_rng(5)
    m = random_real_map(rng, 12)
    back = m.shift(0.377).shift(-0.377)
    assert np.abs(back.coeffs - m.coeffs).max() < 1e-15


def test_real_flag_propagation():
    rng = np.random.default_rng(7)
    a = random_real_map(rng, 5)
    b = random_real_map(rng, 8)
    assert a.is_real() and b.is_real()
    assert (a + b).is_real()
    assert mul(a, b).is_real()
    assert a.shift(0.123).is_real()
    assert not FourierMap.harmonic(2).is_real()


def test_submultiplicativity_on_strip():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = random_real_map(rng, 6)
        b = random_real_map(rng, 4)
        d = 0.02
        lhs = strip_norm(mul(a, b), d)
        rhs = strip_norm(a, d) * strip_norm(b, d)
        assert lhs <= rhs * (1.0 + 1e-9)


def test_period_mixing_is_an_error():
    a = FourierMap.cosine(period=1)
    b = FourierMap.cosine(period=2)
    with pytest.raises(ValueError):
        mul(a, b)
    with pytest.raises(ValueError):
        a + b


@pytest.mark.parametrize("shapes", [((), ()), ((), (2,)), ((2, 2), ()), ((2, 2), (2, 2)),
                                    ((2, 2), (2,))], ids=str)
def test_products_are_the_plain_convolutions(shapes):
    # entry by entry, the convolutions mul sums, in the same order
    rng = np.random.default_rng(17)
    a, b = (FourierMap(rng.normal(size=(2 * n + 1,) + s) + 1j * rng.normal(size=(2 * n + 1,) + s))
            for n, s in zip((3, 5), shapes))
    p = mul(a, b)
    if a.value_shape and b.value_shape:
        out_shape = b.value_shape
        def entry(i, *j):
            return (np.convolve(a.coeffs[:, i, 0], b.coeffs[(slice(None), 0) + j])
                    + np.convolve(a.coeffs[:, i, 1], b.coeffs[(slice(None), 1) + j]))
    else:
        scal, other = (a, b) if not a.value_shape else (b, a)
        out_shape = other.value_shape
        def entry(*idx):
            return np.convolve(scal.coeffs, other.coeffs[(slice(None),) + idx])
    ref = np.zeros((17,) + out_shape, dtype=complex)
    for idx in np.ndindex(out_shape):
        ref[(slice(None),) + idx] = entry(*idx)
    assert np.array_equal(p.coeffs, ref)


@pytest.mark.parametrize("right", [FourierMap.identity(), FourierMap.constant([1.0, 2.0])],
                         ids=["matrix", "vector"])
def test_vector_times_a_vector_or_matrix_is_rejected(right):
    with pytest.raises(ValueError):
        mul(FourierMap.constant([1.0, 2.0]), right)


SUPPORTED_PRODUCTS = (((), ()), ((), (2,)), ((), (2, 2)), ((2, 2), (2,)), ((2, 2), (2, 2)))


def _random_map(seed, band, shape, period):
    rng = np.random.default_rng(seed)
    size = (2 * band + 1,) + shape
    return FourierMap(rng.normal(size=size) + 1j * rng.normal(size=size), period)


@settings(max_examples=60, deadline=None)
@given(shapes=st.sampled_from(SUPPORTED_PRODUCTS), swap=st.booleans(),
       period=st.sampled_from((1, 2)), bands=st.tuples(st.integers(0, 6), st.integers(0, 6)),
       seed=st.integers(0, 2**32 - 1), shift=st.floats(0.0, 1.0))
def test_mul_is_the_reference_product(shapes, swap, period, bands, seed, shift):
    """Every supported shape pair (a scalar on either side): the one 2x2
    contraction equals the reference with its scalar branch exactly, and its
    grid values are the pointwise products of the factors' grid values to
    1e-12 of the product of the factors' l1 norms."""
    a, b = (_random_map(seed + i, n, s, period) for i, (n, s) in enumerate(zip(bands, shapes)))
    if swap and not shapes[0]:
        a, b = b, a
    p = mul(a, b)
    assert np.array_equal(p.coeffs, mul_reference(a, b).coeffs)
    assert p.period == period and p.value_shape == (b.value_shape or a.value_shape)
    m = 16 * period
    av, bv = a.sample(m, shift=shift), b.sample(m, shift=shift)
    if not a.value_shape or not b.value_shape:
        scal, other = (av, bv) if not a.value_shape else (bv, av)
        want = scal.reshape((m,) + (1,) * (other.ndim - 1)) * other
    else:
        want = np.einsum("nij,nj...->ni...", av, bv)
    got = p.sample(m, shift=shift)
    assert np.abs(got - want).max() <= 1e-12 * a.l1_norm() * b.l1_norm()


@settings(max_examples=30, deadline=None)
@given(shapes=st.sampled_from(SUPPORTED_PRODUCTS + (((2,), (2,)), ((2,), (2, 2)))),
       mismatch=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_mul_rejects_unsupported_shapes_and_mixed_periods(shapes, mismatch, seed):
    """A vector on the left of a vector or a matrix has no product, and
    factors of periods 1 and 2 must be lifted first: both raise ValueError,
    as in the reference."""
    supported = shapes in SUPPORTED_PRODUCTS
    if supported and not mismatch:
        return
    a = _random_map(seed, 2, shapes[0], 1)
    b = _random_map(seed + 1, 3, shapes[1], 2 if mismatch else 1)
    for product in (mul, mul_reference):
        with pytest.raises(ValueError):
            product(a, b)


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(((), (2,), (2, 2))), band=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1), tol=st.sampled_from((1e-17, 1e-16, 1e-13, 0.3)),
       zeros=st.sampled_from(("none", "fringe", "all")), nan=st.booleans())
def test_trim_is_the_loop_form(shape, band, seed, tol, zeros, nan):
    """The vectorized cut equals the loop that narrows the band while both
    outer coefficients stay <= tol * peak: coefficients spread over twenty
    decades, a zero fringe on one or both sides, an all-zero map, and a NaN
    anywhere, which stops the loop where it stands."""
    rng = np.random.default_rng(seed)
    size = (2 * band + 1,) + shape
    c = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.uniform(-20, 0, size)
    if zeros == "all":
        c[:] = 0.0
    elif zeros == "fringe":
        c[: rng.integers(0, band + 1)] = 0.0
        c[2 * band + 1 - rng.integers(0, band + 1):] = 0.0
    if nan:
        c[(rng.integers(0, 2 * band + 1),) + tuple(rng.integers(0, 2, len(shape)))] = np.nan
    m = FourierMap(c, period=int(rng.integers(1, 3)), entire=bool(rng.integers(0, 2)))
    got, want = m.trim(tol), trim_reference(m, tol)
    assert np.array_equal(got.coeffs, want.coeffs, equal_nan=True)
    assert (got.period, got.entire, got is m) == (want.period, want.entire, want is m)


def test_lift_collapse_roundtrip():
    c = FourierMap.cosine()
    l = c.lift2()
    assert l.period == 2
    assert l(0.4) == pytest.approx(c(0.4), abs=1e-14)
    back = l.collapse1()
    assert back.period == 1
    assert np.abs(back.coeffs - c.coeffs).max() < 1e-15


def test_collapse_rejects_genuinely_two_periodic():
    h = FourierMap.harmonic(1, period=2)          # e^{i pi x}
    with pytest.raises(ValueError):
        h.collapse1()


def test_matrix_product_and_adjugate():
    A = FourierMap.from_coeff_dict({0: np.array([[2.0, -1.0], [1.0, 0.0]])}, shape=(2, 2))
    sq = matmul(A, A)
    assert np.allclose(sq(0.0).real, [[3, -2], [2, -1]])
    inv = A.adjugate()
    assert np.allclose(matmul(inv, A)(0.2).real, np.eye(2), atol=1e-14)


def test_matrix_exp_matches_pointwise():
    import scipy.linalg
    base = np.array([[0.0, 1.0], [-0.3, 0.0]])
    m = FourierMap.from_coeff_dict(
        {1: 0.1 * base, -1: 0.1 * base}, shape=(2, 2)
    )
    E = matrix_exp(m)
    for x in (0.0, 0.21, 0.77):
        direct = scipy.linalg.expm(0.2 * math.cos(2 * math.pi * x) * base)
        assert np.abs(E(x) - direct).max() < 1e-13


def test_strip_error_carries_tail_bound():
    m = fourier_from_function(lambda x: 1.0 / (2.0 + math.cos(2 * math.pi * x)), 24)
    with pytest.raises(StripDomainError) as err:
        m(1j * 1.5)
    assert err.value.tail_bound > 0.0
    # far inside the reliable strip it evaluates fine
    assert abs(m(1j * 0.02)) > 0.0


def test_entire_trig_polynomials_evaluate_anywhere():
    c = FourierMap.cosine()
    assert abs(c(1j * 2.0)) == pytest.approx(math.cosh(4 * math.pi), rel=1e-12)


def test_vector_and_matrix_vector_product():
    A = FourierMap.from_coeff_dict({0: np.array([[0.0, -1.0], [1.0, 0.0]])}, shape=(2, 2))
    v = FourierMap.from_coeff_dict({0: np.array([1.0, 2.0])}, shape=(2,))
    out = mul(A, v)
    assert np.allclose(out(0.1).real, [-2.0, 1.0])


def test_text_roundtrip_scalar_and_matrix():
    rng = np.random.default_rng(17)
    s = random_real_map(rng, 4)
    back = FourierMap.from_text(s.to_text())
    assert np.abs(back.coeffs - s.coeffs).max() == 0.0
    A = FourierMap.from_coeff_dict(
        {1: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))},
        shape=(2, 2),
    )
    backA = FourierMap.from_text(A.to_text())
    assert np.abs(backA.coeffs - A.coeffs).max() == 0.0
    assert backA.period == A.period


def test_from_function_recovers_cosine_coefficients():
    f = fourier_from_function(lambda x: 2 * math.cos(2 * math.pi * x), 3)
    assert f.coeff(1) == pytest.approx(1.0, abs=1e-12)
    assert f.coeff(-1) == pytest.approx(1.0, abs=1e-12)
    assert abs(f.coeff(0)) < 1e-12


# ---- grid evaluation (sample) against the direct sum (__call__) ----------------

@st.composite
def grid_cases(draw):
    """A random map and a shifted grid on a line Im z = delta.

    The band limit is either below n_points / 2 (no two coefficients share a
    residue mod n_points) or above n_points (the fold overlaps).  delta is set
    through its depth 2 pi |delta| band / period, up to 700, where the largest
    term e^depth of either sum, unscaled, would be near overflow.
    """
    n_points = draw(st.integers(1, 64))
    if draw(st.booleans()):
        band = draw(st.integers(n_points + 1, 3 * n_points + 8))
    else:
        band = draw(st.integers(0, (n_points - 1) // 2))
    shape = draw(st.sampled_from([(), (2,), (2, 2)]))
    period = draw(st.sampled_from([1, 2]))
    depth = draw(st.floats(0.0, 700.0))
    sign = draw(st.sampled_from([1.0, -1.0]))
    delta = sign * depth * period / (2.0 * math.pi * max(band, 1))
    shift = draw(st.floats(-2.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = (2 * band + 1,) + shape
    coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return FourierMap(coeffs, period), n_points, delta, shift


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_sample_matches_direct_sum(case):
    m, n_points, delta, shift = case
    z = shift + np.arange(n_points) * (m.period / n_points) + 1j * delta
    fast = m.sample(n_points, delta, shift)
    direct = m(z)
    assert fast.shape == direct.shape == (n_points,) + m.value_shape
    # l1 norm of the coefficients as weighted on the line Im z = delta
    k = np.arange(-m.band_limit, m.band_limit + 1)
    weights = np.exp(-2.0 * math.pi * delta * k / m.period)
    scale = float((m.magnitudes() * weights).sum())
    assert np.abs(fast - direct).max() <= 1e-12 * scale


@settings(max_examples=50, deadline=None)
@given(depth=st.floats(0.21, 5.0), sign=st.sampled_from([1.0, -1.0]),
       n_points=st.integers(1, 256), shift=st.floats(-1.0, 1.0))
def test_sample_refuses_points_past_the_strip(depth, sign, n_points, shift):
    # 1 / (2 + cos 2 pi x) has poles at |Im z| = arccosh(2) / (2 pi) ~ 0.2096
    m = fourier_from_function(lambda x: 1.0 / (2.0 + math.cos(2 * math.pi * x)), 24)
    with pytest.raises(StripDomainError):
        m.sample(n_points, sign * depth, shift)
