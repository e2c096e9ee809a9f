import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpgaps import arithmetic as ar
from qpgaps import cocycle
from qpgaps.cocycle import (_angle_increments, _bump_weights, _propagate,
                            _real_values, _scan_directions, amo_potential, degree_of,
                            rotation_number, rotation_numbers, schrodinger_cocycle)
from qpgaps.errors import DegreeError
from qpgaps.fourier import FourierMap, matrix_exp, mul

from oracles import conjugate, entrywise_propagate, rotation_number_counting


def rotation_map(scale=1.0, period=1):
    """x -> R_{scale x}, the rotation by angle 2 pi scale x."""
    up = 0.5 * np.array([[1.0, 1j], [-1j, 1.0]])
    dn = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
    return FourierMap.from_coeff_dict({1: up, -1: dn}, period=period, shape=(2, 2))


def const_rotation(theta):
    c, s = math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta)
    return FourierMap.constant(np.array([[c, -s], [s, c]]))


def test_transfer_determinant_long_product(golden, amo):
    A = schrodinger_cocycle(0.25, amo, 1.0)
    M, ls = _propagate(A(golden.value * np.arange(1000)), np.eye(2))
    # det of the true product is det(M) e^{2 ls}
    assert abs(np.linalg.det(M) * math.exp(2 * ls) - 1.0) < 1e-10


def test_rotation_number_free_points(golden, amo):
    cases = [(0.0, 0.25), (-2.0, 0.5), (2 * math.cos(2 * math.pi * 0.3), 0.3)]
    for E, expect in cases:
        r = rotation_number(schrodinger_cocycle(0.0, amo, E), golden)
        assert r.value == pytest.approx(expect, abs=1e-6)
        assert r.error < 1e-6


def test_rotation_number_free_closed_form_grid(golden, amo):
    for E in np.linspace(-1.95, 1.95, 21):
        r = rotation_number(schrodinger_cocycle(0.0, amo, E), golden)
        assert r.value == pytest.approx(math.acos(E / 2) / (2 * math.pi), abs=1e-6)


def test_rotation_number_monotone_in_energy(golden, amo):
    vals = []
    for E in np.linspace(-2.6, 2.6, 27):
        r = rotation_number(schrodinger_cocycle(0.25, amo, float(E)), golden,
                            target_err=1e-6)
        vals.append((r.value, r.error))
    for (v1, e1), (v2, e2) in zip(vals, vals[1:]):
        assert v2 <= v1 + e1 + e2 + 1e-9


def test_rotation_number_agrees_with_counting(golden, amo):
    for E in (-1.54, 0.33, 1.8376):
        A = schrodinger_cocycle(0.25, amo, E)
        r1 = rotation_number(A, golden, target_err=1e-7)
        r2 = rotation_number_counting(A, golden, iterations=1 << 18)
        assert r1.value == pytest.approx(r2.value, abs=5e-5)


@pytest.mark.parametrize("route", [rotation_number, rotation_number_counting])
def test_rotation_routes_reject_complex_cocycle(golden, amo, route):
    """A complex energy, and the rotation by 2 pi x, a general cocycle, with
    1e-6 added to one entry of its e^{2 pi i x} coefficient only."""
    tilted = rotation_map()
    tilted.coeffs[2, 0, 1] += 1e-6
    for A in (schrodinger_cocycle(0.25, amo, 0.33 + 0.1j), tilted):
        with pytest.raises(ValueError, match="real cocycle"):
            route(A, golden)


def test_conjugate_by_identity(golden, amo):
    A = schrodinger_cocycle(0.25, amo, 1.0)
    B = conjugate(A, golden, FourierMap.identity())
    assert np.abs(B.trim(1e-14).coeffs - A.coeffs).max() < 1e-14


def test_conjugate_by_constant_rotation_keeps_rho(golden, amo):
    A = schrodinger_cocycle(0.0, amo, 0.7)
    r0 = rotation_number(A, golden)
    B = conjugate(A, golden, const_rotation(0.2))
    r1 = rotation_number(B, golden)
    assert r1.value == pytest.approx(r0.value, abs=1e-7)


def _circle_residual(x):
    v = x % 1.0
    return min(v, 1.0 - v)


def test_degree_two_conjugation_shifts_rho(golden, amo):
    A = schrodinger_cocycle(0.0, amo, 2 * math.cos(2 * math.pi * 0.23))
    rA = rotation_number(A, golden)
    B = conjugate(A, golden, rotation_map())
    rB = rotation_number(B, golden)
    best = min(
        _circle_residual(s1 * 2 * rA.value - s2 * 2 * rB.value - 2 * golden.value)
        for s1 in (1, -1) for s2 in (1, -1)
    )
    assert best <= 3 * (rA.error + rB.error) + 1e-9


def test_degree_of_constants_and_rotations():
    assert degree_of(FourierMap.identity()) == 0
    assert degree_of(const_rotation(0.37)) == 0
    assert degree_of(rotation_map()) == 2
    assert degree_of(rotation_map(period=2)) == 1   # half winding per unit length


def test_degree_errors_on_singular_map():
    Z = FourierMap.constant(np.zeros((2, 2)))
    with pytest.raises(DegreeError):
        degree_of(Z)


def test_near_rotation_linear_response(golden):
    """|rho(alpha, A) - theta| scales linearly in the distance to R_theta.

    The first-order response is the mean rotational part of the generator, so
    the generator needs a constant component along [[0,-1],[1,0]].
    """
    theta = 0.21
    sym = np.array([[0.0, 1.0], [1.0, 0.0]])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    gen = FourierMap.from_coeff_dict(
        {0: 0.7 * rot, 1: 0.5 * sym, -1: 0.5 * sym}, shape=(2, 2)
    )
    devs, dists = [], []
    for eps in (1e-2, 1e-3, 1e-4):
        A = mul(const_rotation(theta), matrix_exp(eps * gen))
        dist = float(np.abs(A.sample(512) - const_rotation(theta)(0.0)).max())
        r = rotation_number(A, golden, target_err=1e-10)
        devs.append(abs(r.value - theta))
        dists.append(dist)
    slope = np.polyfit(np.log(dists), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


# Orbit lengths around the renormalization period (32), a prime, a non-square
# and one just past a square, where the blocks of the scan do not fill evenly.
ORBIT_LENGTHS = [1, 2, 31, 32, 33, 97, 1000, 4097]


def plain_directions(steps, start=(1.0, 0.0)):
    """Reference: start (default (1, 0)) pushed through the steps one at a
    time in extended precision (np.longdouble), normalized after every step,
    returned in double.  A double push can itself drift past the 1e-10 bound
    of the scan tests, 1.56e-10 rad at n = 1000, seed 1413866, random start."""
    steps = steps.astype(np.longdouble)
    v = np.broadcast_to(np.asarray(start, dtype=np.longdouble), steps.shape[1:-1])
    out = [v]
    for M in steps:
        v = np.einsum("...ij,...j->...i", M, v)
        v = v / np.sqrt((v * v).sum(axis=-1, keepdims=True))
        out.append(v)
    return np.array(out, dtype=float)


def plain_product(A, freq, k, x):
    """Reference: A(x+(k-1)a) ... A(x), one evaluation and one product per
    step, normalized after every step; returns (matrix, log scale)."""
    P = np.broadcast_to(np.eye(2, dtype=complex), np.shape(x) + (2, 2))
    logs = np.zeros(np.shape(x))
    for j in range(k):
        P = A(np.asarray(x) + j * freq.value) @ P
        s = np.linalg.norm(P, axis=(-2, -1))
        P = P / s[..., None, None]
        logs = logs + np.log(s)
    return P, logs


def random_sl2r(rng, shape):
    """R(a) diag(e^t, e^-t) R(b) with t up to 1: elliptic to strongly hyperbolic."""
    def rot(a):
        return np.stack([np.stack([np.cos(a), -np.sin(a)], -1),
                         np.stack([np.sin(a), np.cos(a)], -1)], -2)
    t = rng.uniform(0.0, 1.0, shape)
    diag = np.zeros(shape + (2, 2))
    diag[..., 0, 0], diag[..., 1, 1] = np.exp(t), np.exp(-t)
    a, b = rng.uniform(0, 2 * math.pi, (2,) + shape)
    return rot(a) @ diag @ rot(b)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(ORBIT_LENGTHS), batch=st.sampled_from([(), (3,)]),
       seed=st.integers(0, 2**32 - 1))
# a block start near a total's contracting direction, magnified ~1.5e4 by the
# next 24 steps: 4.7e-10 rad off with double-precision block totals
@example(n=1000, batch=(3,), seed=1413866)
def test_scan_directions_match_plain_product(n, batch, seed):
    steps = random_sl2r(np.random.default_rng(seed), (n,) + batch)
    got = _scan_directions(steps)
    ref = plain_directions(steps)
    assert got.shape == ref.shape == (n + 1,) + batch + (2,)
    # directions as lines, mod pi
    d = np.arctan2(got[..., 1], got[..., 0]) - np.arctan2(ref[..., 1], ref[..., 0])
    assert np.abs((d + math.pi / 2) % math.pi - math.pi / 2).max() <= 1e-10
    # the counting route reads the sign of the first component; it is fixed
    # wherever that component is not lost in rounding
    clear = np.abs(ref[..., 0]) > 1e-9
    assert np.array_equal(np.sign(got[..., 0])[clear], np.sign(ref[..., 0])[clear])


@settings(max_examples=20, deadline=None)
@given(k=st.sampled_from(ORBIT_LENGTHS), batch=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_transfer_matches_plain_product(golden, k, batch, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    coeffs *= np.array([0.25, 0.5, 1.0, 0.5, 0.25])[:, None, None]
    A = FourierMap(coeffs)
    x = rng.uniform(0, 1, 3) if batch else float(rng.uniform(0, 1))
    steps = A(np.add.outer(golden.value * np.arange(k), x))
    M, ls = _propagate(steps, np.broadcast_to(np.eye(2), steps.shape[1:]))
    ref, ref_ls = plain_product(A, golden, k, x)
    assert np.shape(M) == np.shape(ref) and np.shape(ls) == np.shape(ref_ls)
    got = M * np.exp(np.asarray(ls) - ref_ls)[..., None, None]
    assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


@settings(max_examples=100, deadline=None)
@given(e1=st.floats(-3.2, 3.2, exclude_min=True, exclude_max=True), u=st.floats(-9.0, 0.0))
def test_rotation_number_is_nonincreasing_in_energy(golden, amo, e1, u):
    """rho(E1) >= rho(E2) for E1 < E2, up to the bar 3 (err1 + err2) that
    rotation_shift_check uses (AMO, lambda = 0.25, golden mean)."""
    e2 = e1 + 10.0**u
    r1 = rotation_number(schrodinger_cocycle(0.25, amo, e1), golden, target_err=1e-6)
    r2 = rotation_number(schrodinger_cocycle(0.25, amo, e2), golden, target_err=1e-6)
    assert r1.value >= r2.value - 3.0 * (r1.error + r2.error)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(ORBIT_LENGTHS), batch=st.sampled_from([(), (3,)]),
       seed=st.integers(0, 2**32 - 1))
# a random start whose pushes through the blocks, when run in double from the
# extended-precision block starts, drifted 1.4e-10 rad from the plain push
@example(n=4097, batch=(3,), seed=65537)
# a random start where a double reference push is itself 1.56e-10 rad off
@example(n=1000, batch=(3,), seed=1413866)
def test_scan_directions_from_a_start_match_plain_push(n, batch, seed):
    """The scan an extended orbit resumes from: a random start (any length,
    not a unit vector) pushed through the steps."""
    rng = np.random.default_rng(seed)
    steps = random_sl2r(rng, (n,) + batch)
    start = rng.normal(size=batch + (2,)) * 10.0 ** rng.uniform(-3, 3)
    got = _scan_directions(steps, start)
    ref = plain_directions(steps, start)
    assert got.shape == ref.shape == (n + 1,) + batch + (2,)
    assert np.array_equal(got[0], start)
    d = np.arctan2(got[..., 1], got[..., 0]) - np.arctan2(ref[..., 1], ref[..., 0])
    assert np.abs((d + math.pi / 2) % math.pi - math.pi / 2).max() <= 1e-10
    # positive multiples: the directions agree as vectors, not only as lines
    assert (np.einsum("...i,...i->...", got, ref) > 0.0).all()


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(ORBIT_LENGTHS), batch=st.sampled_from([(), (3,)]),
       seed=st.integers(0, 2**32 - 1))
def test_schrodinger_scan_equals_scan_of_its_general_entries(n, batch, seed):
    """(x, y) -> (a x - y, x) is the general update by the steps
    [[a, -1], [1, 0]], whose products by -1, 1 and 0 are exact, so both give
    the same bits."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0, 3.0, (n,) + batch)
    start = rng.normal(size=batch + (2,)) * 10.0 ** rng.uniform(-3, 3)
    general = np.stack((a, -np.ones_like(a), np.ones_like(a), np.zeros_like(a)), axis=-1)
    general = general.reshape(a.shape + (2, 2))
    assert np.array_equal(_scan_directions(a, start), _scan_directions(general, start))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 100), batch=st.sampled_from([(), (3,)]), m=st.sampled_from([1, 2]),
       dtype=st.sampled_from([np.float64, np.longdouble]), with_out=st.booleans(),
       zeros=st.sampled_from([0.0, 0.3, 0.6]), seed=st.integers(0, 2**32 - 1))
@example(n=64, batch=(3,), m=2, dtype=np.float64, with_out=True, zeros=0.6, seed=0)
def test_general_steps_match_the_entrywise_update(n, batch, m, dtype, with_out, zeros, seed):
    """One batched matmul per general step gives the entry-wise update's
    numbers, V, log-scale and out, bit for bit: double and longdouble
    stacks pushing an extended-precision V, as every scan carries it, with
    entries of random sign and size and exact zeros of both signs among
    them.  The one difference allowed is the sign of a zero: matmul sums
    from +0, so a sum (-0) + (-0) comes out +0."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        v = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
        return np.where(rng.uniform(size=shape) < zeros, np.copysign(0.0, v), v)

    steps = draw((n,) + batch + (2, 2)).astype(dtype)
    V = draw(batch + (2, m)).astype(np.longdouble)
    out, ref_out = (np.empty((n,) + batch + (2, m), dtype) for _ in range(2))
    got = _propagate(steps, V, out=out if with_out else None)
    ref = entrywise_propagate(steps, V, out=ref_out if with_out else None)
    pairs = list(zip(got, ref)) + ([(out, ref_out)] if with_out else [])
    for g, r in pairs:
        assert g.dtype == r.dtype and g.shape == r.shape
        assert np.array_equal(g, r)
        flipped = np.signbit(g) != np.signbit(r)
        assert (r[flipped] == 0.0).all() and not np.signbit(g[flipped]).any()


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
def test_a_non_finite_energy_is_named_before_any_orbit(golden, amo, monkeypatch, energy):
    def no_scan(*args):
        raise AssertionError("an orbit was scanned")

    monkeypatch.setattr(cocycle, "_scan_directions", no_scan)
    with pytest.raises(ValueError, match=f"finite energy, got E = {energy!r}$"):
        rotation_numbers(0.25, amo, golden, [0.5, energy])


def test_an_overflowing_orbit_is_named_at_its_estimate(golden, amo):
    """|E|^32 overflows extended precision between two renormalizations, so
    the increments of E = 1e200 are not finite; E = 1e154 still measures."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"rotation number of E = 1e\+200: "):
            rotation_numbers(0.25, amo, golden, [0.5, 1e200])
        assert rotation_numbers(0.25, amo, golden, [1e154])[0].value <= 1e-15


@pytest.mark.parametrize("energy", [1e11, -1e11])
def test_a_huge_energy_scans_to_a_finite_trail(golden, amo, energy):
    """Between two renormalizations a vector grows by up to (|E| + 1)^31,
    which leaves double range once |E| passes about 1e10 (4096 steps at
    E = 1e11 left 630 non-finite trail entries).  With a double out the
    push renormalizes often enough to keep that growth below 2^1000, so both
    stack forms scan to a finite trail with the step-by-step push's
    directions."""
    a = energy - _real_values(0.25, amo, golden.value * np.arange(4096))
    general = np.stack((a, -np.ones_like(a), np.ones_like(a), np.zeros_like(a)), axis=-1)
    general = general.reshape(a.shape + (2, 2))
    ref = plain_directions(general)
    for steps in (a, general):
        got = _scan_directions(steps)
        assert np.isfinite(got).all()
        d = np.arctan2(got[:, 1], got[:, 0]) - np.arctan2(ref[:, 1], ref[:, 0])
        assert np.abs((d + math.pi / 2) % math.pi - math.pi / 2).max() <= 1e-10
        assert (np.einsum("...i,...i->...", got, ref) > 0.0).all()


def plain_angle_increments(steps, w):
    """Reference: a transposed copy of the directions, np.diff of their
    arctan2, the wrap (d + pi) % 2 pi - pi, then the forward lift of the
    steps with trace <= -2."""
    w = w.transpose(1, 2, 0).copy()
    d = np.diff(np.arctan2(w[:, 1], w[:, 0]))
    d = (d + math.pi) % (2.0 * math.pi) - math.pi
    neg = (steps[..., 0, 0] + steps[..., 1, 1] if steps.ndim > 2 else steps).T <= -2.0
    d[neg] = d[neg] % (2.0 * math.pi)
    return d


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(ORBIT_LENGTHS), k=st.sampled_from([1, 3]),
       schrodinger=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_angle_increments_equal_the_plain_formula(n, k, schrodinger, seed):
    """Bit for bit, on one cocycle (a lone long orbit's scan) and on three:
    Schrodinger stacks with a in [-3, 3], or random SL(2,R) steps with random
    signs, so traces of both signs and below -2 occur."""
    rng = np.random.default_rng(seed)
    if schrodinger:
        steps = rng.uniform(-3.0, 3.0, (n, k))
    else:
        signs = rng.choice((-1.0, 1.0), (n, k, 1, 1))
        steps = signs * random_sl2r(rng, (n, k))
    w = _scan_directions(steps, rng.normal(size=(k, 2)))
    got = _angle_increments(steps, w)
    assert got.flags.c_contiguous
    assert np.array_equal(got, plain_angle_increments(steps, w))


def test_angle_increments_at_the_wrap_boundaries_equal_the_plain_formula():
    """Directions at angles +-pi, +-0, +-pi/2 and +-(pi - 2 ulp), each
    followed by each, so consecutive angles differ by exactly +-pi, +-0 and
    +-(2 pi - ulp), the ends of the wrap's branches; bit for bit, with the
    sign of zero, for steps of trace 0 and of trace -3 (forward lift)."""
    tiny = 2.0 * np.spacing(math.pi)
    dirs = np.array([(-1.0, 0.0), (-1.0, -0.0), (1.0, 0.0), (1.0, -0.0),
                     (0.0, 1.0), (0.0, -1.0), (-1.0, tiny), (-1.0, -tiny)])
    order = [i for a in range(len(dirs)) for b in range(len(dirs)) for i in (a, b)]
    w = np.repeat(dirs[order][:, np.newaxis], 2, axis=1)
    raw = set(np.diff(np.arctan2(w[:, 0, 1], w[:, 0, 0])).tolist())
    below = float(np.nextafter(2.0 * math.pi, 0.0))
    assert {math.pi, -math.pi, 0.0, below, -below} <= raw
    steps = np.zeros((len(order) - 1, 2))
    steps[:, 1] = -3.0
    got = _angle_increments(steps, w)
    assert np.array_equal(got.view(np.int64), plain_angle_increments(steps, w).view(np.int64))


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from(ORBIT_LENGTHS + [1 << 20]))
def test_bump_weights_equal_the_plain_formula(n):
    t = (np.arange(n) + 0.5) / n
    assert np.array_equal(_bump_weights(n), np.exp(-1.0 / (t * (1.0 - t))))


@settings(max_examples=30, deadline=None)
@given(band=st.integers(1, 3), shape=st.sampled_from([(), (2, 2)]),
       seed=st.integers(0, 2**32 - 1))
def test_real_orbit_potential_matches_the_complex_evaluation(golden, band, shape, seed):
    """lam f summed in real arithmetic on the orbit, out to 2^20 alpha, is the
    real part of the complex evaluation (random real trigonometric f, scalar
    or 2x2)."""
    rng = np.random.default_rng(seed)
    coeffs = {0: rng.normal(size=shape)}
    for k in range(1, band + 1):
        ck = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        coeffs[k], coeffs[-k] = ck, np.conj(ck)
    f = FourierMap.from_coeff_dict(coeffs, shape=shape)
    lam = rng.uniform(0.01, 3.0)
    x = golden.value * np.concatenate([np.arange(256), (1 << 20) - np.arange(256)])
    got = _real_values(lam, f, x)
    assert got.shape == x.shape + shape
    assert np.abs(got - (lam * f(x)).real).max() <= 1e-13 * lam * np.abs(f.coeffs).sum()


@pytest.mark.parametrize("delta, real", [(1j, False), (1e-3, False), (1e-8j, False),
                                         (1e-12j, True), (0.0, True)])
def test_rotation_numbers_reject_a_potential_not_real_on_the_axis(golden, delta, real):
    """f = 2 cos 2 pi x + delta e^{-2 pi i x} has Im f up to |delta|: the
    batched route and both general routes run one check, the coefficient
    bound on Im f against 1e-9 of the values, and give one verdict."""
    f = FourierMap.from_coeff_dict({1: 1.0, -1: 1.0 + delta})
    A = schrodinger_cocycle(0.25, f, 0.33)
    routes = [lambda: rotation_numbers(0.25, f, golden, [0.33], max_iterations=1024),
              lambda: rotation_number(A, golden, max_iterations=1024),
              lambda: rotation_number_counting(A, golden, iterations=1024)]
    for route in routes:
        if real:
            route()
        else:
            with pytest.raises(ValueError, match="real cocycle"):
                route()


@settings(max_examples=15, deadline=None)
@given(energies=st.lists(st.floats(-3.2, 3.2), min_size=1, max_size=6),
       order=st.randoms(use_true_random=False),
       budget=st.sampled_from([1 << 12, 1 << 13, 1 << 14, 1 << 16]))
def test_rotation_numbers_batch_equals_single_energy_calls(golden, amo, energies, order,
                                                          budget):
    """A batch gives, bit for bit, what each energy gives alone, whatever the
    order of the energies and however many orbit steps are scanned at once."""
    alone = {E: rotation_numbers(0.25, amo, golden, [E], target_err=1e-7)[0]
             for E in energies}
    shuffled = list(energies)
    order.shuffle(shuffled)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycle, "ROTATION_BATCH_STEPS", budget)
        batch = rotation_numbers(0.25, amo, golden, shuffled, target_err=1e-7)
    assert batch == [alone[E] for E in shuffled]


@settings(max_examples=15, deadline=None)
@given(energies=st.lists(st.floats(-3.2, 3.2), min_size=1, max_size=4))
def test_rotation_numbers_match_rotation_number(golden, amo, energies):
    """The batched Schrodinger route agrees with the general cocycle route."""
    batch = rotation_numbers(0.25, amo, golden, energies, target_err=1e-7)
    for E, r in zip(energies, batch):
        ref = rotation_number(schrodinger_cocycle(0.25, amo, E), golden, target_err=1e-7)
        assert abs(r.value - ref.value) <= 1e-13
        assert (r.iterations, r.flagged) == (ref.iterations, ref.flagged)


def test_extended_orbit_matches_fixed_length_run(golden, amo, monkeypatch):
    """E = 1.9582425 escalates 4096 -> 2^20 at target 1e-8; the orbit extended
    segment by segment gives what one 2^20-step scan gives."""
    r, = rotation_numbers(0.25, amo, golden, [1.9582425], target_err=1e-8)
    assert r.iterations == 1 << 20 and not r.flagged
    monkeypatch.setattr(cocycle, "ROTATION_START_ITERATIONS", 1 << 20)
    fixed = rotation_number(schrodinger_cocycle(0.25, amo, 1.9582425), golden)
    assert abs(r.value - fixed.value) <= 1e-13


def test_rotation_number_needs_two_steps(golden, amo):
    A = schrodinger_cocycle(0.25, amo, 0.33)
    with pytest.raises(ValueError, match="at least 2"):
        rotation_number(A, golden, max_iterations=1)
    with pytest.raises(ValueError, match="at least 2"):
        rotation_numbers(0.25, amo, golden, [0.33], max_iterations=1)
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            rotation_number_counting(A, golden, iterations=n)


def test_first_orbit_respects_max_iterations(golden, amo):
    A = schrodinger_cocycle(0.25, amo, 1.9582425)
    r = rotation_number(A, golden, target_err=1e-12, max_iterations=1024)
    assert r.iterations == 1024 and r.flagged


def test_extension_stops_at_max_iterations(golden, amo):
    # the x4 ladder from 4096 passes 2^17 on its way from 2^16 to 2^18; the
    # cap holds the orbit at 2^17 and flags the result still above target
    r, = rotation_numbers(0.25, amo, golden, [1.9582425], target_err=1e-8,
                          max_iterations=1 << 17)
    assert r.iterations == 1 << 17
    assert r.flagged


def test_long_orbit_pair_peak_memory_and_bits():
    """The m = 7 bench dossier's shift check (golden mean, lambda = 0.25,
    AMO): E stops at 4096 steps and E + eps_m runs to the 2^20-step cap,
    whose last extension, 786,432 steps, is one scan.  Its traced peak was
    66.1 MB with every scan buffer held until the next scan, 41.96 MB with
    each freed after its last read, 33.57 MB with lam f sampled per scan
    instead of kept per orbit segment until the call returns.  A fresh interpreter per BLAS thread
    count: the weighted sums run in one fixed order, so one and two threads
    give the same bits (a BLAS ddot splits a 2^20-term sum between threads
    and moved the last bits of rho)."""
    script = ("import json, tracemalloc\n"
              "from qpgaps import arithmetic, cocycle\n"
              "freq, f = arithmetic.golden_mean(40), cocycle.amo_potential()\n"
              "tracemalloc.start()\n"
              "rs = cocycle.rotation_numbers(0.25, f, freq, [1.143504266101434,\n"
              "                              1.143504266101434 - 1.3592896732232602e-05])\n"
              "print(json.dumps([tracemalloc.get_traced_memory()[1],\n"
              "                  [[r.value, r.error, r.iterations, r.flagged] for r in rs]]))\n")
    src = os.path.dirname(os.path.dirname(cocycle.__file__))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        peak, results = json.loads(done.stdout.splitlines()[-1])
        assert peak <= 1.05 * 33.57e6
        assert results == [[0.16311860533113243, 3.736988024582999e-09, 4096, False],
                           [0.16312013592458197, 7.847624114432072e-08, 1048576, True]]
