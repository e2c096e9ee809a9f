"""Independent reference computations that the tests compare the package
against.  None of them runs in the pipeline or the command line; each takes
a second route to a number the package computes, or builds test data."""

import math

import numpy as np
from hypothesis import strategies as st
from mpmath import mp, mpf

from qpgaps.arithmetic import DEFAULT_DPS, _ratio, norm_dist
from qpgaps.cocycle import (RENORM_EVERY, RotationResult, _propagate, _real_values,
                            _scan_directions, rotation_numbers)
from qpgaps.duality import _dual_banded
from qpgaps.fourier import FourierMap, assemble, matmul
from qpgaps.reducibility import _conjugated
from qpgaps.spectrum import bracket_interval, floquet_edges


def hausdorff_distance(bands_a, bands_b):
    """Hausdorff distance between two finite unions of closed intervals."""

    def dist_point(x, bands):
        return min(
            0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
            for lo, hi in bands
        )

    def one_sided(a_bands, b_bands):
        worst = 0.0
        cuts = sorted({e for lo, hi in b_bands for e in (lo, hi)})
        for lo, hi in a_bands:
            cands = [lo, hi]
            for i in range(len(cuts) - 1):
                m = 0.5 * (cuts[i] + cuts[i + 1])
                if lo < m < hi:
                    cands.append(m)
            worst = max(worst, max(dist_point(x, b_bands) for x in cands))
        return worst

    return max(one_sided(bands_a, bands_b), one_sided(bands_b, bands_a))


def dual_ids(lam, f, freq, energy, trunc=256, theta_samples=32):
    """Eigenvalue-counting function of the dual operator, averaged over theta."""
    import scipy.linalg
    size = 2 * trunc + 1
    total = 0
    for j in range(theta_samples):
        th = (j + 0.5) / theta_samples
        ab = _dual_banded(lam, f, freq, th, trunc)
        vals = scipy.linalg.eig_banded(ab, lower=False, select="v",
                                       select_range=(-1e6, energy), eigvals_only=True)
        total += len(vals)
    return total / (size * theta_samples)


def brute_force_beta(freq, k_lo, k_max):
    """max of -ln||k alpha||/k over every integer k in [k_lo, k_max]."""
    best = -math.inf
    arg = None
    for k in range(k_lo, k_max + 1):
        r = _ratio(freq, k)
        if r > best:
            best, arg = r, k
    return best, arg


def growth_ratio_table(freq):
    """Per growth level n of a synthesized frequency: (n, q_n, ln(q_{n+1})/q_n)."""
    qs = freq.denominators()
    return [
        (n, qs[n], math.log(qs[n + 1]) / qs[n])
        for n in freq.growth_levels
        if n + 1 < len(qs)
    ]


def entrywise_propagate(steps, V, out=None):
    """_propagate on a general (n, *batch, 2, 2) stack as the entry-wise row
    update (x, y) -> (a x + b y, c x + d y), with the engine's
    renormalization: the general branch as it was before its steps became
    batched matmuls."""
    a, b, c, d = np.moveaxis(steps, (-2, -1), (0, 1)).reshape((4,) + steps.shape[:-2])
    x, y = np.moveaxis(V, (-2, -1), (0, 1))      # the rows, as (m, *batch)
    rows_out = None if out is None else np.moveaxis(out, (-2, -1), (1, 2))
    log_scale = np.zeros(V.shape[:-2])
    n = len(steps)
    for j in range(n):
        x, y = a[j] * x + b[j] * y, c[j] * x + d[j] * y
        if (j + 1) % RENORM_EVERY == 0 or j == n - 1:
            s = np.maximum(np.abs(x).max(axis=0), np.abs(y).max(axis=0))
            s = np.where(s == 0.0, 1.0, s)
            x, y = x / s, y / s
            log_scale += np.log(s)
        if out is not None:
            rows_out[j, 0], rows_out[j, 1] = x, y
    return np.moveaxis(np.stack((x, y), axis=-1), 0, -1), log_scale


def holder_check_measuring_all(lam, f, freq, e_pairs, seed, rho_target_err):
    """holder_check's maximum quotient and its pair, with the same draw but
    every energy measured by rotation_numbers, the ones past the norm bound
    included: the body holder_check had before it took rho = 0 or 1/2 there."""
    rng = np.random.default_rng(seed)
    lo, hi = bracket_interval(lam, f)
    energies = []
    for _ in range(e_pairs):
        e1 = rng.uniform(lo, hi)
        de = 10.0 ** rng.uniform(math.log10(1e-7), math.log10(1e-1))
        energies += [e1, e1 + de * rng.choice((-1.0, 1.0))]
    rhos = rotation_numbers(lam, f, freq, energies, target_err=rho_target_err)
    best = 0.0
    arg = (math.nan, math.nan)
    for e1, e2, r1, r2 in zip(energies[::2], energies[1::2], rhos[::2], rhos[1::2]):
        quot = abs(r1.value - r2.value) / math.sqrt(abs(e2 - e1))
        if quot > best:
            best, arg = quot, (e1, e2)
    return best, arg


def rotation_number_counting(A, freq, iterations=1 << 18):
    """Rotation number through eigenvalue counting, as an independent route.

    The leading principal minors of the Dirichlet box of size n satisfy the
    same three-term recursion as the transfer matrices, so the sign changes of
    the first component of A_k(x)(1,0) count the eigenvalues below E; the
    integrated density of states is that count over n and rho = (1 - N)/2.
    Integer-valued counting is immune to any angle-lift convention, which is
    what makes this a genuine cross-check of rotation_number.  It evaluates
    its steps through the package's one real evaluator, so it shares that
    evaluator's check that the cocycle is real on the axis.  Fewer than 2
    steps raise ValueError: the error bar compares against the first half.
    """
    n = int(iterations)
    if n < 2:
        raise ValueError(f"rotation number needs at least 2 orbit steps, got {n}")
    w = _scan_directions(_real_values(1.0, A, freq.value * np.arange(n)))
    signs = np.sign(w[:, 0])
    signs[signs == 0.0] = 1.0
    flips = np.count_nonzero(signs[1:] != signs[:-1])
    half = np.count_nonzero(signs[1 : n // 2 + 1] != signs[: n // 2])
    # sign agreements of det(H_k - E) are sign changes of det(E - H_k),
    # so flips/n = 1 - N(E) and rho = (1 - N)/2 = flips/(2n)
    rho = flips / (2.0 * n)
    rho_half = half / (2.0 * (n // 2))
    err = max(abs(rho - rho_half), 1.0 / n)
    return RotationResult(value=norm_dist(rho), error=err, iterations=n, flagged=False)


def first_order_log_term(averages, mu):
    """Explicit first-order term of log(const) in the energy perturbation.

    With r11 = [R11^2], r1112 = [R11 R12], r12 = [R12^2]:
    the trace-free matrix whose exponential matches P + eps [pert] through
    first order.  The (1,2) entry carries the extra mu^2 r11 / 6 that the
    exact derivative of the exponential requires.
    """
    r11, r1112, r12 = averages
    return np.array([
        [-0.5 * mu * r11 + r1112, r12 - mu * r1112 + mu**2 * r11 / 6.0],
        [-r11, 0.5 * mu * r11 - r1112],
    ])


def fourier_from_function(fn, band_limit):
    """Coefficients of a smooth 1-periodic function via an FFT on a grid
    oversampled four times (see FourierMap.from_samples)."""
    m = 1
    while m < 4 * (2 * band_limit + 1):
        m *= 2
    vals = np.asarray([fn(xi) for xi in np.arange(m) / m], dtype=complex)
    return FourierMap.from_samples(vals, band_limit, 1)


def mul_reference(a, b):
    """Pointwise product of two Fourier maps as exact coefficient
    convolution, with a branch of its own for a scalar operand (one
    convolution per entry of the other operand) next to the 2x2 contraction
    of matrix@matrix and matrix@vector."""
    if a.period != b.period:
        raise ValueError("period mismatch: lift one operand first")
    if a.value_shape and not b.value_shape:
        a, b = b, a
    n_out = a.band_limit + b.band_limit
    if not a.value_shape:
        flat = b.coeffs.reshape(b.coeffs.shape[0], -1)
        cols = [np.convolve(a.coeffs, flat[:, j]) for j in range(flat.shape[1])]
        out = np.stack(cols, axis=1)
    elif a.is_matrix and (b.is_matrix or b.is_vector):
        bm = b.coeffs.reshape(b.coeffs.shape[0], 2, -1)
        out = np.zeros((2 * n_out + 1, 2, bm.shape[2]), dtype=complex)
        for i in range(2):
            for j in range(bm.shape[2]):
                out[:, i, j] = sum(np.convolve(a.coeffs[:, i, l], bm[:, l, j])
                                   for l in range(2))
    else:
        raise ValueError(f"unsupported product shapes {a.value_shape} x {b.value_shape}")
    return FourierMap(out.reshape((2 * n_out + 1,) + b.value_shape), a.period,
                      entire=a.entire and b.entire)


def mu_iterate_reference(R, A, alpha, sign):
    """mu from the corner of R^{-1}(x + l alpha) A_l(x) R(x), l = 64, on 1024
    grid points, with the steps of A_l taken as 64 FFT grid samples of the
    2x2 cocycle map A and pushed through the orbit engine as a general stack
    of 2x2 steps."""
    l, grid = 64, 1024
    steps = np.stack([A.sample(A.period * grid, shift=j * alpha)[:grid].real
                      for j in range(l)])
    P, logs = _propagate(steps, np.broadcast_to(np.eye(2), (grid, 2, 2)))
    corner = (np.exp(logs) * _conjugated(R, P, l * alpha)[:, 0, 1]).mean()
    return float(corner / (l * sign ** (l - 1)))


def signed_fracs_reference(freq, ks, extra_dps=0):
    """k alpha - round(k alpha) for each k in ks, as floats, computed in
    mpmath with value_str's length plus ten digits, and extra_dps more (with
    none, the body that Frequency.signed_fracs had before it went to integer
    arithmetic)."""
    with mp.workdps(max(DEFAULT_DPS, len(freq.value_str) + 10) + extra_dps):
        alpha = mpf(freq.value_str)
        return [float(t - mp.nint(t)) for t in (alpha * k for k in ks)]


def trim_reference(m, tol):
    """FourierMap.trim as a loop: narrow the band while both outer
    coefficients stay <= tol * peak."""
    mags = m.magnitudes()
    peak = mags.max()
    if peak == 0.0:
        return FourierMap(m.coeffs[:1].copy() * 0, m.period)
    n = m.band_limit
    keep = n
    while keep > 0 and mags[n + keep] <= tol * peak and mags[n - keep] <= tol * peak:
        keep -= 1
    if keep == n:
        return m
    return FourierMap(m.coeffs[n - keep : n + keep + 1].copy(), m.period, entire=m.entire)


def conjugated_reference(R, A, alpha):
    """The full conjugated cocycle adj(R(x + alpha)) A(x) R(x) as three 2x2
    map products, A lifted to R's period, untrimmed."""
    return matmul(R.shift(alpha).adjugate(), A.lift2() if R.period == 2 else A, R)


def sheared_reference(R, phi):
    """R [[1, phi], [0, 1]] as a 2x2 map product, the shear lifted to R's period."""
    shear = assemble([[1.0, phi], [0.0, 1.0]], 1, phi.entire)
    return matmul(R, shear.lift2() if R.period == 2 else shear)


def conjugate(A, freq, R):
    """The step map R^{-1}(x+alpha) A(x) R(x) of the conjugated cocycle, over
    alpha = freq.value.

    R is a matrix map with det == 1 (its adjugate is then the pointwise
    inverse).  Raises when det R strays from 1 on the axis.
    """
    dets = np.linalg.det(R.sample(512))
    if np.abs(dets - 1.0).max() > 1e-8:
        raise ValueError(f"conjugacy determinant strays from 1 by {np.abs(dets-1).max():.2e}")
    if R.period == 2 and A.period == 1:
        A = A.lift2()
    elif R.period == 1 and A.period == 2:
        R = R.lift2()
    B = matmul(R.shift(freq.value).adjugate(), A, R).trim(1e-16)
    if B.period == 2:
        try:
            B = B.collapse1(tol=1e-9)
        except ValueError:
            pass
    return B


@st.composite
def real_trig_potentials(draw):
    """A real trigonometric polynomial of degree at most 3; an even one
    (real c_k = c_-k) when the drawn flag is set."""
    part = st.floats(-1.0, 1.0)
    even = draw(st.booleans())
    coeffs = {0: complex(draw(part))}
    for k in range(1, draw(st.integers(1, 3)) + 1):
        coeffs[k] = complex(draw(part), 0.0 if even else draw(part))
        coeffs[-k] = coeffs[k].conjugate()
    return FourierMap.from_coeff_dict(coeffs)


def amo_gap_law(lam, m, alpha):
    """Leading-order width of the AMO gap with label m at weak coupling,
    2 lam^m / prod_{k=1}^{m-1} 4 |sin pi k alpha sin pi (m-k) alpha|: the one
    path of m harmonic steps from offset 0 to offset m, each intermediate
    plane wave k off the degenerate energy -2 cos pi m alpha by
    4 sin pi k alpha sin pi (m-k) alpha."""
    return 2.0 * lam ** m / math.prod(
        4.0 * abs(math.sin(math.pi * k * alpha) * math.sin(math.pi * (m - k) * alpha))
        for k in range(1, m))


def four_solve_hulls(lam, f, p, q):
    """Hull ends (lo_i, hi_i) of each elementary band of a potential of band
    limit <= 1 over theta, from both boundary conditions at both Chambers
    phases theta_0 and theta_0 + 1/(2q), theta_0 = -psi/(2 pi) mod 1/q: four
    q-site Floquet solves, the earlier route of `band_structure`."""
    theta0 = (-np.angle(f.coeff(1) + np.conj(f.coeff(-1))) / (2 * np.pi)) % (1 / q)
    edges = np.array([floquet_edges(lam, f, p, q, theta0 + j / (2 * q)) for j in (0, 1)])
    return edges[:, 0::2].min(axis=0), edges[:, 1::2].max(axis=0)
