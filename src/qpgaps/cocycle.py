"""SL(2,R) cocycles over an irrational rotation.

Transfer products carry a separate accumulated log-scale so hyperbolic growth
never overflows.  The fibered rotation number is a weighted Birkhoff average
of the lifted projective angle increments; consecutive directions along the
orbit come from a doubling prefix-scan of the step matrices, which keeps the
whole computation vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import Frequency
from .errors import DegreeError
from .fourier import FourierMap, matmul, mul, shift, strip_norm

RENORM_EVERY = 32
ROTATION_START_ITERATIONS = 4096
ROTATION_MAX_ITERATIONS = 1 << 20
ROTATION_TARGET_ERR = 1e-8


@dataclass
class Cocycle:
    freq: object                 # Frequency or plain float alpha
    A: FourierMap

    @property
    def alpha(self):
        return self.freq.value if isinstance(self.freq, Frequency) else float(self.freq)

    def matrices(self, xs):
        """A(x) at an array of (possibly complex) points, as (len, 2, 2)."""
        return self.A(np.asarray(xs))


def amo_potential():
    """2 cos(2 pi x)"""
    return FourierMap.from_coeff_dict({1: 1.0, -1: 1.0})


def schrodinger_cocycle(lam, f, energy, freq=None):
    """Cocycle with one-step matrix [[E - lam f(x), -1], [1, 0]]."""
    n = f.band_limit
    c = np.zeros((2 * n + 1, 2, 2), dtype=complex)
    c[:, 0, 0] = -lam * f.coeffs
    c[n, 0, 0] += energy
    c[n, 0, 1] = -1.0
    c[n, 1, 0] = 1.0
    A = FourierMap(c, f.period, entire=f.entire)
    return Cocycle(freq if freq is not None else 0.0, A)


def transfer(c, k, x, renorm_every=RENORM_EVERY):
    """Ordered product A(x+(k-1)a) ... A(x), renormalized against overflow.

    Returns (unit-scaled matrix, log_scale): the true product is
    exp(log_scale) * matrix.  x may be a scalar or an array of base points.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x_arr = np.atleast_1d(np.asarray(x, dtype=complex))
    scalar_input = np.asarray(x).ndim == 0
    alpha = c.alpha
    P = np.broadcast_to(np.eye(2, dtype=complex), (len(x_arr), 2, 2)).copy()
    logs = np.zeros(len(x_arr))
    for j in range(k):
        P = np.matmul(c.matrices(x_arr + j * alpha), P)
        if (j + 1) % renorm_every == 0:
            logs += np.log(_renormalize(P))
    if scalar_input:
        return P[0], float(logs[0])
    return P, logs


def lyapunov(c, k, phases=64):
    """Average of (1/k) log||A_k(x)|| over equidistributed base phases."""
    xs = (np.arange(phases) + 0.5) / phases
    P, logs = transfer(c, k, xs)
    norms = np.linalg.norm(P, ord=2, axis=(1, 2))
    return float(np.mean((logs + np.log(norms)) / k))


def _renormalize(P):
    """Divides each 2x2 matrix of the stack P in place by its largest entry
    (1 for a zero matrix) and returns those scales."""
    s = np.abs(P).reshape(len(P), 4).max(axis=1)
    s[s == 0.0] = 1.0
    P /= s[:, None, None]
    return s


def _prefix_directions(mats, v0):
    """Directions v0, M_0 v0, M_1 M_0 v0, ... via a doubling prefix scan.

    Only directions matter, so each round renormalizes by the max entry
    (positive scale factors preserve all projective data).
    """
    X = mats.astype(float).copy()
    n = len(X)
    s = 1
    while s < n:
        X[s:] = np.matmul(X[s:], X[:-s])
        _renormalize(X)
        s *= 2
    w = X @ v0
    return np.vstack([v0[None, :], w])


def _orbit_directions(c, n, x0):
    """The real step matrices A(x0 + j alpha), j < n, and the directions
    (1, 0), M_0 (1, 0), M_1 M_0 (1, 0), ... of their prefix products.

    Raises ValueError when the cocycle is not real on the real axis, where
    neither the angle nor the sign of a component would mean anything.
    """
    mats = c.matrices(x0 + c.alpha * np.arange(n))
    if np.abs(mats.imag).max() > 1e-9 * max(np.abs(mats.real).max(), 1.0):
        raise ValueError("rotation number needs a real cocycle on the real axis")
    mats = mats.real
    return mats, _prefix_directions(mats, np.array([1.0, 0.0]))


def _bump_weights(n):
    t = (np.arange(n) + 0.5) / n
    return np.exp(-1.0 / (t * (1.0 - t)))


def _angle_increments(c, n, x0):
    """Canonically lifted angle increments of the projective action.

    For an SL(2,R) step with trace > -2 the displacement of any direction is
    strictly inside (-pi, pi), so the plain wrap of the angle difference is
    the true lift.  Steps with trace <= -2 (negative eigenvalues) displace
    through a half turn; they lift as pi plus the wrapped displacement of the
    positive-trace matrix -M.  This matches the oscillation-theory convention
    in which every deep-potential step advances the angle forward.
    """
    mats, w = _orbit_directions(c, n, x0)
    phi = np.arctan2(w[:, 1], w[:, 0])
    d = np.diff(phi)
    d = (d + math.pi) % (2.0 * math.pi) - math.pi
    neg = mats[:, 0, 0] + mats[:, 1, 1] <= -2.0
    if np.any(neg):
        d[neg] = d[neg] % (2.0 * math.pi)     # lift to [0, 2 pi): forward passage
    return d


def _fold(rho):
    r = rho % 1.0
    return min(r, 1.0 - r)


@dataclass(frozen=True)
class RotationResult:
    value: float          # folded to [0, 1/2]
    error: float
    iterations: int
    flagged: bool = False

    def __float__(self):
        return self.value


def rotation_number(c, iterations=None, x0=0.0, target_err=ROTATION_TARGET_ERR,
                    max_iterations=ROTATION_MAX_ITERATIONS):
    """Fibered rotation number of (alpha, A), A homotopic to the identity.

    Weighted Birkhoff average of the lifted angle increments of the projective
    action, folded to [0, 1/2].  The error bar is the disagreement between the
    two orbit halves, each averaged with its own bump window; when it stays
    above target_err at the iteration cap the result is flagged, not silent.
    """
    n = int(iterations) if iterations else ROTATION_START_ITERATIONS
    while True:
        d = _angle_increments(c, n, x0)
        wts = _bump_weights(n)
        est = float(np.dot(wts, d) / wts.sum()) / (2.0 * math.pi)
        h = n // 2
        wh = _bump_weights(h)
        est1 = float(np.dot(wh, d[:h]) / wh.sum()) / (2.0 * math.pi)
        est2 = float(np.dot(wh, d[h : 2 * h]) / wh.sum()) / (2.0 * math.pi)
        gap = abs(est1 - est2)
        err = max(min(gap, abs(_fold(est1) - _fold(est2))), 1e-15)
        if iterations or err <= target_err or n >= max_iterations:
            flagged = err > target_err
            return RotationResult(value=_fold(est), error=err, iterations=n, flagged=flagged)
        n *= 4


def rotation_number_counting(c, iterations=1 << 18, x0=0.0):
    """Rotation number through eigenvalue counting, as an independent route.

    The leading principal minors of the Dirichlet box of size n satisfy the
    same three-term recursion as the transfer matrices, so the sign changes of
    the first component of A_k(x)(1,0) count the eigenvalues below E; the
    integrated density of states is that count over n and rho = (1 - N)/2.
    Integer-valued counting is immune to any angle-lift convention, which is
    what makes this a genuine cross-check of rotation_number.
    """
    n = int(iterations)
    _, w = _orbit_directions(c, n, x0)
    signs = np.sign(w[:, 0])
    signs[signs == 0.0] = 1.0
    flips = np.count_nonzero(signs[1:] != signs[:-1])
    half = np.count_nonzero(signs[1 : n // 2 + 1] != signs[: n // 2])
    # sign agreements of det(H_k - E) are sign changes of det(E - H_k),
    # so flips/n = 1 - N(E) and rho = (1 - N)/2 = flips/(2n)
    rho = flips / (2.0 * n)
    rho_half = half / (2.0 * (n // 2))
    err = max(abs(rho - rho_half), 1.0 / n)
    return RotationResult(value=_fold(rho), error=err, iterations=n, flagged=False)


@dataclass
class Conjugacy:
    """A PSL(2,R)-valued periodic map together with its projective degree."""

    R: FourierMap
    degree: int


def degree_of(R, samples=4096, v=None, redraws=3, tol=0.05):
    """Winding number in RP^1 of x -> direction of R(x) v over x in [0, 1].

    PSL-valued maps stored with period 2 are 1-periodic up to sign, so the
    winding over [0, 1] with angles taken mod pi is always an integer; the
    constant rotation by 2 pi x has degree 2 in this normalization.
    """
    # x_j = j / samples for j <= samples; the endpoint x = 1 wraps onto the
    # periodic grid (index 0 for period 1, index `samples` for period 2)
    mats = R.sample(R.period * samples).take(np.arange(samples + 1), axis=0,
                                             mode="wrap").real
    for attempt in range(redraws):
        vec = v if v is not None else np.array(
            [math.cos(0.4 + 1.3 * attempt), math.sin(0.4 + 1.3 * attempt)]
        )
        vals = mats @ vec
        norms = np.hypot(vals[:, 0], vals[:, 1])
        if norms.min() < 1e-10 * max(norms.max(), 1e-300):
            v = None
            continue
        phi = np.arctan2(vals[:, 1], vals[:, 0])
        d = np.diff(phi)
        d = (d + math.pi / 2.0) % math.pi - math.pi / 2.0
        if np.abs(d).max() > math.pi / 2.0 - 1e-9:
            v = None
            continue
        total = float(d.sum()) / math.pi
        k = round(total)
        if abs(total - k) < tol:
            return k
        v = None
    raise DegreeError(f"projective winding ill-defined after {redraws} draws")


def conjugacy_from_map(R):
    return Conjugacy(R=R, degree=degree_of(R))


def conjugate(c, R, band_limit=None, det_tol=1e-8):
    """The conjugated cocycle (alpha, R^{-1}(x+alpha) A(x) R(x)).

    R may be a Conjugacy or a bare matrix map with det == 1 (its adjugate is
    then the pointwise inverse).  Raises when R is near-singular on the axis.
    """
    Rm = R.R if isinstance(R, Conjugacy) else R
    dets = np.linalg.det(Rm.sample(512))
    if np.abs(dets - 1.0).max() > det_tol:
        raise ValueError(f"conjugacy determinant strays from 1 by {np.abs(dets-1).max():.2e}")
    A = c.A
    if Rm.period == 2 and A.period == 1:
        A = A.lift2()
    elif Rm.period == 1 and A.period == 2:
        Rm = Rm.lift2()
    B = matmul(Rm.shift(c.alpha).adjugate(), A, Rm, band_limit=band_limit)
    B = B.trim(1e-16)
    if B.period == 2:
        try:
            B = B.collapse1(tol=1e-9)
        except ValueError:
            pass
    return Cocycle(c.freq, B)


def strip_growth(c, eta, K, grid=256, points=24):
    """Strip norms ||A_k||_eta on a logarithmic schedule of k up to K."""
    ks = sorted({max(1, int(round(K ** (i / (points - 1))))) for i in range(points)})
    out = []
    lines = [0.0] if eta == 0.0 else [eta, -eta]
    prods = {d: np.broadcast_to(np.eye(2, dtype=complex), (grid, 2, 2)).copy() for d in lines}
    logs = {d: np.zeros(grid) for d in lines}
    alpha = c.alpha
    step = 0
    for k_target in ks:
        while step < k_target:
            for d in lines:
                vals = c.A.sample(c.A.period * grid, d, step * alpha)[:grid]
                prods[d] = np.matmul(vals, prods[d])
                if (step + 1) % RENORM_EVERY == 0:
                    logs[d] += np.log(_renormalize(prods[d]))
            step += 1
        best = 0.0
        for d in lines:
            norms = np.linalg.norm(prods[d], ord=2, axis=(1, 2))
            best = max(best, float(np.max(logs[d] + np.log(norms))))
        out.append((k_target, best))
    return [(k, math.exp(v)) if v < 700 else (k, math.inf) for k, v in out]
