"""SL(2,R) cocycles over an irrational rotation.

One engine, _propagate, pushes vectors or products through a stack of step
matrices with a separate log-scale, so hyperbolic growth never overflows;
transfer products, Lyapunov exponents and strip growth use it.  The fibered
rotation number is a weighted Birkhoff average of the lifted projective angle
increments along directions from a blocked prefix scan built on the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import Frequency
from .errors import DegreeError
from .fourier import FourierMap, matmul

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
        """A(x) at an array of (possibly complex) points, as (*shape, 2, 2)."""
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


def _propagate(steps, V, out=None):
    """V <- steps[j] @ V for each step of a (n, *batch, 2, 2) stack; V is
    (*batch, 2, m).  Every RENORM_EVERY steps and after the last, V is divided
    by its largest entry magnitude, a positive scale that keeps directions and
    signs.  Returns (V, log_scale): the true result is exp(log_scale) * V.
    out[j], when given, receives a positive multiple of V after step j.
    """
    log_scale = np.zeros(V.shape[:-2])
    for j, M in enumerate(steps):
        V = M @ V
        if (j + 1) % RENORM_EVERY == 0 or j == len(steps) - 1:
            s = np.abs(V).max(axis=(-2, -1), keepdims=True)
            s[s == 0.0] = 1.0
            V /= s
            log_scale += np.log(s[..., 0, 0])
        if out is not None:
            out[j] = V
    return V, log_scale


def _scan_directions(steps):
    """Positive multiples of (1, 0), M_0 (1, 0), M_1 M_0 (1, 0), ... for a
    (n, *batch, 2, 2) stack, by a blocked prefix scan: the steps behind one
    identity, padded with identities into B blocks of L ~ sqrt(n), give the
    block totals; (1, 0) chained through the totals gives each block's start,
    and the starts pushed through their blocks fill in the rest.

    Totals and starts are carried in extended precision (np.longdouble): a
    start near the contracting direction of a total loses digits to
    cancellation that the plain step-by-step push keeps, and a later run of
    steps can magnify that loss well past the plain push's own error.
    """
    n, tail = len(steps) + 1, steps.shape[1:]
    L = math.isqrt(n - 1) + 1
    B = -(-n // L)
    eye = np.broadcast_to(np.eye(2), (B * L - n + 1,) + tail)
    blocks = np.concatenate([eye[:1], steps, eye[1:]]).reshape((B, L) + tail).swapaxes(0, 1)
    wide_eye = np.broadcast_to(np.eye(2, dtype=np.longdouble), blocks.shape[1:])
    totals, _ = _propagate(blocks, wide_eye)
    starts = np.empty(totals.shape[:-1] + (1,), dtype=np.longdouble)
    starts[0] = [[1.0], [0.0]]
    _propagate(totals[:-1], starts[0], out=starts[1:])
    trail = np.empty((L,) + starts.shape)
    _propagate(blocks, starts.astype(float), out=trail)
    return trail.swapaxes(0, 1).reshape((B * L,) + starts.shape[1:-1])[:n]


def transfer(c, k, x):
    """Ordered product A(x+(k-1)a) ... A(x), renormalized against overflow.

    Returns (unit-scaled matrix, log_scale): the true product is
    exp(log_scale) * matrix.  x may be a scalar or an array of base points.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(x, dtype=complex)
    steps = c.matrices(np.add.outer(c.alpha * np.arange(k), x))
    P, logs = _propagate(steps, np.broadcast_to(np.eye(2), steps.shape[1:]))
    return (P, float(logs)) if x.ndim == 0 else (P, logs)


def lyapunov(c, k, phases=64):
    """Average of (1/k) log||A_k(x)|| over equidistributed base phases."""
    xs = (np.arange(phases) + 0.5) / phases
    P, logs = transfer(c, k, xs)
    norms = np.linalg.norm(P, ord=2, axis=(1, 2))
    return float(np.mean((logs + np.log(norms)) / k))


def _orbit_directions(c, n):
    """The real step matrices A(j alpha), j < n, and the directions
    (1, 0), M_0 (1, 0), M_1 M_0 (1, 0), ... of their prefix products.

    Raises ValueError when the cocycle is not real on the real axis, where
    neither the angle nor the sign of a component would mean anything.
    """
    mats = c.matrices(c.alpha * np.arange(n))
    if np.abs(mats.imag).max() > 1e-9 * max(np.abs(mats.real).max(), 1.0):
        raise ValueError("rotation number needs a real cocycle on the real axis")
    return mats.real, _scan_directions(mats.real)


def _bump_weights(n):
    t = (np.arange(n) + 0.5) / n
    return np.exp(-1.0 / (t * (1.0 - t)))


def _angle_increments(c, n):
    """Canonically lifted angle increments of the projective action.

    For an SL(2,R) step with trace > -2 the displacement of any direction is
    strictly inside (-pi, pi), so the plain wrap of the angle difference is
    the true lift.  Steps with trace <= -2 (negative eigenvalues) displace
    through a half turn; they lift as pi plus the wrapped displacement of the
    positive-trace matrix -M.  This matches the oscillation-theory convention
    in which every deep-potential step advances the angle forward.
    """
    mats, w = _orbit_directions(c, n)
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


def rotation_number(c, iterations=None, target_err=ROTATION_TARGET_ERR,
                    max_iterations=ROTATION_MAX_ITERATIONS):
    """Fibered rotation number of (alpha, A), A homotopic to the identity.

    Weighted Birkhoff average of the lifted angle increments of the projective
    action, folded to [0, 1/2].  The error bar is the disagreement between the
    two orbit halves, each averaged with its own bump window; when it stays
    above target_err at the iteration cap the result is flagged, not silent.
    """
    n = int(iterations) if iterations else ROTATION_START_ITERATIONS
    while True:
        d = _angle_increments(c, n)
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


def rotation_number_counting(c, iterations=1 << 18):
    """Rotation number through eigenvalue counting, as an independent route.

    The leading principal minors of the Dirichlet box of size n satisfy the
    same three-term recursion as the transfer matrices, so the sign changes of
    the first component of A_k(x)(1,0) count the eigenvalues below E; the
    integrated density of states is that count over n and rho = (1 - N)/2.
    Integer-valued counting is immune to any angle-lift convention, which is
    what makes this a genuine cross-check of rotation_number.
    """
    n = int(iterations)
    _, w = _orbit_directions(c, n)
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


def degree_of(R):
    """Winding number in RP^1 of x -> direction of R(x) v over x in [0, 1],
    on 4096 grid steps, for up to three fixed test vectors v.

    PSL-valued maps stored with period 2 are 1-periodic up to sign, so the
    winding over [0, 1] with angles taken mod pi is always an integer; the
    constant rotation by 2 pi x has degree 2 in this normalization.
    """
    # x_j = j / 4096 for j <= 4096; the endpoint x = 1 wraps onto the
    # periodic grid (index 0 for period 1, index 4096 for period 2)
    mats = R.sample(R.period * 4096).take(np.arange(4097), axis=0, mode="wrap").real
    for attempt in range(3):
        vec = np.array([math.cos(0.4 + 1.3 * attempt), math.sin(0.4 + 1.3 * attempt)])
        vals = mats @ vec
        norms = np.hypot(vals[:, 0], vals[:, 1])
        if norms.min() < 1e-10 * max(norms.max(), 1e-300):
            continue
        phi = np.arctan2(vals[:, 1], vals[:, 0])
        d = np.diff(phi)
        d = (d + math.pi / 2.0) % math.pi - math.pi / 2.0
        if np.abs(d).max() > math.pi / 2.0 - 1e-9:
            continue
        total = float(d.sum()) / math.pi
        k = round(total)
        if abs(total - k) < 0.05:
            return k
    raise DegreeError("projective winding ill-defined after 3 draws")


def conjugate(c, R):
    """The conjugated cocycle (alpha, R^{-1}(x+alpha) A(x) R(x)).

    R is a matrix map with det == 1 (its adjugate is then the pointwise
    inverse).  Raises when det R strays from 1 on the axis.
    """
    dets = np.linalg.det(R.sample(512))
    if np.abs(dets - 1.0).max() > 1e-8:
        raise ValueError(f"conjugacy determinant strays from 1 by {np.abs(dets-1).max():.2e}")
    A = c.A
    if R.period == 2 and A.period == 1:
        A = A.lift2()
    elif R.period == 1 and A.period == 2:
        R = R.lift2()
    B = matmul(R.shift(c.alpha).adjugate(), A, R).trim(1e-16)
    if B.period == 2:
        try:
            B = B.collapse1(tol=1e-9)
        except ValueError:
            pass
    return Cocycle(c.freq, B)


def strip_growth(c, eta, K, grid=256, points=24):
    """Strip norms ||A_k||_eta on a logarithmic schedule of k up to K."""
    ks = sorted({max(1, int(round(K ** (i / (points - 1))))) for i in range(points)})
    lines = [0.0] if eta == 0.0 else [eta, -eta]
    base = np.add.outer(1j * np.array(lines), np.arange(grid) / grid)
    P = np.broadcast_to(np.eye(2), base.shape + (2, 2))
    logs = np.zeros(base.shape)
    step = 0
    out = []
    for k_target in ks:
        # RENORM_EVERY steps at a time, so memory does not grow with K
        while step < k_target:
            n = min(RENORM_EVERY, k_target - step)
            xs = np.add.outer(c.alpha * np.arange(step, step + n), base)
            P, ls = _propagate(c.matrices(xs), P)
            logs += ls
            step += n
        norms = np.linalg.norm(P, ord=2, axis=(-2, -1))
        out.append((k_target, float(np.max(logs + np.log(norms)))))
    return [(k, math.exp(v)) if v < 700 else (k, math.inf) for k, v in out]
