"""SL(2,R) cocycles over an irrational rotation.

One engine, _propagate, pushes vectors or products through a stack of steps
with a separate log-scale, so hyperbolic growth never overflows.  A
Schrodinger orbit segment is carried as its diagonal entries E - lam f(x_j),
never as 2x2 matrices, and updates the two rows of its vectors elementwise; a
general cocycle is the stack of its 2x2 steps, each one batched matmul.
The fibered rotation number is a weighted Birkhoff average of the lifted
projective angle increments along directions from a blocked prefix scan built
on the engine.
One estimator core serves a step map A over freq (rotation_number(A, freq))
and a batch of Schrodinger energies on one orbit, whose steps every route
evaluates in real arithmetic by _real_values; it extends an unfinished orbit
from its last direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import norm_dist
from .errors import DegreeError
from .fourier import FourierMap

RENORM_EVERY = 32
ROTATION_START_ITERATIONS = 4096
ROTATION_MAX_ITERATIONS = 1 << 20
ROTATION_TARGET_ERR = 1e-8
ROTATION_BATCH_STEPS = 1 << 16      # orbit steps x cocycles per scan, one cocycle at least


def amo_potential():
    """2 cos(2 pi x)"""
    return FourierMap.from_coeff_dict({1: 1.0, -1: 1.0})


def schrodinger_cocycle(lam, f, energy):
    """Schrodinger step map A_E(x) = [[E - lam f(x), -1], [1, 0]], a FourierMap."""
    n = f.band_limit
    c = np.zeros((2 * n + 1, 2, 2), dtype=complex)
    c[:, 0, 0] = -lam * f.coeffs
    c[n, 0, 0] += energy
    c[n, 0, 1] = -1.0
    c[n, 1, 0] = 1.0
    return FourierMap(c, f.period, entire=f.entire)


def _propagate(steps, V, out=None):
    """V <- M_j V for each step of a stack; V is (*batch, 2, m).

    A Schrodinger stack is the (n, *batch) array of diagonal entries a_j of
    the steps [[a_j, -1], [1, 0]], and the rows x, y of V go
    (x, y) -> (a_j x - y, x).  A general stack is the (n, *batch, 2, 2) array
    of the steps, and each step is one batched matmul.  With V in extended
    precision, as every scan carries it, matmul sums a_j x + b_j y from +0 in
    that order, so it gives the entry-wise update's bits, up to the sign of a
    zero sum of zeros; in double it may go through BLAS, whose fused
    multiply-adds round differently.  Every RENORM_EVERY steps and after the
    last, V is divided by its largest entry magnitude, a positive scale that
    keeps directions and signs.  Returns (V, log_scale): the true result is
    exp(log_scale) * V.  out[j], when given, receives a positive multiple of V
    after step j.  A double out gets a shorter interval where V's growth until
    the next renormalization, at most g = max |a_j| + 1 a step (general: 2 max
    |entry| + 1), could pass 2^1000, so that it stays finite.
    """
    general = steps.ndim > V.ndim
    n = len(steps)
    every = RENORM_EVERY
    if out is not None and out.dtype == np.float64 and n:
        growth = math.log2(max(steps.max(), -steps.min()) * (2.0 if general else 1.0) + 1.0)
        every = max(1, int(1000.0 // growth)) if growth * every > 1000.0 else every
    if not general:
        x, y = np.moveaxis(V, (-2, -1), (0, 1))      # the rows, as (m, *batch)
        rows_out = None if out is None else np.moveaxis(out, (-2, -1), (1, 2))
    log_scale = np.zeros(V.shape[:-2])
    for j in range(n):
        renorm = (j + 1) % every == 0 or j == n - 1
        if general:
            V = np.matmul(steps[j], V)
            if renorm:
                s = np.abs(V).max(axis=(-2, -1))
                s = np.where(s == 0.0, 1.0, s)
                V = V / s[..., None, None]
                log_scale += np.log(s)
            if out is not None:
                out[j] = V
        else:
            x, y = steps[j] * x - y, x
            if renorm:
                s = np.maximum(np.abs(x).max(axis=0), np.abs(y).max(axis=0))
                s = np.where(s == 0.0, 1.0, s)
                x, y = x / s, y / s
                log_scale += np.log(s)
            if out is not None:
                rows_out[j, 0], rows_out[j, 1] = x, y
    if not general:
        V = np.moveaxis(np.stack((x, y), axis=-1), 0, -1)
    return V, log_scale


def _scan_directions(steps, start=(1.0, 0.0)):
    """Positive multiples of v, M_0 v, M_1 M_0 v, ... for a stack of n steps
    (see _propagate) with a batch of at most one axis, so that a stack of more
    than two axes is general, and a start v of shape (*batch, 2) or (2,), as
    an (n + 1, *batch, 2) array, by a blocked prefix scan: the steps, padded
    into B blocks of L ~ sqrt(n), give the block totals; v chained through
    the totals gives each block's start, and the starts pushed through their
    blocks fill in the rest.

    Totals, starts and the pushes from the starts are carried in extended
    precision (np.longdouble) and stored in double: a start near the
    contracting direction of a total loses digits to cancellation that the
    plain step-by-step push keeps, and a later run of steps can magnify that
    loss, or a double push's own rounding, well past the plain push's error.
    """
    n = len(steps)
    tail = steps.shape[1:-2] if steps.ndim > 2 else steps.shape[1:]
    L = math.isqrt(n) + 1
    B = -(-n // L)
    pad = np.zeros((B * L - n,) + steps.shape[1:])      # feeds only discarded outputs
    blocks = np.concatenate([steps, pad]).reshape((B, L) + steps.shape[1:]).swapaxes(0, 1)
    wide_eye = np.broadcast_to(np.eye(2, dtype=np.longdouble), (B,) + tail + (2, 2))
    totals, _ = _propagate(blocks, wide_eye)
    starts = np.empty((B,) + tail + (2, 1), dtype=np.longdouble)
    starts[0] = np.asarray(start)[..., None]
    _propagate(totals[:-1], starts[0], out=starts[1:])
    w = np.empty((B * L + 1,) + tail + (2,))
    w[0] = start
    _propagate(blocks, starts, out=w[1:].reshape((B, L) + tail + (2, 1)).swapaxes(0, 1))
    return w[:n + 1]


def _real_values(lam, f, x):
    """lam f(x) for a scalar or 2x2 map f at real points x in real arithmetic,
    c_0 + 2 sum_k (Re c_k cos t_k - Im c_k sin t_k) on the phases
    t_k = (2 pi / period)(k x) that calling f forms.  ValueError when the bound
    sum_k |c_k - conj c_-k| / 2 on Im f passes 1e-9 of the values' size: off
    a real cocycle neither the angle nor the sign of a component means anything."""
    c, n = f.coeffs, f.band_limit
    xs = x.reshape((-1,) + (1,) * len(f.value_shape))
    v = np.full((len(x),) + f.value_shape, c[n].real)
    for k in range(1, n + 1):
        t = 2.0 * math.pi / f.period * (xs * k)
        v += 2.0 * c[n + k].real * np.cos(t)
        if c[n + k].imag.any():
            v -= 2.0 * c[n + k].imag * np.sin(t)
    v *= lam
    imag = abs(lam) * (np.abs(c - c[::-1].conj()).sum(axis=0).max() / 2.0)
    if imag > 1e-9 * max(np.abs(v).max(), 1.0):
        raise ValueError("rotation number needs a real cocycle on the real axis")
    return v


def _bump_weights(n):
    """exp(-1 / (t (1 - t))) at the midpoints t = (j + 1/2) / n, in one buffer."""
    w = np.arange(n) + 0.5
    w /= n
    w *= 1.0 - w
    np.divide(-1.0, w, out=w)
    return np.exp(w, out=w)


def _angle_increments(steps, w):
    """Canonically lifted angle increments of the projective action of a
    stack of n steps on k cocycles (see _scan_directions) between its n + 1
    directions w, as (k, n).

    For an SL(2,R) step with trace > -2 the displacement of any direction is
    strictly inside (-pi, pi), so the plain wrap of the angle difference is
    the true lift.  Steps with trace <= -2 (negative eigenvalues) displace
    through a half turn; they lift as pi plus the wrapped displacement of the
    positive-trace matrix -M.  This matches the oscillation-theory convention
    in which every deep-potential step advances the angle forward.
    """
    # (k, n): one contiguous row per cocycle
    d = np.diff(np.arctan2(w[..., 1].T, w[..., 0].T, out=np.empty(w.shape[1::-1])))
    # the wrap (d + pi) % 2 pi - pi, in place and bit for bit: d + pi lies in
    # [-pi, 3 pi], where subtracting 2 pi from d >= 2 pi is exact (Sterbenz)
    # and adding 2 pi to d < 0 is the add np.remainder makes
    d += math.pi
    np.subtract(d, 2.0 * math.pi, out=d, where=d >= 2.0 * math.pi)
    np.add(d, 2.0 * math.pi, out=d, where=d < 0.0)
    d -= math.pi
    trace = steps[..., 0, 0] + steps[..., 1, 1] if steps.ndim > 2 else steps
    neg = trace.T <= -2.0
    if np.any(neg):
        d[neg] = d[neg] % (2.0 * math.pi)     # lift to [0, 2 pi): forward passage
    return d


@dataclass(frozen=True)
class RotationResult:
    value: float          # folded to [0, 1/2]
    error: float
    iterations: int
    flagged: bool = False


def _rotation_results(names, steps_of, target_err, max_iterations):
    """Rotation numbers of the cocycles names[i] over one rotation, each on
    its own.

    steps_of(lo, hi, idx) gives the real steps lo, ..., hi - 1 of the
    cocycles idx as a stack (see _propagate) with batch (len(idx),).
    Cocycles go through in groups whose first orbits fit ROTATION_BATCH_STEPS;
    a group's unfinished members extend their orbits from their last
    directions to 4n steps, or to max_iterations if that is fewer, and keep
    the angle increments they have, so no step is scanned twice.  Each
    extension is scanned in batches of as many members as fit the budget, but
    never fewer than one: a lone member's extension, up to 3/4 of
    max_iterations steps, is one scan, and on a long orbit that scan sets the
    peak memory.  A scan's steps and directions are freed once its increments
    are taken, the increments once appended to the member's one increment
    array.  The first orbit's bump weights are made once per call, a longer
    orbit's per stage and freed once its estimates are made, and a stage's
    weight sums once per stage.  Each member's numbers depend on its own
    steps only, never on the group.  ValueError naming the cocycle when its
    increments are not finite: its steps overflowed even extended precision
    between two renormalizations.
    """
    k = len(names)
    n0 = min(ROTATION_START_ITERATIONS, max_iterations)
    if n0 < 2:
        raise ValueError(f"rotation number needs at least 2 orbit steps, got {n0}")
    first_weights = _bump_weights(n0), _bump_weights(n0 // 2)
    results = [None] * k
    group = max(1, ROTATION_BATCH_STEPS // n0)
    for first in range(0, k, group):
        live = list(range(first, min(first + group, k)))
        incs = dict.fromkeys(live, np.empty(0))
        ends = dict.fromkeys(live, (1.0, 0.0))
        lo, n = 0, n0
        while live:
            batch = max(1, ROTATION_BATCH_STEPS // (n - lo))
            for b in range(0, len(live), batch):
                idx = live[b:b + batch]
                steps = steps_of(lo, n, idx)
                w = _scan_directions(steps, np.array([ends[i] for i in idx]))
                ends.update(zip(idx, w[-1].copy()))
                d = _angle_increments(steps, w)
                del steps, w
                incs.update((i, np.concatenate((incs[i], row))) for i, row in zip(idx, d))
                del d
            h = n // 2
            wts, wh = first_weights if n == n0 else (_bump_weights(n), _bump_weights(h))
            wsum, whsum = wts.sum(), wh.sum()
            for i in list(live):
                d = incs[i]
                # einsum sums in one fixed order; np.dot's BLAS ddot splits a
                # long sum between threads, so its last bits follow the core count
                est = float(np.einsum("i,i", wts, d) / wsum) / (2.0 * math.pi)
                if not math.isfinite(est):
                    raise ValueError(f"rotation number of {names[i]}: the orbit's angle "
                                     "increments are not finite (its steps overflow)")
                est1 = float(np.einsum("i,i", wh, d[:h]) / whsum) / (2.0 * math.pi)
                est2 = float(np.einsum("i,i", wh, d[h : 2 * h]) / whsum) / (2.0 * math.pi)
                gap = abs(est1 - est2)
                err = max(min(gap, abs(norm_dist(est1) - norm_dist(est2))), 1e-15)
                if err <= target_err or n >= max_iterations:
                    results[i] = RotationResult(value=norm_dist(est), error=err, iterations=n,
                                                flagged=err > target_err)
                    live.remove(i)
                    del incs[i], ends[i]
            del wts, wh
            lo, n = n, min(4 * n, max_iterations)
    return results


def rotation_number(A, freq, target_err=ROTATION_TARGET_ERR,
                    max_iterations=ROTATION_MAX_ITERATIONS):
    """Fibered rotation number of (freq.value, A), A homotopic to the identity.

    Weighted Birkhoff average of the lifted angle increments of the projective
    action, folded to [0, 1/2].  The error bar is the disagreement between the
    two orbit halves, each averaged with its own bump window.  The orbit
    starts at min(4096, max_iterations) steps and is extended to four times
    its length, never past max_iterations, while the bar stays above
    target_err; when it is still above at max_iterations the result is
    flagged, not silent.  Fewer than 2 steps raise ValueError: the bar needs
    two halves.
    """
    def steps_of(lo, hi, _idx):
        return _real_values(1.0, A, freq.value * np.arange(lo, hi))[:, None]

    return _rotation_results(["the cocycle"], steps_of, target_err, max_iterations)[0]


def rotation_numbers(lam, f, freq, energies, target_err=ROTATION_TARGET_ERR,
                     max_iterations=ROTATION_MAX_ITERATIONS):
    """rotation_number of the Schrodinger cocycle at each energy, in order.

    The steps [[E - lam f(x), -1], [1, 0]] differ between energies only in
    E, so each scan's stack is E - lam f(x_j), with lam f sampled on the
    scan's orbit segment in real arithmetic and shared by the energies it
    carries; each result is what a call with that energy alone returns.
    ValueError naming the energy, before any orbit, for a non-finite energy,
    and at the estimate for an orbit whose increments are not finite (|E|
    past about 1e154, where |E|^32 overflows extended precision).
    """
    energies = np.asarray(energies, dtype=float)
    names = [f"E = {e!r}" for e in energies.tolist()]
    bad = np.flatnonzero(~np.isfinite(energies))
    if bad.size:
        raise ValueError(f"rotation number needs a finite energy, got {names[bad[0]]}")

    def steps_of(lo, hi, idx):
        return energies[idx] - _real_values(lam, f, freq.value * np.arange(lo, hi))[:, None]

    return _rotation_results(names, steps_of, target_err, max_iterations)


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

