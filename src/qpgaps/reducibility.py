"""Constructive reduction to parabolic normal form and gap-edge perturbation.

The chain: a half-period Bloch wave gives a frame whose first column is an
invariant section; conjugating the Schrodinger cocycle by the frame leaves an
upper-triangular cocycle whose off-diagonal, its one entry computed, is
flattened by a homological solve.  One small-divisor kernel solves every
homological equation: the scalar one is its mu = 0 corner.  Around the
reduced form, quantitative averaging steps push an energy perturbation from
first to second to third order, and the averaged frame entries produce the
explicit energy shift that caps the gap width.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .arithmetic import rotation_phase_fracs
from .cocycle import _propagate, _real_values, degree_of, rotation_numbers, schrodinger_cocycle
from .errors import FrameError, SmallDivisorError, StripDomainError
from .fourier import FourierMap, adjugate, assemble, matmul, matrix_exp, mul, strip_norm

DIVISOR_CUTOFF = 1e-12
MU_COLLAPSE_TOL = 1e-12
FINE_GRID = 4096       # homological, frame and off-normal checks; frame averages
CHECK_GRID = 2048      # averaging and perturbation identities
SHIFT_MAX_ITERATIONS = 1 << 16   # orbit cap of the shift check and of a dossier's rho(E + eps_m)
STRIP_DELTA = 0.05     # strip half-width of the first averaging step


@dataclass(frozen=True)
class ParabolicForm:
    """The constant matrix [[sign, mu], [0, sign]] with sign = +-1."""

    sign: int
    mu: float

    @property
    def matrix(self):
        return np.array([[self.sign, self.mu], [0.0, self.sign]])

    @property
    def collapsed(self):
        return abs(self.mu) < MU_COLLAPSE_TOL


def _divisors(fracs):
    """e^{2 pi i k alpha} - 1 from the signed fractional parts
    k alpha - round(k alpha), exact before their one rounding, so tiny
    divisors keep full relative accuracy."""
    return np.exp(2j * math.pi * np.asarray(fracs)) - 1.0


def solve_homological_scalar(nu, freq, sign=1):
    """Zero-mean solution of  +-phi(x+alpha) -+ phi(x) = nu(x) - [nu].

    The (1, 2) entry of the parabolic solve for [[0, nu], [0, 0]] with
    mu = 0, whose division there is exactly +-nu_k / (e^{2 pi i k alpha} - 1):
    one small-divisor check (a breach names k and entry "12") and one
    residual rule, those of `solve_homological_parabolic`.
    """
    if nu.value_shape:
        raise ValueError("scalar solver needs a scalar map")
    if not nu.is_real(1e-11):
        raise ValueError("right-hand side must carry the real-valuedness symmetry")
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    data = assemble([[0.0, nu], [0.0, 0.0]], nu.period, nu.entire)
    return solve_homological_parabolic(data, ParabolicForm(sign, 0.0), freq).entry(0, 1)


def solve_homological_parabolic(pert, parabolic, freq):
    """Y with  Y(x+alpha) P - P Y(x) = pert - [pert]  and zero-mean entries:
    the package's one homological kernel.

    For P = [[1, mu], [0, 1]] the entries resolve in the order 21 (single
    divisor), then 11 and 22 (squared divisors carrying mu), then 12.  A
    negative sign reduces to the positive case with mu and the data negated.
    A mode k != 0 needs its divisor when its data exceeds 1e-18 of the peak
    (floored at 1), or when mu != 0 and its 21 entry is nonzero; the first
    needed divisor below DIVISOR_CUTOFF raises SmallDivisorError naming k
    and the entry ("21" where that entry is nonzero, else "12").  Y lands in
    sl(2,R) exactly when the data satisfies tr(pert)_k = mu * pert21_k (true
    for the energy-perturbation matrix of a reduced cocycle).  The equation
    itself is checked on FINE_GRID points: the sup of lhs - rhs must stay
    within 1e-10 of the larger of the sups of rhs and pert.
    """
    if not pert.is_matrix or pert.period != 1:
        raise ValueError("perturbation must be a 1-periodic matrix map")
    mu = parabolic.sign * parabolic.mu
    data = pert if parabolic.sign == 1 else -1.0 * pert
    n = pert.band_limit
    div = _divisors(rotation_phase_fracs(freq, n))
    lower = np.abs(data.coeffs[:, 1, 0])
    mags = np.abs(data.coeffs).max(axis=(1, 2))
    need = (((mags > 1e-18 * max(float(mags.max()), 1.0)) | (abs(mu) * lower != 0.0))
            & (np.arange(-n, n + 1) != 0))
    small = np.flatnonzero(need & (np.abs(div) < DIVISOR_CUTOFF))
    if small.size:
        i = int(small[0])
        raise SmallDivisorError(i - n, abs(div[i]), DIVISOR_CUTOFF,
                                entry="21" if lower[i] > 0 else "12")
    d = div[need]
    e = d + 1.0                        # e^{2 pi i k alpha}
    d2 = d**2
    (P11, P12), (P21, P22) = data.coeffs[need].transpose(1, 2, 0)
    y21 = P21 / d
    y11 = (mu * P21 + d * P11) / d2
    y22 = (d * P22 - mu * e * P21) / d2
    y12 = (P12 + mu * (y22 - e * y11)) / d
    Y = np.zeros_like(data.coeffs)
    Y[need] = np.moveaxis(np.array([[y11, y12], [y21, y22]]), -1, 0)
    Y = FourierMap(Y, period=1, entire=pert.entire)

    # tensordot makes each side one BLAS product over the grid; a stacked
    # matmul of 2x2 blocks costs ten times as much here
    P = parabolic.matrix
    lhs = (np.tensordot(Y.sample(FINE_GRID, shift=freq.value), P, axes=1)
           - np.tensordot(P, Y.sample(FINE_GRID), axes=(1, 1)).swapaxes(0, 1))
    vals = pert.sample(FINE_GRID)
    rhs = vals - pert.average()
    resid = float(np.abs(lhs - rhs).max())
    if resid > 1e-10 * max(float(np.abs(rhs).max()), float(np.abs(vals).max()), 1e-300):
        raise ArithmeticError(f"homological residual {resid:.2e} above 1e-10 * ||data||")
    return Y


@dataclass(frozen=True)
class AveragingReport:
    eps: float
    delta: float
    norm_step_minus_id: float        # ||R_step - I|| on the strip
    norm_const_change: float         # ||P_next - P||
    norm_pert_next: float            # ||pert_next|| on the strip
    divisor_min: float

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class AveragingStep:
    const_next: np.ndarray           # C + h [pert]
    pert_next: FourierMap            # remainder in units of eps^order
    step_map: FourierMap             # e^{h Y}
    report: AveragingReport


def _diagnostic_norm(a, delta):
    """strip_norm(a, delta) under the diagnostic strip tolerance 1e-5, on a
    copy of a, whose own tolerance stays; a norm that the strip check cannot
    measure is an inadmissible step, raised as ArithmeticError."""
    try:
        return strip_norm(replace(a, strip_tol=1e-5), delta)
    except StripDomainError as exc:
        raise ArithmeticError(f"step size inadmissible: {exc}") from exc


def _average(parabolic, const, pert, eps, order, freq, delta):
    """One averaging step for the cocycle C + h * pert(x), h = eps^(order-1).

    Conjugating by e^{h Y}, with Y solving the homological equation of the
    parabolic form, moves the x-dependence up one order:
    result = (C + h [pert]) + eps^order * pert_next(x), exactly by
    construction; the identity is re-verified pointwise on a grid against an
    independent evaluation.  Admissibility is gated on ||h Y||_delta <= 0.5;
    a gate or report norm that the strip check cannot measure makes the step
    inadmissible too (see _diagnostic_norm).  divisor_min is the smallest
    divisor over Y's band, at its largest convergent denominator (best
    approximation).
    """
    # drop the convolution noise floor first: coefficients near 1e-16 of the
    # peak carry no content but explode under e^{2 pi delta k} on the strip
    pert = pert.trim(1e-13)
    Y = solve_homological_parabolic(pert, parabolic, freq).trim(1e-13)
    _, q = freq.largest_convergent(max(Y.band_limit, 1))
    divisor_min = float(np.abs(_divisors(freq.signed_fracs((q,))))[0])

    h = eps ** (order - 1)
    hY = h * Y
    norm_hY = _diagnostic_norm(hY, delta)
    if norm_hY > 0.5:
        raise ArithmeticError(
            f"step size inadmissible: ||eps^{order - 1} Y||_delta = {norm_hY:.3f} > 0.5"
        )
    R_step = matrix_exp(hY)
    R_inv = matrix_exp(-1.0 * hY)
    alpha = freq.value

    full = FourierMap.constant(const) + h * pert
    G = matmul(R_inv.shift(alpha), full, R_step).trim(1e-18)
    const_next = const + h * pert.average().real
    pert_next = (G - FourierMap.constant(const_next)) * (1.0 / eps**order)
    pert_next = pert_next.trim(1e-16)

    x0 = 0.3 / CHECK_GRID
    lhs = np.matmul(
        np.matmul(np.linalg.inv(R_step.sample(CHECK_GRID, shift=x0 + alpha)),
                  full.sample(CHECK_GRID, shift=x0)),
        R_step.sample(CHECK_GRID, shift=x0),
    )
    rhs = const_next[None, :, :] + eps**order * pert_next.sample(CHECK_GRID, shift=x0)
    scale = max(float(np.abs(lhs).max()), 1.0)
    resid = float(np.abs(lhs - rhs).max()) / scale
    if resid > 1e-9:
        raise ArithmeticError(f"averaging identity residual {resid:.2e} above 1e-09")

    report = AveragingReport(
        eps=eps, delta=delta,
        norm_step_minus_id=_diagnostic_norm(R_step - FourierMap.identity(), delta),
        norm_const_change=float(np.linalg.norm(const_next - const, 2)),
        norm_pert_next=_diagnostic_norm(pert_next.trim(1e-13), delta),
        divisor_min=divisor_min,
    )
    return AveragingStep(const_next=const_next, pert_next=pert_next,
                         step_map=R_step, report=report)


def averaging_step(parabolic, pert, eps, freq):
    """One quadratic averaging step for the cocycle P + eps * pert(x), on the
    strip STRIP_DELTA: result = (P + eps [pert]) + eps^2 * pert_next(x)
    (see _average)."""
    return _average(parabolic, parabolic.matrix, pert, eps, 2, freq, STRIP_DELTA)


@dataclass(frozen=True)
class DoubleStep:
    const_final: np.ndarray
    pert_final: FourierMap           # third-order remainder
    composite_map: FourierMap        # R_1 R_2
    reports: tuple


def double_step(parabolic, pert, eps, freq):
    """Two averaging steps: first on the strip STRIP_DELTA, second on the axis.

    After step one the constant part is no longer parabolic; the second
    homological solve still uses the original parabolic matrix, which leaves
    an extra third-order contribution that the remainder absorbs:
    result = const_final + eps^3 * pert_final(x).
    """
    s1 = averaging_step(parabolic, pert, eps, freq)
    s2 = _average(parabolic, s1.const_next, s1.pert_next, eps, 3, freq, 0.0)
    composite = matmul(s1.step_map, s2.step_map).trim(1e-18)
    return DoubleStep(const_final=s2.const_next, pert_final=s2.pert_next,
                      composite_map=composite, reports=(s1.report, s2.report))


def _log_2x2(mats):
    """Principal logarithm of near-unipotent 2x2 matrices on a grid (series
    of at most 60 terms, stopped once a term falls below 1e-14)."""
    eye = np.eye(2)
    K = mats - eye
    term = K.copy()
    out = K.copy()
    for j in range(2, 61):
        term = np.matmul(term, K)
        piece = ((-1) ** (j + 1) / j) * term
        out += piece
        if np.abs(piece).max() < 1e-14:
            return out
    raise ArithmeticError("matrix-log series did not converge; spectrum too far from 1")


def rotation_form_generator(parabolic, const_final):
    """Trace-free part D of log(sign * const_final), which `elliptic_normalize`
    turns into the rotation form.  The expansion L0 + eps L1 + eps^2 L2
    (nilpotent log; a first-order term in closed form in the frame averages
    [R11^2], [R11 R12], [R12^2]; trace-free rest) sums to exactly D.  The trace goes because the constant part alone is not unimodular: its
    determinant defect lives in the x-dependent remainder."""
    L = _log_2x2((parabolic.sign * const_final)[None, :, :])[0]
    return L - 0.5 * np.trace(L) * np.eye(2)


def remainder_sup(parabolic, const_final, pert_final, eps, D):
    """Sup over the axis (1024 grid points) of the third-order log remainder
    |log(sign * (const_final + eps^3 pert_final)) - D| / eps^3."""
    vals = parabolic.sign * (const_final[None, :, :] + eps**3 * pert_final.sample(1024))
    rem = (_log_2x2(vals) - D[None, :, :]) / eps**3
    return float(np.abs(rem).max())


def build_frame(V):
    """Frame [V, T V / ||V||^2] with T the quarter turn (x,y) -> (-y, x).

    det == 1 pointwise by construction.  The second column needs 1/||V||^2 as
    a series, recovered by FFT on a grid of FINE_GRID points or more; a
    near-vanishing ||V|| squeezes the analyticity strip of that reciprocal, so
    the grid and band double until the frame determinant holds to 1e-10.  A
    frame still off at 2^16 points, or an inf ||V|| below 1e-8, is a
    FrameError naming the deviation or where the vector field nearly vanishes.
    """
    if not V.is_vector:
        raise ValueError("frame needs an R^2-valued map")
    m = FINE_GRID
    while True:
        vals = V.sample(m).real
        norms2 = (vals**2).sum(axis=1)
        j0 = int(np.argmin(norms2))
        if norms2[j0] <= 1e-8**2:
            raise FrameError(
                f"vector field nearly vanishes at x={j0 * V.period / m:.6f}: "
                f"||V||={math.sqrt(norms2[j0]):.3e}"
            )
        n = min(m // 3, max(2 * V.band_limit + 64, m // 8))
        inv_map = FourierMap.from_samples(1.0 / norms2, n, V.period).trim(1e-17)

        TV = FourierMap(np.stack([-V.coeffs[:, 1], V.coeffs[:, 0]], axis=1), V.period,
                        entire=V.entire)
        col2 = mul(inv_map, TV).trim(1e-17)
        frame = assemble([V, col2], V.period, False).trim(1e-17)
        det_dev = np.abs(np.linalg.det(frame.sample(1024).real) - 1.0).max()
        if det_dev <= 1e-10:
            return frame
        if m >= 1 << 16:
            raise FrameError(f"frame determinant strays from 1 by {det_dev:.2e} "
                             f"on the {m}-point grid cap")
        m *= 2


def select_frame_vector(re_map, im_map, n_tilde):
    """Choose the real or imaginary part of the half-period wave as the frame
    vector: the one whose resonant Fourier mass passes the sqrt(2) bound (both
    may; then the larger wins, ties to the real part)."""
    weights = [2.0 * float(np.linalg.norm(Vm.coeff(n_tilde))) for Vm in (re_map, im_map)]
    k = int(weights[1] > weights[0])
    if weights[k] < math.sqrt(2.0):
        raise FrameError(
            f"neither component clears the resonant-integral bound: best {weights[k]:.4f}"
        )
    return (re_map, im_map)[k]


@dataclass
class Reduction:
    R: FourierMap                     # reducing map, det R == 1
    degree: int                       # projective degree of R
    parabolic: ParabolicForm
    off_normal_residual: float
    mu_iterate: float                 # slope cross-check from the l-fold iterate


def reduce_at_edge(energy, wave, freq, lam, f):
    """Full reduction of the Schrodinger cocycle at a gap-edge energy.

    wave is an AssembledWave at that energy.  Steps: split the half-period
    wave into real/imaginary parts, select the frame vector, build the frame
    R1, compute only the off-diagonal nu of the conjugated cocycle (upper
    triangular, +-1 diagonal), flatten nu by a homological solve phi, shear R1
    by phi, read off mu (ArithmeticError when the reduced cocycle misses
    [[s, mu], [0, s]] by more than 1e-8).  The l-fold iterate cross-checks mu.
    """
    s = wave.sign
    V = select_frame_vector(wave.U_hat.real_part(), wave.U_hat.imag_part(), wave.n_tilde)
    R1 = build_frame(V)

    A = schrodinger_cocycle(lam, f, energy)
    alpha = freq.value
    nu = _conjugated_corner(R1, A, alpha).collapse1(tol=1e-7).real_part().trim(1e-16)

    phi = solve_homological_scalar(nu, freq, sign=s)
    mu = float(nu.average().real)
    R = _sheared(R1, phi).trim(1e-16)

    target = np.array([[s, mu], [0.0, s]])
    M = _conjugated(R, A.sample(A.period * FINE_GRID)[:FINE_GRID].real, alpha)
    off_normal = float(np.abs(M - target[None, :, :]).max())
    if off_normal > 1e-8:
        raise ArithmeticError(f"off-normal-form residual {off_normal:.2e} above 1e-08")
    return Reduction(
        R=R, degree=degree_of(R),
        parabolic=ParabolicForm(sign=s, mu=mu),
        off_normal_residual=off_normal,
        mu_iterate=_mu_from_iterate(R, lam, f, energy, alpha, s),
    )


def _conjugated_corner(R, A, alpha):
    """Entry (0, 1) of matmul(R.shift(alpha).adjugate(), A, R), in its sums:
    row 0 of the first product, short since A's band is, times R's column 1."""
    X, A = R.shift(alpha).adjugate(), A.lift2() if R.period == 2 else A
    row = [mul(X.entry(0, 0), A.entry(0, j)) + mul(X.entry(0, 1), A.entry(1, j)) for j in (0, 1)]
    return mul(row[0], R.entry(0, 1)) + mul(row[1], R.entry(1, 1))


def _sheared(R, phi):
    """R [[1, phi], [0, 1]] as the column update [R e1, R e2 + phi R e1]."""
    e1, e2 = (FourierMap(R.coeffs[..., j], R.period, entire=R.entire) for j in (0, 1))
    phi = phi.lift2() if R.period == 2 else phi
    return assemble([e1, e2 + mul(phi, e1)], R.period, R.entire and phi.entire)


def _conjugated(R, mats, shift):
    """adj(R(x + shift)) mats(x) R(x) at the points x_j = j / len(mats) of
    [0, 1); adj(R) is the inverse of the unimodular R."""
    n = len(mats)
    Rv = R.sample(R.period * n)[:n].real
    Rv_sh = R.sample(R.period * n, shift=shift)[:n].real
    return np.matmul(adjugate(Rv_sh), np.matmul(mats, Rv))


def _mu_from_iterate(R, lam, f, energy, alpha, sign):
    """Read l*mu from the corner of R^{-1}(x+l alpha) A_l(x) R(x), l = 64,
    on 1024 grid points x_i: the Schrodinger stack E - lam f(x_i + j alpha),
    j < l, runs through the orbit engine."""
    l, grid = 64, 1024
    x = np.arange(grid) / grid + alpha * np.arange(l)[:, None]
    steps = energy - _real_values(lam, f, x.ravel()).reshape(l, grid)
    P, logs = _propagate(steps, np.broadcast_to(np.eye(2), (grid, 2, 2)))
    corner = (np.exp(logs) * _conjugated(R, P, l * alpha)[:, 0, 1]).mean()
    return float(corner / (l * sign ** (l - 1)))


@dataclass(frozen=True)
class AverageIdentities:
    r11_sq: float
    r11_r12: float
    r12_sq: float
    shift_dev_21: float          # sup |R21(x+a) - s R11(x)|
    shift_dev_22: float          # sup |R22(x+a) - s R12(x) + mu R11(x)|
    wronskian_dev: float         # sup |R11(x+a)R12(x) - R12(x+a)R11(x) - s(1 + mu R11(x+a)R11(x))|
    symmetry_gap: float          # |[R11^2] - [R21^2]|
    lower_bound_ok: bool         # [R11^2] >= 1/(2 ||R||_0)
    gram_det: float              # [R11^2][R12^2] - [R11 R12]^2

    @property
    def averages(self):
        return (self.r11_sq, self.r11_r12, self.r12_sq)


def average_identities(reduction, freq):
    """Structural identities of the reducing map and the three frame averages.

    The row entries of the map at x and x + alpha hang together: the lower row
    shifted forward reproduces the upper row (up to sign and a mu-multiple),
    and the determinant relation pins the cross-Wronskian.  Averages are over
    the map's own period, so exact coefficient means agree with grid means.
    """
    R = reduction.R
    s = reduction.parabolic.sign
    mu = reduction.parabolic.mu
    alpha = freq.value
    Rv = R.sample(FINE_GRID).real
    Rs = R.sample(FINE_GRID, shift=alpha).real
    r11, r12 = Rv[:, 0, 0], Rv[:, 0, 1]
    r21 = Rv[:, 1, 0]
    s11, s12 = Rs[:, 0, 0], Rs[:, 0, 1]
    s21, s22 = Rs[:, 1, 0], Rs[:, 1, 1]

    a_r11_sq = float((r11**2).mean())
    a_r21_sq = float((r21**2).mean())
    a_r11_r12 = float((r11 * r12).mean())
    a_r12_sq = float((r12**2).mean())

    shift21 = float(np.abs(s21 - s * r11).max())
    shift22 = float(np.abs(s22 - (s * r12 - mu * r11)).max())
    wron = float(np.abs(s11 * r12 - s12 * r11 - s * (1.0 + mu * s11 * r11)).max())
    sup = float(np.abs(Rv).max())

    return AverageIdentities(
        r11_sq=a_r11_sq, r11_r12=a_r11_r12, r12_sq=a_r12_sq,
        shift_dev_21=shift21, shift_dev_22=shift22, wronskian_dev=wron,
        symmetry_gap=abs(a_r11_sq - a_r21_sq),
        lower_bound_ok=a_r11_sq >= 1.0 / (2.0 * sup) - 1e-12,
        gram_det=a_r11_sq * a_r12_sq - a_r11_r12**2,
    )


def perturbation_matrix(reduction, lam, f, energy, freq):
    """The first-order energy-perturbation matrix of the reduced cocycle.

    Closed form in the entries of the reducing map (sign-aware):
    [[ (s R12 - mu R11) R11,  (s R12 - mu R11) R12 ],
     [ -s R11^2,              -s R11 R12          ]]
    verified against R^{-1}(x+a) A^{E+eps}(x) R(x) = P + eps * pert on a grid,
    at eps = 1e-4, to a residual of 1e-8.
    """
    R = reduction.R
    s = reduction.parabolic.sign
    mu = reduction.parabolic.mu
    r11 = R.entry(0, 0)
    r12 = R.entry(0, 1)
    top = (float(s) * r12) - (mu * r11)
    pert = assemble([[mul(top, r11), mul(top, r12)],
                     [-float(s) * mul(r11, r11), -float(s) * mul(r11, r12)]],
                    R.period, False).trim(1e-16).collapse1(tol=1e-7)

    alpha = freq.value
    A_eps = schrodinger_cocycle(lam, f, energy + 1e-4)
    lhs = _conjugated(R, A_eps.sample(A_eps.period * CHECK_GRID)[:CHECK_GRID].real, alpha)
    rhs = reduction.parabolic.matrix[None, :, :] + 1e-4 * pert.sample(CHECK_GRID).real
    resid = float(np.abs(lhs - rhs).max())
    if resid > 1e-8:
        raise ArithmeticError(f"perturbation identity residual {resid:.2e} above 1e-08")
    return pert


def gap_edge_epsilon(averages, parabolic):
    """The certified energy step off the upper gap edge.

    eps = -2 mu_eff [R11^2] / ([R11^2][R12^2] - [R11 R12]^2) with
    mu_eff = sign * mu (> 0 at a genuine upper edge), so eps < 0 and |eps|
    bounds the gap width from above.
    """
    r11, r1112, r12 = averages
    den = r11 * r12 - r1112**2
    if den <= 0.0:
        raise ArithmeticError(f"average Gram determinant {den:.3e} is not positive")
    if parabolic.collapsed:
        return 0.0
    mu_eff = parabolic.sign * parabolic.mu
    return -2.0 * mu_eff * r11 / den


def elliptic_normalize(D):
    """Conjugate a trace-free D with det D > 0 and D[0,1] < 0 to the rotation
    generator sqrt(det D) * [[0, -1], [1, 0]] by the explicit unit-determinant
    Q built from the entries, checked to 1e-12 relative."""
    D = np.asarray(D, dtype=float)
    if abs(D[0, 0] + D[1, 1]) > 1e-10 * max(1.0, np.abs(D).max()):
        raise ValueError("matrix must be trace-free")
    det = float(np.linalg.det(D))
    d1, d2 = D[0, 0], D[0, 1]
    if det <= 0.0:
        raise ValueError(f"det = {det:.3e} <= 0: not in the elliptic regime")
    if d2 >= 0.0:
        raise ValueError(f"upper-right entry {d2:.3e} >= 0: wrong orientation")
    root = det**0.25
    s = math.sqrt(-d2)
    Q = np.array([[0.0, s / root], [-root / s, d1 / (root * s)]])
    target = math.sqrt(det) * np.array([[0.0, -1.0], [1.0, 0.0]])
    got = np.linalg.inv(Q) @ D @ Q
    if np.abs(got - target).max() > 1e-12 * max(1.0, math.sqrt(det)):
        raise ArithmeticError("normalization defect above tolerance")
    return Q, math.sqrt(det)


@dataclass(frozen=True)
class ShiftCheck:
    differs: bool
    rho_edge: float
    rho_shifted: float


def rotation_shift_check(e_edge, eps_m, freq, lam, f):
    """Whether the rotation number moves between E and E + eps_m, compared
    within 3 (err1 + err2).

    A genuine (non-collapsed) gap must see the rotation number change when
    stepping across its certified width bound; a collapsed gap (eps_m = 0)
    must not.  Both energies are measured in one cocycle.rotation_numbers
    call on a shared orbit of at most SHIFT_MAX_ITERATIONS steps; near a
    tiny gap the capped pair may end flagged.  The dossier certifies the
    crossing from the dual pair (`duality.PairPartner.crossing_margin`),
    takes rho(E) from the gap label and measures only E + eps_m, to this
    cap (to the full one when a rotation form reads the shift).
    """
    r1, r2 = rotation_numbers(lam, f, freq, [e_edge, e_edge + eps_m],
                              max_iterations=SHIFT_MAX_ITERATIONS)
    bars = 3.0 * (r1.error + r2.error) + 1e-12
    return ShiftCheck(differs=abs(r1.value - r2.value) > bars,
                      rho_edge=r1.value, rho_shifted=r2.value)
