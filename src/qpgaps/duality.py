"""The long-range dual operator, its eigenpairs at gap edges, and Bloch data.

The dual of the Schrodinger operator acts on Fourier space: hopping by the
potential's modes k != 0, diagonal lam c_0 + 2 cos 2 pi (theta + n alpha).
At a gap edge the band function over theta attains an extremum; the
minimizing phase comes with an eigenvector localized around some site, which
after recentering gives the normalized Bloch coefficients, u_0 = 1 >= |u_k|.

One path refines and normalizes every eigenpair once its phase is chosen:
`_refine` doubles the truncation at that phase, re-solving the interior
eigenpair nearest the previous eigenvalue (`_nearest_pair`), and
`_normalized` recenters and scales it into a `BlochSolution` with the
resonance integer of the phase it was solved at.  Every dual eigenpair
carries one certificate: every dual phase has spectrum Sigma, so the
Weinstein bound ||(H - E) v|| / ||v|| (`_weinstein_bound`) bounds
dist(E, Sigma); it is a solution's `duality_residual` and a pair partner's
`bound`.  Gap edges have one search: `find_bloch_resonant`, the dossier's
Bloch stage, solves the label's resonant phases 2 theta = m alpha once
each (for a real potential the mirror phases -theta carry the same
spectrum) and takes the pair of theta-extremal eigenvalues (`_slope`) that
are both edges of the gap.  The wanted member is refined, then re-solved at
the exact resonant phase and normalized once (`snap_to_resonance`); the
other is returned as the search solved it, with its bound (`PairPartner`),
from which the dossier certifies that its energy step crosses the gap.
`find_bloch`, which `qpgaps dual` runs from an energy with no label, takes
its phase from Aubry duality: at a reducible energy (the Schrodinger side
subcritical) the dual Bloch eigenvector sits at theta = rho(E), the fibered
rotation number, up to translations by alpha and the mirror -theta;
`detect_resonance` then looks for its resonance.  The decay fit
(`_decay_fit`) is computed only for bloch.json, by `BlochSolution.to_dict`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import norm_dist
from .cocycle import rotation_numbers, schrodinger_cocycle
from .errors import BlochError
from .fourier import FourierMap, mul
from .spectrum import norm_bound

DUAL_START_N = 128             # starting truncation of every dual search
DUAL_MAX_TRUNC = 4096
DUAL_TAIL_TOL = 1e-10
WAVE_GRID = 1024            # grid of the half-period wave relation in assemble_wave
THETA_XTOL = 1e-12          # error bar of find_bloch's rotation number
RESONANCE_N_MAX = 64        # detect_resonance tries |n| <= this
RESONANCE_TOL = 1e-5        # and accepts a circle distance below this
EDGE_MARGIN = 4             # fewest sites an eigenvector's peak keeps from each boundary
# half-widths of the energy windows tried in turn, by caller
_PROBE_WINDOWS = (0.5, 2.0, 8.0, 32.0)
_PAIR_WINDOWS = (1e-9, 1e-6)


def _dual_banded(lam, f, freq, theta, trunc):
    """Upper banded storage for scipy.linalg.eig_banded of the dual operator
    on sites -trunc..trunc: entry (n, n - k) is lam f_k, so the k-th upper
    band holds lam f_{-k}; the diagonal is 2 cos 2 pi (theta + n alpha) + lam f_0.
    Real coefficients keep real storage; otherwise the storage is complex
    (Hermitian, since a real potential has f_{-k} = conj(f_k))."""
    size = 2 * trunc + 1
    band = f.band_limit
    ns = np.arange(-trunc, trunc + 1)
    coeffs = [lam * f.coeff(k) for k in range(1, band + 1)]
    real = all(abs(c.imag) <= 1e-14 * max(abs(c), 1.0) for c in coeffs)
    ab = np.zeros((band + 1, size), dtype=float if real else complex)
    ab[band] = 2.0 * np.cos(2.0 * math.pi * (theta + ns * freq.value)) + (lam * f.coeff(0)).real
    for k, c in enumerate(coeffs, 1):
        ab[band - k, k:] = c.real if real else lam * f.coeff(-k)
    return ab


def _interior_eigs(lam, f, freq, theta, trunc, e_lo, e_hi):
    """Eigenpairs in the window whose vectors live away from the truncation
    boundary.  Truncating the dual operator plants spurious edge states inside
    spectral gaps; an honest localized eigenvector peaks well inside."""
    import scipy.linalg
    ab = _dual_banded(lam, f, freq, theta, trunc)
    w, v = scipy.linalg.eig_banded(ab, lower=False, select="v", select_range=(e_lo, e_hi))
    if len(w) == 0:
        return w, v
    peaks = np.abs(v).argmax(axis=0)
    keep = np.abs(peaks - trunc) <= trunc - max(EDGE_MARGIN, trunc // 4)
    return w[keep], v[:, keep]


def _nearest_pair(lam, f, freq, theta, trunc, energy, windows):
    """Interior eigenpair nearest `energy`, from the first half-width in
    `windows` whose window around it holds one; BlochError when none does."""
    for w in windows:
        vals, vecs = _interior_eigs(lam, f, freq, theta, trunc, energy - w, energy + w)
        if len(vals):
            k = int(np.argmin(np.abs(vals - energy)))
            return float(vals[k]), vecs[:, k]
    raise BlochError(f"no interior dual eigenvalue within {windows[-1]:.1e} of "
                     f"E={energy} at theta={theta} (trunc {trunc})")


@dataclass(frozen=True)
class PairPartner:
    """The other member of the pair a gap-edge search chose, unrefined: its
    eigenvalue at the search truncation, the phase it was solved at, its unit
    eigenvector on sites -trunc..trunc, and a Weinstein bound: the spectrum
    meets [energy - bound, energy + bound]."""
    energy: float
    bound: float
    theta: float
    vec: np.ndarray

    def crossing_margin(self, e_edge, eps_m):
        """How far e_edge + eps_m lies past [energy - bound, energy + bound],
        on the far side from e_edge; -inf unless that interval lies strictly
        on the step's side of e_edge.  A positive margin puts a point of the
        spectrum strictly between e_edge and e_edge + eps_m, so the rotation
        number differs there: it is constant only on gap closures and
        strictly monotone across the spectrum (Johnson-Moser 1982)."""
        s = math.copysign(1.0, eps_m)
        if s * (self.energy - e_edge) <= self.bound:
            return -math.inf
        return s * (e_edge + eps_m - self.energy) - self.bound


def _weinstein_bound(lam, f, freq, theta, energy, vec):
    """r with dist(energy, Sigma) <= r, from `vec` on sites -trunc..trunc
    zero-padded into l2(Z): every dual phase has spectrum Sigma, and
    dist(E, Sigma) <= ||(H - E) v|| / ||v||.  The untruncated operator moves
    only the `band` outermost sites at each end outside, by at most
    lam ||f||_1 times their l2 mass (Young), so r is the truncated residual
    plus that term plus a rounding allowance, over ||v||."""
    band, trunc = f.band_limit, (len(vec) - 1) // 2
    ns = np.arange(-trunc, trunc + 1)
    resid = np.convolve(lam * f.coeffs, vec)[band:band + len(vec)]
    resid += (2.0 * np.cos(2.0 * math.pi * (theta + ns * freq.value)) - energy) * vec
    l1 = lam * float(np.abs(f.coeffs).sum())
    spill = l1 * math.hypot(np.linalg.norm(vec[:band]), np.linalg.norm(vec[len(vec) - band:]))
    # the residual's sums (Young again), and each site's phase theta + n alpha,
    # off by about eps (|n alpha| + 1), which moves 2 cos by up to 4 pi times that
    eps = float(np.finfo(float).eps)
    rounding = eps * ((2 * band + 3) * (l1 + 2.0 + abs(energy)) + 4.0 * math.pi
                      * float(np.linalg.norm((np.abs(ns * freq.value) + 1.0) * vec)))
    return (float(np.linalg.norm(resid)) + spill + rounding) / float(np.linalg.norm(vec))


@dataclass
class BlochSolution:
    energy: float                # achieved dual eigenvalue
    theta: float                 # recentered phase in [0, 1)
    u_hat: np.ndarray            # coefficients, index k in [-trunc, trunc], u_hat[trunc] = 1
    trunc: int
    duality_residual: float = math.nan   # Weinstein bound: dist(energy, Sigma) <= this
    n_tilde: object = None       # resonance integer: 2 theta = n_tilde alpha (mod 1)
    resonance_dist: float = math.nan
    partner: PairPartner = None  # the gap's other edge, from find_bloch_resonant
    truncation_capped: bool = False  # _refine stopped at DUAL_MAX_TRUNC, unconverged

    def to_dict(self):
        decay_rate, decay_onset = _decay_fit(self.u_hat, self.trunc)
        return {
            "E": self.energy,
            "theta": self.theta,
            "trunc": self.trunc,
            "duality_residual": self.duality_residual,
            "decay_rate": decay_rate,
            "decay_onset": decay_onset,
            "n_tilde": self.n_tilde,
            "resonance_dist": None if math.isnan(self.resonance_dist) else self.resonance_dist,
        }


def _refine(lam, f, freq, theta, trunc, energy, vec):
    """Doubles the truncation at the fixed phase theta, re-solving the pair
    nearest the previous eigenvalue, until the eigenvalue moves by less than
    1e-9 and the outer quarters of the eigenvector sum to less than
    DUAL_TAIL_TOL, or the truncation reaches DUAL_MAX_TRUNC.  BlochError when
    a doubled truncation loses the eigenvalue.  Returns (energy, vec, trunc,
    capped), capped when the cap came first.
    """
    while trunc < DUAL_MAX_TRUNC:
        e_next, vec = _nearest_pair(lam, f, freq, theta, 2 * trunc, energy, _PAIR_WINDOWS)
        moved = abs(e_next - energy)
        energy, trunc = e_next, 2 * trunc
        quarter = (2 * trunc + 1) // 4
        tail = float(np.abs(vec[:quarter]).max() + np.abs(vec[-quarter:]).max())
        if moved < 1e-9 and tail < DUAL_TAIL_TOL:
            return energy, vec, trunc, False
    return energy, vec, trunc, True


def _normalized(lam, f, freq, theta, trunc, energy, vec, n, capped):
    """The eigenvector shifted to its largest entry n0 (theta moves by
    n0 alpha) and scaled so u_0 = 1, as a BlochSolution with its Weinstein
    bound and `_refine`'s cap flag.  A phase solved at the resonance
    2 theta = n alpha (n None: none known) keeps it: recentering by n0 sites
    moves 2 theta by 2 n0 alpha, so n_tilde = n + 2 n0."""
    center = int(np.argmax(np.abs(vec)))
    n0 = center - trunc
    if abs(vec[center]) < 1e-12:
        raise BlochError("dual eigenvector has no usable peak to normalize")
    src = np.arange(-trunc, trunc + 1) + n0
    ok = (src >= -trunc) & (src <= trunc)
    u_hat = np.zeros(2 * trunc + 1, dtype=complex)
    u_hat[ok] = vec[src[ok] + trunc]
    u_hat /= u_hat[trunc]
    if np.abs(u_hat).max() > 1.0 + 1e-6:
        raise BlochError("normalized Bloch coefficients exceed 1")
    sol = BlochSolution(energy=energy, theta=float((theta + n0 * freq.value) % 1.0),
                        u_hat=u_hat, trunc=trunc, truncation_capped=capped)
    sol.duality_residual = _weinstein_bound(lam, f, freq, sol.theta, energy, u_hat)
    if n is not None:
        sol.n_tilde = n + 2 * n0
        sol.resonance_dist = norm_dist(2.0 * sol.theta - sol.n_tilde * freq.value)
    return sol


def find_bloch(lam, f, freq, energy, trunc=DUAL_START_N):
    """Dual eigenpair at `energy`, solved at the phase Aubry duality assigns it.

    At a reducible energy, where the Schrodinger side is subcritical, the
    dual Bloch eigenvector sits at theta = rho(E), the fibered rotation number
    of the Schrodinger cocycle, up to the translations theta + n alpha that
    `_normalized` recenters and the mirror -theta, which for a real potential
    carries the same spectrum.  rho(E) comes from one `rotation_numbers` call
    to THETA_XTOL; the interior eigenpair nearest `energy` at that phase is
    solved at the starting truncation, `_refine` doubles the truncation
    (stopping rule in its docstring) and `_normalized` recenters the
    eigenvector at its largest entry (shifting theta by a multiple of alpha)
    and scales it so u_0 = 1, all |u_k| <= 1.  When no eigenpair is found
    and rho(E) came back flagged, the BlochError names that rho; past
    `spectrum.norm_bound` plus the widest probe window no truncated dual
    eigenvalue lies (Gershgorin), so such an energy is refused up front.
    Gap edges of a labeled gap come from `find_bloch_resonant` instead.
    """
    bound = norm_bound(lam, f) + _PROBE_WINDOWS[-1]
    if abs(energy) > bound:
        raise BlochError(f"no dual eigenvalue lies past {bound} = norm bound + window: E={energy}")
    rho = rotation_numbers(lam, f, freq, [energy], target_err=THETA_XTOL)[0]
    theta = rho.value
    try:
        e_star, vec = _nearest_pair(lam, f, freq, theta, trunc, energy, _PROBE_WINDOWS)
        e_star, vec, trunc, capped = _refine(lam, f, freq, theta, trunc, e_star, vec)
    except BlochError as exc:
        if not rho.flagged:
            raise
        raise BlochError(f"rho(E={energy}) = {theta} is flagged (error bar {rho.error:.1e} "
                         f"after {rho.iterations} steps), and theta = rho(E) holds only where "
                         f"the Schrodinger side is subcritical: {exc}") from exc
    return _normalized(lam, f, freq, theta, trunc, e_star, vec, None, capped)


def _slope(freq, theta, trunc, vec):
    """dE/dtheta = -4 pi sum_n |v_n|^2 sin 2 pi (theta + n alpha) of the dual
    eigenvalue with unit eigenvector `vec` on sites -trunc..trunc, by
    Hellmann-Feynman: only the diagonal depends on theta."""
    ns = np.arange(-trunc, trunc + 1)
    sines = np.sin(2.0 * math.pi * (theta + ns * freq.value))
    return float(-4.0 * math.pi * np.dot(np.abs(vec) ** 2, sines))


def find_bloch_resonant(lam, f, freq, gap, m, pq, member, trunc):
    """Dual eigenpair at the `member` ("upper" or "lower") edge of the gap
    with label m, from the edges `gap` of its p/q approximant `pq`.

    Both edges of the quasi-periodic gap share the rotation number, so both
    are dual eigenvalues at the resonant phases 2 theta = +-m alpha.  For a
    real potential the dual operator at -theta is antiunitarily equivalent to
    the one at theta ((Ru)_n = conj u_{-n}), so the phases
    theta = (m alpha + j)/2, j in {0, 1}, carry every such eigenvalue.  Each
    is solved once, within `reach` of the approximant edges, in one window
    when the gap is narrower than 2 reach.  Adjacent eigenvalues that are
    both theta-extremal (`_slope` at most 2e-2: an in-band eigenvalue, or a
    branch crossing another at that phase, moves at order-one speed) form a
    pair, scored by how far its splitting and midpoint miss the approximant
    gap's; the least score wins.  The wanted member is refined (`_refine`),
    then snapped to the exact resonant phase and normalized
    (`snap_to_resonance`), which recenters the resonance m it was solved at.
    The other member, the gap's other edge, comes back as
    `sol.partner` as the search solved it, with a Weinstein bound
    (`_weinstein_bound`) from its own eigenvector, so it costs no further
    solve.
    """
    e_minus, e_plus = gap
    width, mid = e_plus - e_minus, 0.5 * (e_minus + e_plus)
    # the approximant displaces tiny gaps by up to ~|alpha - p/q| times the
    # local state density (at most 50); the search reaches twice that
    reach = max(100.0 * abs(freq.value - pq[0] / pq[1]), 1e-6)
    lo, hi = e_minus - reach, e_plus + reach
    windows = [(lo, hi)] if width < 2.0 * reach else [(lo, e_minus + reach), (e_plus - reach, hi)]
    pairs = []
    for j in (0, 1):
        theta = ((m * freq.value + j) / 2.0) % 1.0
        solved = [_interior_eigs(lam, f, freq, theta, trunc, *w) for w in windows]
        vals = np.concatenate([w for w, _ in solved])
        vecs = np.concatenate([v for _, v in solved], axis=1)
        flat = np.array([abs(_slope(freq, theta, trunc, v)) <= 2e-2 for v in vecs.T], dtype=bool)
        for k in np.flatnonzero(flat[:-1] & flat[1:]):
            score = abs(vals[k + 1] - vals[k] - width) + abs(0.5 * (vals[k] + vals[k + 1]) - mid)
            pairs.append((score, theta, k, vals, vecs))
    if not pairs:
        raise BlochError(f"no theta-extremal dual eigenvalue pair within {reach:.1e} of the "
                         f"gap ({e_minus}, {e_plus}) at 2 theta = {m} alpha")
    _, theta, k, vals, vecs = min(pairs, key=lambda p: p[0])
    k, k_other = (k + 1, k) if member == "upper" else (k, k + 1)
    e_other, v_other = float(vals[k_other]), vecs[:, k_other]
    partner = PairPartner(energy=e_other, theta=theta, vec=v_other,
                          bound=_weinstein_bound(lam, f, freq, theta, e_other, v_other))
    energy, vec, trunc, capped = _refine(lam, f, freq, theta, trunc, float(vals[k]), vecs[:, k])
    sol = snap_to_resonance(lam, f, freq, theta, trunc, energy, vec, m, capped)
    sol.partner = partner
    return sol


def _decay_fit(u_hat, trunc):
    mags = np.abs(u_hat)
    ks = np.arange(-trunc, trunc + 1)
    onset = next((k0 for k0 in range(trunc) if mags[np.abs(ks) >= k0].max(initial=0.0) < 0.5),
                 trunc // 2)
    # stay above the eigensolver noise floor so the fitted rate is the decay,
    # not the flat numerical tail
    sel = (np.abs(ks) >= max(onset, 1)) & (mags > 1e-13)
    if sel.sum() < 4:
        return (math.nan, onset)
    slope = np.polyfit(np.abs(ks[sel]), np.log(mags[sel]), 1)[0]
    return (float(slope), onset)


def detect_resonance(sol, freq):
    """Integer n, |n| <= RESONANCE_N_MAX, with 2 theta = n alpha (mod 1) to
    within RESONANCE_TOL, or None if nothing passes.

    Returns the minimizing candidate and stores the achieved circle distance.
    Its one caller is `qpgaps dual`, whose phase comes with no label; the
    dossier's phase carries the resonance of its label from the pair search.
    """
    two_theta = (2.0 * sol.theta) % 1.0
    best_n, best_d = None, math.inf
    for n in range(-RESONANCE_N_MAX, RESONANCE_N_MAX + 1):
        d = norm_dist(two_theta - n * freq.value)
        if d < best_d - 1e-18 or (abs(d - best_d) <= 1e-18 and best_n is not None and abs(n) < abs(best_n)):
            best_n, best_d = n, d
    sol.resonance_dist = best_d
    if best_d < RESONANCE_TOL:
        sol.n_tilde = int(best_n)
        return sol.n_tilde
    sol.n_tilde = None
    return None


def snap_to_resonance(lam, f, freq, theta, trunc, energy, vec, n, capped):
    """The refined eigenpair (energy, vec) at theta, with 2 theta = n alpha,
    re-solved at the exact resonant phase and normalized.  Recentering at
    the peak n0 gives theta + n0 alpha and n~ = n + 2 n0, which carry
    rounding fuzz that would cap every downstream identity; the pair is
    re-solved at (n~ alpha + j)/2 within `_refine`'s windows, and an
    eigenvalue that moved by more than 1e-6 is another pair, a BlochError.
    """
    n0 = int(np.argmax(np.abs(vec))) - trunc
    n_tilde = n + 2 * n0
    j = round(2.0 * ((theta + n0 * freq.value) % 1.0) - n_tilde * freq.value)
    theta_s = ((n_tilde * freq.value + j) / 2.0) % 1.0
    e_star, vec = _nearest_pair(lam, f, freq, theta_s, trunc, energy, _PAIR_WINDOWS)
    # at an exact resonance the eigenvector has two mirror peaks of equal
    # size, so recentering may land on -n_tilde instead: the +-m tie.  The
    # sign each dossier reports comes from here, and the bench pins it
    return _normalized(lam, f, freq, theta_s, trunc, e_star, vec, n_tilde, capped)


@dataclass
class AssembledWave:
    U_hat: FourierMap           # period-2 wave e^{i pi n x} U(x) of the period-1 wave
                                # U(x) = (e^{2 pi i theta} u(x), u(x - alpha))
    sign: int                   # A(x) U_hat(x) = sign * U_hat(x+alpha)
    residual: float             # sup defect of that relation
    parity_integer: int         # round(2 theta - n alpha); sign = (-1)^parity
    n_tilde: int = 0


def assemble_wave(sol, lam, f, freq):
    """Builds the two-component wave and its half-period twist.

    The sign in A(x) U_hat(x) = +- U_hat(x+alpha) is (-1)^j with
    j = 2 theta - n alpha (an integer at resonance); it is measured from the
    grid residual, which must stay below 1e-6, and a measured sign that
    disagrees with that parity is a BlochError.
    """
    if sol.n_tilde is None:
        raise BlochError("Bloch solution carries no resonance integer")
    n_t = sol.n_tilde
    phase = np.exp(2j * math.pi * sol.theta)
    u_back = FourierMap(sol.u_hat, period=1, entire=False).shift(-freq.value)   # u(x - alpha)
    U = FourierMap(np.stack([phase * sol.u_hat, u_back.coeffs], axis=1), period=1, entire=False)
    U_hat = mul(FourierMap.harmonic(n_t, period=2), U.lift2())

    A = schrodinger_cocycle(lam, f, sol.energy)
    Av = A.sample(A.period * WAVE_GRID)[:WAVE_GRID]
    Uv = U_hat.sample(2 * WAVE_GRID)[:WAVE_GRID]     # x in [0, 1) of the period-2 wave
    Uv_sh = U_hat.sample(2 * WAVE_GRID, shift=freq.value)[:WAVE_GRID]
    lhs = np.einsum("nij,nj->ni", Av, Uv)
    scale = max(float(np.abs(Uv).max()), 1e-300)
    res_plus = float(np.abs(lhs - Uv_sh).max()) / scale
    res_minus = float(np.abs(lhs + Uv_sh).max()) / scale
    sign = 1 if res_plus <= res_minus else -1
    residual = min(res_plus, res_minus)
    parity = round(2.0 * sol.theta - n_t * freq.value)
    if residual > 1e-6:
        raise BlochError(f"half-period wave relation residual {residual:.2e} above 1.0e-06")
    if sign != (-1) ** parity:
        raise BlochError(f"measured wave sign {sign:+d} disagrees with (-1)^{parity} "
                         f"from 2 theta - n alpha")
    return AssembledWave(U_hat=U_hat, sign=sign, residual=residual,
                         parity_integer=parity, n_tilde=int(n_t))

