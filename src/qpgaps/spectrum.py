"""Spectra of rational approximants, gap labeling and measurement campaigns.

For alpha = p/q the spectrum is the union over the phase theta of the q
Floquet bands; band edges are eigenvalues of the periodic and antiperiodic
q x q problems.  On the phase grid each is one banded solve of bandwidth 2
after the sites are interleaved as 0, 1, q-1, 2, q-2, ...  The per-theta
band set is (1/q)-periodic in theta (cyclic invariance of the transfer
trace), so the grid samples only theta in [0, 1/q): T distinct values there
carry the same information as T*q values around the whole circle.  For an
even potential (c_k = c_-k) reflecting the sites n -> -n maps the operator
at theta onto the one at -theta, antiperiodic twist included (it moves to
the mirror bond), so the two phases share their edges and each mirror pair
is solved once.  Over theta, elementary band i sweeps out one interval, its
hull, and the union is the q hulls cut wherever one ends below the next.
The hull ends are found on a doubling grid of phases, except for a
potential of band limit <= 1, lam Re f = lam c_0 + 2 |lam c_1| cos(2 pi
(x - theta_p)), AMO up to an energy shift and a phase: by Chambers' formula
its discriminant is D(E) - 2 |lam c_1|^q cos(2 pi q (theta - theta_p)), so
the union is {E : |D(E)| <= 2 + 2 |lam c_1|^q}.  Its lower hull ends and
upper hull ends together are the periodic edges at theta_p and the
antiperiodic edges at theta_p + 1/(2q), which give the union exactly.  At
both phases the sites are mirror symmetric, so each of the two problems
splits into two tridiagonal problems of about q/2 sites.

Gaps are labeled in one place, `BandStructure.gaps()`: the elementary band
count j below a gap, the position of its cut, gives its label m by the
index congruence.
`label_gaps` validates those records by rotation numbers, and every other
consumer of labels (the dossier, the decay campaign, the extended refinement)
reads `gaps()` directly.  The homogeneity scan and its gap sum read only the
band list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .arithmetic import norm_dist
from .cocycle import rotation_numbers
from .errors import SpectrumError

MERGE_TOL = 1e-12
WIDTH_FLOOR = 1e-12          # double-precision floor for trustworthy widths
RHO_SKIP_WIDTH = 1e-10       # gaps thinner than this skip the rotation check
RHO_TOL = 1e-4               # label_gaps' bound on |2 rho - m alpha| (mod 1)
EXTENDED_DPS = 50            # decimal digits of refine_gap_extended
# names how band_structure builds a union, for the cache keys of its results;
# the keys do not hash MERGE_TOL, so a new MERGE_TOL needs a new name here
UNION_METHOD = "band limit <= 1: two mirror-split Chambers problems; else a doubling phase grid"


@dataclass(frozen=True)
class BandStructure:
    approximant: tuple              # (p, q)
    lam: float
    potential: object               # FourierMap
    bands: tuple                    # ordered disjoint closed intervals (lo, hi)
    theta_grid: int                 # distinct theta values examined in [0, 1/q)
    bands_below: tuple = ()         # elementary bands below each gap, in gap order
    flagged: bool = False           # theta refinement budget exhausted

    @property
    def measure(self):
        return sum(b - a for a, b in self.bands)

    def gaps(self):
        """The open gaps between consecutive bands, in energy order, as
        unvalidated GapRecords: j elementary bands below give ids = j/q and
        the label m with 2 rho = m p/q (`_label_from_ids`), and a gap no
        wider than RHO_SKIP_WIDTH is below_floor.  SpectrumError
        "distinct-labels" when two gaps share a label."""
        p, q = self.approximant
        records = [GapRecord(_label_from_ids(j, p, q), lo, hi, Fraction(j, q),
                             below_floor=hi - lo <= RHO_SKIP_WIDTH)
                   for (_, lo), (hi, _), j in zip(self.bands, self.bands[1:], self.bands_below)]
        if len({r.label for r in records}) != len(records):
            raise SpectrumError("distinct-labels", "gap labels are not distinct")
        return records


def norm_bound(lam, f):
    """2 + |lam| sum |c_k|, with sum |c_k| >= sup |f|: the spectrum lies in
    [-bound, bound], and past it every step's diagonal E - lam f(x) is >= 2
    (E >= bound) or <= -2 (E <= -bound).  Then the cone {x >= y >= 0} is
    invariant, after the half-turn conjugation in the second case, so rho is
    exactly 0 or exactly 1/2 (Johnson-Moser 1982)."""
    return 2.0 + abs(lam) * f.l1_norm()


def bracket_interval(lam, f):
    bound = norm_bound(lam, f)
    return (-bound - 1.0, bound + 1.0)


def floquet_edges(lam, f, p, q, theta):
    """Sorted band edges at fixed theta: eigenvalues of the periodic and
    antiperiodic Bloch problems for the q-periodic approximant.

    The sites form a cycle, so after the interleaved order 0, 1, q-1, 2,
    q-2, ... every coupling lies within distance 2 of the diagonal, and each
    boundary condition is one banded solve of bandwidth 2.  Site k is the
    grid point theta + ((k p) mod q)/q of one f.sample, with no rounded phase.
    """
    import scipy.linalg
    ks = np.arange(q)
    row = np.where(ks <= q // 2, 2 * ks - 1, 2 * (q - ks))
    row[0] = 0
    diag = lam * f.sample(q, shift=theta)[(ks * p) % q].real
    # cycle edge (k, k+1 mod q) lands at (band offset, column) of the lower
    # storage; at q = 2 both edges share one entry, and at q = 1 the one edge
    # is a self-loop that counts twice on the diagonal
    nxt = row[(ks + 1) % q]
    off, col = np.abs(row - nxt), np.minimum(row, nxt)
    weight = np.where(off == 0, 2.0, 1.0)
    edges = []
    for bc in (+1.0, -1.0):
        ab = np.zeros((3, q))
        ab[0, row] = diag
        np.add.at(ab, (off, col), weight * np.where(ks == q - 1, bc, 1.0))
        edges.append(scipy.linalg.eigvals_banded(ab, lower=True))
    return np.sort(np.concatenate(edges))


def _mirror_edges(lam, f, p, q, theta_p, bc):
    """Eigenvalues of the periodic problem (bc = +1) at theta_p or of the
    antiperiodic one (bc = -1) at theta_p + 1/(2q), where lam Re f, of band
    limit <= 1, peaks at theta_p.

    There the sites are mirror symmetric, v_{c-k} = v_k, with c = 0 and c =
    -p^{-1} (mod q) respectively, c taken even for odd q.  With the boundary
    sign on a bond that k -> c - k fixes, the problem splits into a
    symmetric and an antisymmetric tridiagonal problem over the pairs
    {k, c - k}, k = c//2 + 1, ..., each one banded solve of bandwidth 1.
    For even c the reflection fixes site c/2, and also the opposite bond
    (odd q; it takes the sign) or site c/2 + q/2; for odd c it fixes bond
    (c//2, c//2 + 1), which takes the sign, and the opposite bond.  A fixed
    site couples to its pair by sqrt 2 in the symmetric sector and is absent
    from the antisymmetric one; a fixed bond of hopping t adds +t to its
    pair's diagonal in the symmetric sector and -t in the antisymmetric one.
    Below q = 3 there are no pairs and the problem is solved whole.
    """
    import scipy.linalg
    # grid values: site k is grid point (k p) mod q, as in floquet_edges
    v = lam * f.sample(q, shift=theta_p if bc > 0 else theta_p + 0.5 / q).real
    if q <= 2:
        # the cycle's bonds merge: a self-loop counted twice at q = 1, a double bond at q = 2
        sectors = [(v + (2.0 * bc if q == 1 else 0.0), np.full(q - 1, 1.0 + bc))]
    else:
        c = 0 if bc > 0 else -pow(p, -1, q) % q
        if q % 2 and c % 2:
            c += q
        h = c // 2
        n = q // 2 if c % 2 else (q - 1) // 2
        pair = v[((h + 1 + np.arange(n)) * p) % q]
        bond = np.zeros(n)               # hopping of a fixed bond, on its pair
        bond[-1] = bc if q % 2 else c % 2  # the far bond, opposite site h or bond (h, h + 1)
        if c % 2:
            bond[0] += bc                   # bond (h, h + 1)
        lead = [] if c % 2 else [v[(h * p) % q]]
        tail = [v[((h + n + 1) * p) % q]] if q % 2 == 0 and c % 2 == 0 else []
        root2 = math.sqrt(2.0)
        sectors = [(np.concatenate([lead, pair + bond, tail]),
                    np.concatenate([[root2] * len(lead), np.ones(n - 1), [root2] * len(tail)])),
                   (pair - bond, np.ones(n - 1))]
    return np.concatenate([scipy.linalg.eigvals_banded(np.vstack([d, np.append(o, 0.0)]), lower=True)
                           for d, o in sectors])


def band_structure(lam, f, p_over_q, theta_samples=None, e_resolution=MERGE_TOL):
    """Union of Floquet bands over the phase for the approximant p/q.

    The sorted edges e_k(theta) are continuous in theta, so the union over
    theta of elementary band i is one interval, its hull [min e_2i, max
    e_2i+1], and both hull ends are nondecreasing in i: the union breaks
    between bands i and i + 1 exactly where hull i ends more than
    e_resolution below hull i + 1, and that gap has i + 1 bands below.
    theta_samples counts grid points around the full circle; after reduction
    by the (1/q)-periodicity, T = max(4, theta_samples/q) phases j/(Tq) are
    solved, then T doubles, at most five times, solving only the new phases,
    until the union is stable to e_resolution (band count and edge
    movement).  Bands still moving at that cap are flagged rather than
    silently accepted.  For an even potential (exactly c_k = c_-k) phase
    j/(Tq) reuses the edges of its mirror (T - j)/(Tq) = -theta (mod 1/q),
    solved in the same pass (reflection n -> -n, see the module note), so
    T = 4 -> 8 takes 5 solves rather than 8.

    A potential of band limit <= 1 is Re f = c_0 + 2|c_1| cos(2 pi x + psi),
    AMO shifted in energy and phase, and skips the grid: by Chambers'
    formula its discriminant is D(E) - 2 |lam c_1|^q cos(2 pi q (theta -
    theta_p)), where lam Re f peaks at theta_p = -psi/(2 pi), + 1/2 when lam
    < 0.  So the union is {E : |D(E)| <= 2 + 2 |lam c_1|^q}, and its 2q hull
    ends, sorted together, are the periodic edges at theta_p and the
    antiperiodic edges at theta_p + 1/(2q).  Those two problems are solved,
    each split by its mirror symmetry into two of about q/2 sites
    (`_mirror_edges`); theta_grid is 2, the union is never flagged and
    theta_samples is not read.  For AMO at lam >= 0, theta_p = 0.
    """
    p, q = p_over_q
    if q < 1 or math.gcd(p, q) != 1:
        raise ValueError("p/q must be a reduced fraction with q >= 1")
    t_count = max(4, -(-int(theta_samples) // q)) if theta_samples else 4
    tol = max(e_resolution, MERGE_TOL)
    even = np.array_equal(f.coeffs, f.coeffs[::-1])

    def solve(phases, T):
        edges = {}
        for j in phases:
            edges[j] = (edges[T - j] if even and T - j in edges
                        else floquet_edges(lam, f, p, q, j / (T * q)))
        return list(edges.values())

    def union(edges):
        lo, hi = edges[:, 0::2].min(axis=0), edges[:, 1::2].max(axis=0)
        cut = np.flatnonzero(lo[1:] > hi[:-1] + tol) + 1
        return np.column_stack([lo[np.r_[0, cut]], hi[np.r_[cut - 1, q - 1]]]), cut

    flagged = False
    if f.band_limit <= 1:
        # the solved potential Re f has c_1 = (f_1 + conj f_-1)/2 = |c_1| e^{i psi};
        # a negative lam turns its peak into a trough, half a period away
        theta_p = -np.angle(f.coeff(1) + np.conj(f.coeff(-1))) / (2 * np.pi) + (lam < 0) / 2
        t_count = 2
        edges = np.sort(np.concatenate([_mirror_edges(lam, f, p, q, theta_p, bc)
                                        for bc in (1.0, -1.0)]))
        bands, cut = union(edges[np.newaxis])
    else:
        edges = np.array(solve(range(t_count), t_count))      # (phases, 2q)
        bands, cut = union(edges)
        for _ in range(5):
            t_count *= 2
            edges = np.vstack([edges] + solve(range(1, t_count, 2), t_count))
            nxt, cut = union(edges)
            stable = nxt.shape == bands.shape and np.abs(nxt - bands).max() <= tol
            bands = nxt
            if stable:
                break
        else:
            flagged = True

    bs = BandStructure(
        approximant=(p, q), lam=lam, potential=f,
        bands=tuple(map(tuple, bands.tolist())),
        theta_grid=t_count,
        bands_below=tuple(cut.tolist()),
        flagged=flagged,
    )
    cap = 2.0 * norm_bound(lam, f)
    if bs.measure > cap + 1e-6:
        raise SpectrumError("measure-bound",
                            f"band measure {bs.measure} exceeds the norm bound {cap}")
    return bs


@dataclass(frozen=True)
class GapRecord:
    label: int
    e_minus: float
    e_plus: float
    ids: Fraction
    rho_resid: float = math.nan      # |{2 rho} - {m alpha}| at rho_energy
    flagged: bool = False            # rho residual above tolerance
    below_floor: bool = False        # width too small for the rotation check
    rho_energy: float = math.nan     # where rho was measured (midpoint or extrapolated)

    @property
    def width(self):
        return self.e_plus - self.e_minus

    def midpoint(self):
        return 0.5 * (self.e_minus + self.e_plus)

    def csv_row(self):
        return (
            f"{self.label},{self.e_minus!r},{self.e_plus!r},{self.width!r},"
            f"{self.ids.numerator},{self.ids.denominator},{self.rho_resid!r}"
        )

    def to_dict(self):
        return {
            "m": self.label,
            "E_minus": self.e_minus,
            "E_plus": self.e_plus,
            "width": self.width,
            "ids": [self.ids.numerator, self.ids.denominator],
            "rho_resid": None if math.isnan(self.rho_resid) else self.rho_resid,
            "flagged": self.flagged,
            "below_floor": self.below_floor,
        }


GAP_CSV_HEADER = "m,E_minus,E_plus,width,ids_num,ids_den,rho_resid"


def _label_from_ids(j, p, q):
    """The unique |m| <= q/2 with m p = -j (mod q) under N(E) = 1 - 2 rho."""
    m = (-pow(p, -1, q) * j) % q
    if m > q / 2:
        m -= q
    return m


def _previous_gap_midpoints(bs, freq):
    """(alpha - p0/q0, {label: gap midpoint}) at the convergent before bs's,
    or (nan, {}) when bs sits at the first convergent."""
    k = freq.convergents.index(bs.approximant)
    if k == 0:
        return math.nan, {}
    p0, q0 = freq.convergents[k - 1]
    prev = band_structure(bs.lam, bs.potential, (p0, q0))
    return freq.value - p0 / q0, {r.label: r.midpoint() for r in prev.gaps()}


def label_gaps(bs, freq):
    """bs.gaps(), each label validated by the rotation number of the
    true-frequency cocycle (records whose residual exceeds RHO_TOL are
    flagged, never dropped).

    The approximant's gap m sits at rotation level m p/q, not m alpha, so its
    midpoint is displaced from the true gap by about |m| |alpha - p/q| in
    rotation units.  rho is measured at the midpoint unless that
    displacement exceeds RHO_TOL while |alpha - p/q| itself does not; then it
    is measured at the gap center extrapolated linearly in delta = alpha - p/q
    to delta = 0 through the same label's gap at the previous convergent
    (whose band structure is built once, on first need), or at the midpoint
    when that convergent has no open gap with the label.  Every point is
    chosen before any measurement and does not depend on the target m alpha;
    rho_energy records it.  One cocycle.rotation_numbers call then measures
    them all, each targeting an error of min(RHO_TOL / 20, 1e-5) with
    max_iterations 2^17.  below_floor gaps keep a NaN residual.
    """
    p, q = bs.approximant
    if (p, q) not in set(freq.convergents):
        raise ValueError(f"approximant {p}/{q} is not a convergent of the frequency")
    delta = freq.value - p / q
    previous = None                  # _previous_gap_midpoints(...), on first need
    records = bs.gaps()
    energies = {}                    # record index -> measurement energy
    for i, r in enumerate(records):
        if r.below_floor:
            continue
        energy = mid = r.midpoint()
        if abs(delta) <= RHO_TOL < abs(r.label * delta):
            if previous is None:
                previous = _previous_gap_midpoints(bs, freq)
            delta0, mids = previous
            if r.label in mids:
                energy = mid - delta * (mid - mids[r.label]) / (delta - delta0)
        energies[i] = energy
    rhos = rotation_numbers(bs.lam, bs.potential, freq, list(energies.values()),
                            target_err=min(RHO_TOL / 20.0, 1e-5), max_iterations=1 << 17)
    for (i, energy), rr in zip(energies.items(), rhos):
        resid = norm_dist(2.0 * rr.value - (records[i].label * freq.value) % 1.0)
        records[i] = replace(records[i], rho_resid=resid, flagged=resid > RHO_TOL,
                             rho_energy=energy)
    return records


@dataclass(frozen=True)
class DecayFit:
    gamma: float
    residual: float                 # max |ln-width deviation| from the fit line
    rms_residual: float             # root-mean-square ln-width misfit
    used: tuple                     # (|m|, width) pairs entering the fit
    excluded: tuple = ()            # (|m|, reason)
    floored: bool = False           # some widths sat at the double-precision floor


def gap_decay_fit(widths):
    """Least squares of ln(width) against |m| over a {|m|: width} map; gamma
    is minus the slope.  Zero widths (collapsed) and widths below WIDTH_FLOOR
    are excluded."""
    table = {}
    excluded = []
    floored = False
    for m, w in widths.items():
        if w <= 0.0:
            excluded.append((m, "collapsed"))
        elif w < WIDTH_FLOOR:
            excluded.append((m, "below double-precision floor"))
            floored = True
        else:
            table[m] = w
    if len(table) < 4:
        raise ValueError(f"need >= 4 nonzero-width labels, have {len(table)}")
    ms = np.array(sorted(table))
    ys = np.log([table[m] for m in ms])
    slope, intercept = np.polyfit(ms, ys, 1)
    dev = ys - (slope * ms + intercept)
    return DecayFit(
        gamma=-float(slope), residual=float(np.abs(dev).max()),
        rms_residual=float(np.sqrt((dev**2).mean())),
        used=tuple((int(m), float(table[m])) for m in ms),
        excluded=tuple(excluded), floored=floored,
    )


def _trace_mp(sites, energy, dps):
    """Transfer trace tr A_q(E) in mpmath arithmetic, from the potential
    values lam f(x_n) at the q sites."""
    from mpmath import mp, mpf

    with mp.workdps(dps):
        E = mpf(energy)
        a11, a12, a21, a22 = mpf(1), mpf(0), mpf(0), mpf(1)
        for v in sites:
            t = E - v
            b11, b12 = t * a11 - a21, t * a12 - a22
            a21, a22 = a11, a12
            a11, a12 = b11, b12
        return a11 + a22


def refine_gap_extended(bs, record):
    """Re-resolve a gap's edges by bisection on |trace| - 2 in extended precision.

    Double precision floors widths near 1e-12; the trace excursion past the
    band condition survives in higher precision, so both crossings of the
    relevant level +-2 are bisected to ~10^(5-dps) absolute, dps =
    EXTENDED_DPS, in at most 200 steps each.  The bisection runs on the
    theta = 0 slice, whose potential values are summed once; elementary band i at theta = 0 lies inside its
    hull, so that slice holds every gap of the union.  When the slice's
    trace, compared with 2 at dps digits, puts the record's midpoint inside
    a band, SpectrumError names the check "extended-slice".
    """
    from mpmath import mp, mpf

    lam, f, dps = bs.lam, bs.potential, EXTENDED_DPS
    p, q = bs.approximant
    with mp.workdps(dps):
        sites = []
        for n in range(q):
            x, v = n * mpf(p) / q, mpf(0)
            for k in range(-f.band_limit, f.band_limit + 1):
                c = f.coeff(k)
                v += mp.re(mp.mpc(c.real, c.imag) * mp.expjpi(2 * k * x))
            sites.append(lam * v)
        mid = record.midpoint()
        if not abs(_trace_mp(sites, mid, dps)) > 2:
            raise SpectrumError("extended-slice",
                                f"gap m={record.label}: the theta = 0 trace at the midpoint "
                                f"{mid!r} is inside the band condition")

    def crossing(lo, hi):
        # sign change of |tr| - 2 between lo (inside gap) and hi (inside band)
        with mp.workdps(dps):
            a, b = mpf(lo), mpf(hi)
            fa = abs(_trace_mp(sites, a, dps)) - 2
            for _ in range(200):
                m = (a + b) / 2
                fm = abs(_trace_mp(sites, m, dps)) - 2
                if (fm > 0) == (fa > 0):
                    a, fa = m, fm
                else:
                    b = m
                if abs(b - a) < mpf(10) ** (-(dps - 5)):
                    break
            return (a + b) / 2

    pad = max(record.width, 1e-11)
    lo_edge = crossing(mid, record.e_minus - pad)
    hi_edge = crossing(mid, record.e_plus + pad)
    return replace(record, e_minus=float(lo_edge), e_plus=float(hi_edge),
                   below_floor=float(hi_edge) - float(lo_edge) < WIDTH_FLOOR)


def window_band_measure(bands, center, sigma):
    lo, hi = center - sigma, center + sigma
    return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in bands)


def window_gap_sum(bs, center, sigma):
    """Total width of the gaps between consecutive bands that meet the window
    (center - sigma, center + sigma): the bookkeeping the homogeneity
    argument runs on.  Reads only the band list, so no labels are needed."""
    lo, hi = center - sigma, center + sigma
    total = 0.0
    for (_, a), (b, _) in zip(bs.bands, bs.bands[1:]):
        if b > lo and a < hi:
            total += b - a
    return total


@dataclass(frozen=True)
class HomogeneityResult:
    sigma: float
    min_ratio: float
    argmin_energy: float


def homogeneity_scan(bs, sigma):
    """min over E in the bands of Leb((E-s, E+s) cap bands) / s, exactly.

    The window measure is continuous and piecewise linear in E, with kinks
    where E +- s meets a band endpoint, so on each band it is least at an
    endpoint or at an endpoint +- s inside the band.  Those candidates are
    scanned in increasing energy, each over the bands its window meets, and
    the first minimum wins.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    ends = np.asarray(bs.bands).ravel()
    kinks = np.concatenate([ends - sigma, ends + sigma])
    inside = np.searchsorted(ends, kinks, side="right") % 2 == 1
    cands = np.unique(np.concatenate([ends, kinks[inside]]))
    first = np.searchsorted(ends[1::2], cands - sigma)
    last = np.searchsorted(ends[::2], cands + sigma, side="right")
    ratios = [window_band_measure(bs.bands[i:j], e, sigma) / sigma
              for e, i, j in zip(cands.tolist(), first, last)]
    k = int(np.argmin(ratios))
    return HomogeneityResult(sigma=sigma, min_ratio=ratios[k], argmin_energy=float(cands[k]))


@dataclass(frozen=True)
class SeparationReport:
    min_rescaled: float             # empirical small constant in the distance bound
    min_pair: tuple
    all_positive: bool
    pairs: tuple                    # ((m, m'), distance, rescaled)


def gap_separation_check(records, beta=0.0):
    """Pairwise gap distances, rescaled by e^{8 beta |m'|} for |m'| >= |m|."""
    recs = [r for r in records if r.width > 0.0]
    if len(recs) < 2:
        raise ValueError("need at least two labeled gaps")
    rows = []
    best = math.inf
    best_pair = None
    ok = True
    for i, a in enumerate(recs):
        for b in recs[i + 1:]:
            lo_rec, hi_rec = (a, b) if abs(a.label) <= abs(b.label) else (b, a)
            dist = max(b.e_minus - a.e_plus, a.e_minus - b.e_plus, 0.0)
            if dist <= 0.0:
                ok = False
            rescaled = dist * math.exp(8.0 * beta * abs(hi_rec.label))
            rows.append(((a.label, b.label), dist, rescaled))
            if rescaled < best:
                best, best_pair = rescaled, (a.label, b.label)
    return SeparationReport(min_rescaled=best, min_pair=best_pair, all_positive=ok,
                            pairs=tuple(rows))


@dataclass(frozen=True)
class HolderReport:
    max_quotient: float
    argmax_pair: tuple
    pairs_used: int


def holder_check(lam, f, freq, e_pairs=64, seed=0, rho_target_err=1e-8):
    """Largest observed |d rho| / |dE|^(1/2) over sampled energy pairs.

    Each pair's first energy is uniform over bracket_interval, which reaches
    1 past norm_bound on each side, and its second lies a log-uniform
    distance in [1e-7, 1e-1] above or below it.  So some energies fall past
    the norm bound, where rho is exactly 0 or 1/2 and is taken so: at least
    2/7 of the first energies for lam = 0.25 AMO, drawn from [-3.5, 3.5]
    against a bound of 2.5.  All pairs are drawn first, then one
    cocycle.rotation_numbers call measures every energy inside the bound;
    the first pair attaining the maximum wins.
    """
    rng = np.random.default_rng(seed)
    lo, hi = bracket_interval(lam, f)
    energies = []
    for _ in range(e_pairs):
        e1 = rng.uniform(lo, hi)
        de = 10.0 ** rng.uniform(math.log10(1e-7), math.log10(1e-1))
        energies += [e1, e1 + de * rng.choice((-1.0, 1.0))]
    bound = norm_bound(lam, f)
    inside = [e for e in energies if abs(e) < bound]
    measured = iter(rotation_numbers(lam, f, freq, inside, target_err=rho_target_err))
    rhos = [next(measured).value if abs(e) < bound else 0.0 if e > 0.0 else 0.5
            for e in energies]
    best = 0.0
    arg = (math.nan, math.nan)
    for e1, e2, r1, r2 in zip(energies[::2], energies[1::2], rhos[::2], rhos[1::2]):
        quot = abs(r1 - r2) / math.sqrt(abs(e2 - e1))
        if quot > best:
            best, arg = quot, (e1, e2)
    return HolderReport(max_quotient=best, argmax_pair=arg, pairs_used=len(energies) // 2)


def bands_to_csv(bs):
    lines = [f"# p={bs.approximant[0]} q={bs.approximant[1]} lambda={bs.lam!r}",
             "band,lower,upper"]
    lines += [f"{i},{a!r},{b!r}" for i, (a, b) in enumerate(bs.bands)]
    return "\n".join(lines) + "\n"


def gaps_to_csv(records):
    return "\n".join([GAP_CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


def gaps_to_jsonl(records):
    return "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in records) + "\n"
