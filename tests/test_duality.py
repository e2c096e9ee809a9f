import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qpgaps import duality as du
from qpgaps import spectrum as sp
from qpgaps.cocycle import rotation_number, schrodinger_cocycle
from qpgaps.errors import BlochError
from qpgaps.fourier import FourierMap

from oracles import amo_gap_law, dual_ids, real_trig_potentials


def test_dual_banded_free_is_diagonal(golden, amo):
    ab = du._dual_banded(0.0, amo, golden, 0.17, 8)
    assert ab.dtype == float
    assert np.abs(ab[:-1]).max() == 0.0
    ns = np.arange(-8, 9)
    assert np.allclose(ab[-1], 2 * np.cos(2 * math.pi * (0.17 + ns * golden.value)))


def test_dual_banded_amo_tridiagonal(golden, amo):
    lam = 0.25
    ab = du._dual_banded(lam, amo, golden, 0.3, 6)
    assert ab.shape == (2, 13) and ab.dtype == float
    assert ab[0, 0] == 0.0 and np.all(ab[0, 1:] == lam)


def test_dual_banded_hermitian_for_complex_coefficients(golden):
    """2 sin 2 pi x has f_{+-1} = -+i: entry (n, n - k) is lam f_k, the upper
    band stores lam f_{-k} in complex storage, and the spectrum is that of
    the dense operator built from the definition."""
    lam, trunc = 0.25, 6
    sin = FourierMap.from_coeff_dict({1: -1j, -1: 1j})
    ab = du._dual_banded(lam, sin, golden, 0.3, trunc)
    assert ab.dtype == complex and np.all(ab[0, 1:] == lam * 1j)
    ns = np.arange(-trunc, trunc + 1)
    H = np.diag(2 * np.cos(2 * math.pi * (0.3 + ns * golden.value))).astype(complex)
    H[np.arange(1, 2 * trunc + 1), np.arange(2 * trunc)] = lam * sin.coeff(1)
    H[np.arange(2 * trunc), np.arange(1, 2 * trunc + 1)] = lam * sin.coeff(-1)
    assert np.abs(H - H.conj().T).max() == 0.0
    banded = scipy.linalg.eig_banded(ab, lower=False, eigvals_only=True)
    assert np.abs(banded - np.linalg.eigvalsh(H)).max() < 1e-13


def test_find_bloch_for_a_complex_coefficient_potential(golden, amo):
    """2 sin 2 pi x is the AMO potential shifted by a quarter period, so its
    dual eigenpair at the same target has AMO's energy and phase."""
    sin = FourierMap.from_coeff_dict({1: -1j, -1: 1j})
    a = du.find_bloch(0.25, amo, golden, -0.5)
    b = du.find_bloch(0.25, sin, golden, -0.5)
    assert b.energy == pytest.approx(a.energy, rel=1e-13)
    assert b.theta == pytest.approx(a.theta, abs=1e-9)
    assert b.duality_residual < 1e-12


def test_find_bloch_free_case(golden, amo, monkeypatch):
    E = 2 * math.cos(2 * math.pi * 0.3)
    sol = du.find_bloch(0.0, amo, golden, E, trunc=32)
    assert sol.energy == pytest.approx(E, abs=1e-9)
    assert sol.theta == pytest.approx(0.3, abs=1e-8)
    assert sol.duality_residual < 1e-12
    # delta mass at the center
    mags = np.abs(sol.u_hat)
    assert mags[sol.trunc] == 1.0
    assert np.sort(mags)[-2] < 1e-9


def _gap_144(amo):
    """The m = 1 approximant gap at 89/144."""
    return [r for r in sp.band_structure(0.25, amo, (89, 144)).gaps() if r.label == 1][0]


def test_find_bloch_normalization_bound(amo, upper_edge):
    sol = upper_edge(_gap_144(amo), (89, 144))
    assert np.abs(sol.u_hat).max() <= 1.0 + 1e-9
    assert sol.u_hat[sol.trunc] == 1.0


def test_find_bloch_decay_stable_under_doubling(amo, upper_edge, monkeypatch):
    rec = _gap_144(amo)
    rates = []
    for t in (64, 128):
        monkeypatch.setattr(du, "DUAL_MAX_TRUNC", 2 * t)      # one doubling at most
        rates.append(upper_edge(rec, (89, 144), t).decay_rate)
    assert all(r < 0 for r in rates)
    assert rates[0] == pytest.approx(rates[1], rel=0.2)


def test_detect_resonance_trivial_cases(golden, monkeypatch):
    monkeypatch.setattr(du, "RESONANCE_N_MAX", 4)
    sol = du.BlochSolution(energy=0.0, theta=(golden.value / 2.0) % 1.0,
                           u_hat=np.array([1.0 + 0j]), trunc=0)
    assert du.detect_resonance(sol, golden) == 1
    sol0 = du.BlochSolution(energy=0.0, theta=0.0,
                            u_hat=np.array([1.0 + 0j]), trunc=0)
    assert du.detect_resonance(sol0, golden) == 0


def test_detect_resonance_none_when_far(golden, monkeypatch):
    monkeypatch.setattr(du, "RESONANCE_N_MAX", 3)
    monkeypatch.setattr(du, "RESONANCE_TOL", 1e-8)
    sol = du.BlochSolution(energy=0.0, theta=0.123456, u_hat=np.array([1.0 + 0j]),
                           trunc=0)
    assert du.detect_resonance(sol, golden) is None
    assert sol.resonance_dist > 1e-8


def test_assemble_wave_free_constant(golden, amo, monkeypatch):
    monkeypatch.setattr(du, "RESONANCE_N_MAX", 4)
    sol = du.find_bloch(0.0, amo, golden, 2.0, trunc=16)
    du.detect_resonance(sol, golden)
    assert sol.n_tilde == 0
    wave = du.assemble_wave(sol, 0.0, amo, golden)
    assert wave.sign == 1
    assert wave.residual < 1e-7
    assert wave.U_hat.period == 2
    # n_tilde = 0: the twist is trivial, so U_hat is the lift of a 1-periodic wave
    assert wave.U_hat.collapse1().period == 1


def test_assembled_wave_periods_and_parity(golden, amo, upper_edge):
    sol = upper_edge(_gap_144(amo), (89, 144))
    du.snap_to_resonance(sol, 0.25, amo, golden)
    wave = du.assemble_wave(sol, 0.25, amo, golden)
    # support parity: U_hat coefficients live on indices with the parity of n
    ks = np.arange(-wave.U_hat.band_limit, wave.U_hat.band_limit + 1)
    mags = np.abs(wave.U_hat.coeffs).max(axis=1)
    wrong = mags[(ks % 2) != (wave.n_tilde % 2)]
    assert wrong.max(initial=0.0) < 1e-14
    assert wave.sign == (-1) ** (wave.parity_integer % 2)


def test_assemble_wave_rejects_a_sign_against_the_parity(golden, amo, monkeypatch):
    monkeypatch.setattr(du, "RESONANCE_N_MAX", 4)
    sol = du.find_bloch(0.0, amo, golden, 2.0, trunc=16)
    du.detect_resonance(sol, golden)

    def negated(lam, f, energy):
        # -A keeps the half-period relation exact and flips the measured sign
        return -1.0 * schrodinger_cocycle(lam, f, energy)

    monkeypatch.setattr(du, "schrodinger_cocycle", negated)
    with pytest.raises(BlochError, match="disagrees"):
        du.assemble_wave(sol, 0.0, amo, golden)


def test_real_imag_split_satisfies_relation(golden, amo, upper_edge):
    sol = upper_edge(_gap_144(amo), (89, 144))
    du.snap_to_resonance(sol, 0.25, amo, golden)
    wave = du.assemble_wave(sol, 0.25, amo, golden)
    A = schrodinger_cocycle(0.25, amo, sol.energy)
    xs = np.arange(512) / 512.0
    for part in (wave.U_hat.real_part(), wave.U_hat.imag_part()):
        lhs = np.einsum("nij,nj->ni", A(xs).real, part(xs).real)
        rhs = wave.sign * part(xs + golden.value).real
        scale = max(np.abs(part.sample(512)).max(), 1e-30)
        assert np.abs(lhs - rhs).max() / scale < 1e-7


def test_dual_ids_matches_direct_rotation_number(golden, amo):
    lam = 0.25
    for E in (-1.2, 0.4):
        n_dual = dual_ids(lam, amo, golden, E, trunc=96, theta_samples=24)
        r = rotation_number(schrodinger_cocycle(lam, amo, E), golden, target_err=1e-6)
        n_direct = 1.0 - 2.0 * r.value
        assert n_dual == pytest.approx(n_direct, abs=2.0 / 193 + 0.02)


def test_find_bloch_deterministic(golden, amo, monkeypatch):
    E = 2 * math.cos(2 * math.pi * 0.41)
    a = du.find_bloch(0.0, amo, golden, E, trunc=32)
    b = du.find_bloch(0.0, amo, golden, E, trunc=32)
    assert a.energy == b.energy
    assert a.theta == b.theta
    assert np.array_equal(a.u_hat, b.u_hat)


def test_find_bloch_solves_one_phase(golden, amo, monkeypatch):
    """The phase is the rotation number, so no theta search: one banded solve
    at the starting truncation and one per doubling of `_refine`."""
    calls = []
    original = scipy.linalg.eig_banded
    monkeypatch.setattr(scipy.linalg, "eig_banded",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    du.find_bloch(0.25, amo, golden, -0.5)
    assert len(calls) <= 4


def test_find_bloch_names_a_flagged_rotation_number(golden, amo):
    """At lam = 2 the Schrodinger side is supercritical: rho(-0.5) exhausts its
    orbit budget and comes back flagged, and no dual eigenvalue sits near E
    at theta = rho, so the error names that rho and the identity's regime."""
    with pytest.raises(BlochError, match=r"flagged \(error bar .* after \d+ steps\).*"
                                         r"subcritical: no interior dual eigenvalue"):
        du.find_bloch(2.0, amo, golden, -0.5)


@pytest.mark.parametrize("energy, member", [(0.77, "upper"), (-0.9, "lower")])
def test_find_bloch_in_a_gap_lands_on_the_nearer_edge(golden, amo, energy, member):
    """In the m = +-1 gaps the rotation number is the gap's, 2 rho = +-alpha
    (mod 1), and the dual eigenvalue nearest the energy at that phase is the
    nearer edge that the pair search finds."""
    pq = (89, 144)
    rec = [r for r in sp.band_structure(0.25, amo, pq).gaps() if r.e_minus < energy < r.e_plus][0]
    assert abs(rec.label) == 1
    edge = du.find_bloch_resonant(0.25, amo, golden, (rec.e_minus, rec.e_plus), rec.label, pq,
                                  member, du.DUAL_START_N)
    sol = du.find_bloch(0.25, amo, golden, energy)
    assert sol.energy == pytest.approx(edge.energy, abs=1e-9)
    assert abs(du.detect_resonance(sol, golden)) == 1


def _gap_233(golden, amo, label):
    """The approximant gap with `label` at 144/233, and the approximant."""
    bs = sp.band_structure(0.25, amo, (144, 233), e_resolution=1e-12)
    rec = [r for r in bs.gaps() if r.label == label][0]
    return (rec.e_minus, rec.e_plus), (144, 233)


def test_find_bloch_resonant_at_displaced_m7_gap(golden, amo):
    # the 144/233 m = 7 gap lies ~2.3e-4 below the approximant's, 30 times
    # its width; the pair search still lands on its upper edge
    gap, pq = _gap_233(golden, amo, 7)
    sol = du.find_bloch_resonant(0.25, amo, golden, gap, 7, pq, "upper", 128)
    assert sol.u_hat[sol.trunc] == 1.0
    assert np.abs(sol.u_hat).max() <= 1.0
    assert sol.duality_residual < 1e-12
    assert du.detect_resonance(sol, golden) == -7
    du.snap_to_resonance(sol, 0.25, amo, golden)
    assert sol.resonance_dist == 0.0


@pytest.mark.parametrize("member", ["upper", "lower"])
@pytest.mark.parametrize("m", [1, 3, 7])
def test_pair_search_returns_its_resonance(golden, amo, m, member):
    """The pair search knows the n it solved at: its n_tilde is the one
    detect_resonance finds on the same solution."""
    gap, pq = _gap_233(golden, amo, m)
    sol = du.find_bloch_resonant(0.25, amo, golden, gap, m, pq, member, 128)
    n_tilde = sol.n_tilde
    assert n_tilde is not None and abs(n_tilde) == m
    assert du.detect_resonance(sol, golden) == n_tilde


@settings(max_examples=100, deadline=None)
@given(f=real_trig_potentials(), lam=st.floats(0.01, 1.0),
       theta=st.floats(0.0, 1.0, exclude_max=True), trunc=st.integers(16, 64))
def test_mirror_phase_has_the_same_interior_spectrum(golden, f, lam, theta, trunc):
    """For a real potential the dual operator at -theta is antiunitarily
    equivalent to the one at theta ((Ru)_n = conj u_{-n}), so the pair search
    needs only the phases (m alpha + j)/2 and not their mirrors: both keep
    the same interior eigenvalues."""
    top = 2.0 + lam * float(np.abs(f.coeffs).sum())
    here, _ = du._interior_eigs(lam, f, golden, theta, trunc, -top - 1.0, top + 1.0)
    mirror, _ = du._interior_eigs(lam, f, golden, -theta % 1.0, trunc, -top - 1.0, top + 1.0)
    assert len(here) == len(mirror)
    assert np.abs(here - mirror).max(initial=0.0) <= 1e-12 * max(1.0, top)


def test_pair_width_follows_the_amo_gap_law(golden, amo):
    """The pair's splitting w = E - E' at weak coupling misses the one-path
    law 2 lam^m / prod 4 |sin pi k alpha sin pi (m-k) alpha| from below at
    order lam^2: halving lam divides the relative miss by 4."""
    miss = {}
    for lam in (0.05, 0.025):
        gaps = sp.band_structure(lam, amo, (144, 233)).gaps()
        for m in (1, 2, 3, 5):
            rec = next(r for r in gaps if r.label == m)
            sol = du.find_bloch_resonant(lam, amo, golden, (rec.e_minus, rec.e_plus), m,
                                         (144, 233), "upper", du.DUAL_START_N)
            w = sol.energy - sol.partner.energy
            miss[lam, m] = w / amo_gap_law(lam, m, golden.value) - 1.0
    for m in (1, 2, 3, 5):
        assert -2e-3 < miss[0.05, m] < 0.0
        assert 3.9 <= miss[0.05, m] / miss[0.025, m] <= 4.1


@pytest.mark.parametrize("f", [FourierMap.from_coeff_dict({1: 1.0, -1: 1.0}),
                               FourierMap.from_coeff_dict({1: -1j, -1: 1j})],
                         ids=["amo", "complex coefficients"])
def test_slope_matches_a_central_difference(golden, f):
    theta, trunc, h = 0.137, 64, 1e-5
    vals, vecs = du._interior_eigs(0.25, f, golden, theta, trunc, -1.0, 1.0)
    plus, _ = du._interior_eigs(0.25, f, golden, theta + h, trunc, -1.1, 1.1)
    minus, _ = du._interior_eigs(0.25, f, golden, theta - h, trunc, -1.1, 1.1)
    checked = 0
    for k, e in enumerate(vals):
        if np.sort(np.abs(vals - e))[1] < 1e-3:
            continue                  # only isolated eigenvalues have a slope
        diff = (plus[np.argmin(np.abs(plus - e))] - minus[np.argmin(np.abs(minus - e))]) / (2 * h)
        assert du._slope(golden, theta, trunc, vecs[:, k]) == pytest.approx(diff, rel=1e-6,
                                                                            abs=1e-6)
        checked += 1
    assert checked >= 10


def test_find_bloch_resonant_skips_branches_crossing_at_the_phase(golden, amo):
    # at theta = (alpha + 1)/2, trunc 128, two branches cross at E ~ -0.50080552
    # moving at -+0.873 in theta: a symmetric difference quotient reads ~0
    # there, but each branch's own eigenvector gives its slope.  The crossing
    # lies inside the upper window of the m = 1 gap at 144/233, and the
    # resonant edge wins instead
    theta_c = (golden.value + 1.0) / 2.0
    vals, vecs = du._interior_eigs(0.25, amo, golden, theta_c, 128, -0.5009, -0.5007)
    slopes = sorted(du._slope(golden, theta_c, 128, vecs[:, k]) for k in range(len(vals)))
    assert slopes == pytest.approx([-0.8728, 0.8728], abs=1e-4)
    gap, pq = _gap_233(golden, amo, 1)
    assert abs(-0.5008055186 - gap[1]) < 8.2e-4       # the search reaches 8.24e-4 at 144/233
    sol = du.find_bloch_resonant(0.25, amo, golden, gap, 1, pq, "upper", 128)
    assert sol.energy == pytest.approx(-0.5014840613, abs=1e-9)
    assert du.detect_resonance(sol, golden) == -1


def test_find_bloch_resonant_far_from_spectrum(golden, amo):
    with pytest.raises(BlochError):
        du.find_bloch_resonant(0.25, amo, golden, (10.0, 10.5), 7, (144, 233), "upper", 64)


def test_resonant_refinement_raises_when_doubling_loses_the_pair(golden, amo, monkeypatch):
    interior_eigs = du._interior_eigs

    def lost_above_128(lam, f, freq, theta, trunc, e_lo, e_hi):
        w, v = interior_eigs(lam, f, freq, theta, trunc, e_lo, e_hi)
        return (w, v) if trunc <= 128 else (w[:0], v[:, :0])

    gap, pq = _gap_233(golden, amo, 7)
    sol = du.find_bloch_resonant(0.25, amo, golden, gap, 7, pq, "upper", 128)
    assert sol.trunc > 128
    monkeypatch.setattr(du, "_interior_eigs", lost_above_128)
    with pytest.raises(BlochError, match="trunc 256"):
        du.find_bloch_resonant(0.25, amo, golden, gap, 7, pq, "upper", 128)


def test_snap_needs_a_resonance(golden, amo):
    sol = du.BlochSolution(energy=0.0, theta=0.123456, u_hat=np.array([1.0 + 0j]),
                           trunc=0)
    assert sol.n_tilde is None
    with pytest.raises(BlochError, match="no resonance"):
        du.snap_to_resonance(sol, 0.25, amo, golden)


def test_snap_raises_when_the_eigenvalue_left_the_pair(golden, amo, monkeypatch):
    """The snap follows the searched pair within `_refine`'s windows: with
    every dual eigenvalue reported 1e-4 above its true value, the nearest
    one is another eigenpair, and the snap raises instead of returning it."""
    interior_eigs = du._interior_eigs

    def shifted(lam, f, freq, theta, trunc, e_lo, e_hi):
        w, v = interior_eigs(lam, f, freq, theta, trunc, e_lo - 1e-4, e_hi - 1e-4)
        return w + 1e-4, v

    gap, pq = _gap_233(golden, amo, 1)
    sol = du.find_bloch_resonant(0.25, amo, golden, gap, 1, pq, "upper", 128)
    monkeypatch.setattr(du, "_interior_eigs", shifted)
    with pytest.raises(BlochError, match="no interior dual eigenvalue within 1.0e-06"):
        du.snap_to_resonance(sol, 0.25, amo, golden)


def _padded_residual(golden, amo, theta, energy, vec):
    """||(H - E) v|| / ||v|| of `vec` on sites -trunc..trunc zero-padded into
    a 4x truncation at phase theta, with the operator built densely from the
    banded storage."""
    trunc = (len(vec) - 1) // 2
    big, band = 4 * trunc, amo.band_limit
    ab = du._dual_banded(0.25, amo, golden, theta, big)
    H = np.diag(ab[band])
    for k in range(1, band + 1):
        H += np.diag(ab[band - k, k:], k) + np.diag(ab[band - k, k:].conj(), -k)
    v = np.zeros(2 * big + 1, dtype=complex)
    v[big - trunc:big + trunc + 1] = vec
    return np.linalg.norm(H @ v - energy * v) / np.linalg.norm(v)


@pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
def test_pair_partner_bound_holds_in_a_larger_truncation(golden, amo, m):
    """The pair's other member is the gap's lower edge, and its Weinstein
    bound covers the residual of its own eigenvector zero-padded into a 4x
    truncation.  The snap keeps it, and the wanted member's duality residual
    is the same bound, on its normalized coefficients at its own phase."""
    gap, pq = _gap_233(golden, amo, m)
    sol = du.find_bloch_resonant(0.25, amo, golden, gap, m, pq, "upper", 128)
    p = sol.partner
    assert p.energy < sol.energy
    residual = _padded_residual(golden, amo, p.theta, p.energy, p.vec)
    assert residual <= p.bound < 1e-13
    du.snap_to_resonance(sol, 0.25, amo, golden)
    assert sol.partner is p
    residual = _padded_residual(golden, amo, sol.theta, sol.energy, sol.u_hat)
    assert residual <= sol.duality_residual < 1e-13


def test_snapped_resonance_signs_are_pinned(golden, amo):
    """At an exact resonance the dual eigenvector has two mirror peaks of
    equal size, so the sign of a Bloch stage's n_tilde, m or -m, comes from
    the last bits of the eigenvector.  The 32 golden stages (m = 1-8, both
    edges, q_target 250), run as analyze_gap runs them, keep their signs;
    the bench pins -1, +3 and -7 of them."""
    expected = {
        (0.25, "upper"): [-1, 2, 3, 4, 5, 6, -7, -8],
        (0.25, "lower"): [1, 2, 3, 4, -5, 6, 7, -8],
        (0.1, "upper"): [-1, 2, 3, 4, 5, 6, -7, 8],
        (0.1, "lower"): [1, 2, 3, 4, -5, 6, 7, -8],
    }
    pq = golden.largest_convergent(250)
    got = {}
    for lam in (0.25, 0.1):
        gaps = sp.band_structure(lam, amo, pq).gaps()
        for member in ("upper", "lower"):
            got[lam, member] = []
            for m in range(1, 9):
                rec = next(r for r in gaps if r.label == m)
                sol = du.find_bloch_resonant(lam, amo, golden, (rec.e_minus, rec.e_plus), m,
                                             pq, member, du.DUAL_START_N)
                du.snap_to_resonance(sol, lam, amo, golden)
                got[lam, member].append(sol.n_tilde)
    assert got == expected


def test_crossing_margin_needs_the_partner_between_the_energies():
    """The margin is how far E + eps lies past [E' - r', E' + r'] on the far
    side from E, and -inf when that interval is not strictly on the step's
    side of E (a step the wrong way, or a partner within r' of E)."""
    p = du.PairPartner(energy=1.0, bound=0.01, theta=0.0, vec=np.ones(1))
    assert p.crossing_margin(1.5, -0.7) == pytest.approx(0.19)
    assert p.crossing_margin(1.5, -0.49) < 0.0
    assert p.crossing_margin(0.5, 0.7) == pytest.approx(0.19)
    assert p.crossing_margin(1.5, 0.7) == -math.inf
    assert p.crossing_margin(1.005, -0.7) == -math.inf
    assert p.crossing_margin(1.5, 0.0) == -math.inf
