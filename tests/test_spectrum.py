import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpgaps import arithmetic as ar
from qpgaps import spectrum as sp
from qpgaps.cocycle import (amo_potential, rotation_number, rotation_numbers,
                            schrodinger_cocycle)
from qpgaps.errors import QPGapsError, SpectrumError
from qpgaps.fourier import FourierMap

from oracles import (four_solve_hulls, hausdorff_distance, holder_check_measuring_all,
                     real_trig_potentials)


def test_free_operator_single_band(golden, amo):
    bs = sp.band_structure(0.0, amo, (55, 89))
    assert len(bs.bands) == 1
    lo, hi = bs.bands[0]
    assert lo == pytest.approx(-2.0, abs=1e-10)
    assert hi == pytest.approx(2.0, abs=1e-10)


def plain_bloch_eigenvalues(lam, f, p, q, theta, bc):
    """Reference: the dense q x q Jacobi matrix in site order, with boundary
    sign bc (+1 periodic, -1 antiperiodic), solved by eigvalsh.  Site n is
    summed directly at its exact phase theta + ((n p) mod q)/q, independently
    of `sample`."""
    ns = np.arange(q)
    H = np.diag(lam * f(theta + ((ns * p) % q) / q).real)
    if q == 1:
        H[0, 0] += 2.0 * bc
    elif q == 2:
        H[0, 1] = H[1, 0] = 1.0 + bc
    else:
        idx = np.arange(q - 1)
        H[idx, idx + 1] = H[idx + 1, idx] = 1.0
        H[0, q - 1] = H[q - 1, 0] = bc
    return np.linalg.eigvalsh(H)


def plain_floquet_edges(lam, f, p, q, theta):
    """Reference: the periodic and antiperiodic dense problems' eigenvalues,
    sorted together."""
    return np.sort(np.concatenate([plain_bloch_eigenvalues(lam, f, p, q, theta, bc)
                                   for bc in (+1.0, -1.0)]))


def random_trig(seed):
    """A random real trigonometric polynomial of degree 4."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    return FourierMap(0.5 * (c + c[::-1].conj()))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), q=st.integers(1, 64), theta=st.floats(0.0, 1.0),
       lam=st.floats(-3.0, 3.0), trig=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_floquet_edges_match_dense_reference(amo, data, q, theta, lam, trig, seed):
    """The banded solve gives the dense reference's edges for every q, the
    merged couplings of q = 1 and q = 2 included, for the AMO potential and
    for random real trigonometric polynomials."""
    p = data.draw(st.integers(0, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    f = random_trig(seed) if trig else amo
    got = sp.floquet_edges(lam, f, p, q, theta)
    ref = plain_floquet_edges(lam, f, p, q, theta)
    assert got.shape == ref.shape == (2 * q,)
    assert np.abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize("q, p, theta, seed", [(48, 47, 0.8, 3), (987, 610, 0.3 / 987, None)],
                         ids=["trig-47-48", "amo-610-987"])
def test_floquet_edges_use_exact_sites(amo, q, p, theta, seed):
    """Two cases where sites at the rounded phases theta + k (p/q) put the
    edges about 3e-12 off the exact-site reference (lambda = 3): the seed-3
    random trigonometric potential at 47/48, and AMO at 610/987."""
    f = random_trig(seed) if seed is not None else amo
    got = sp.floquet_edges(3.0, f, p, q, theta)
    assert np.abs(got - plain_floquet_edges(3.0, f, p, q, theta)).max() <= 1e-12


def test_half_frequency_matches_trace_oracle(amo):
    """alpha = 1/2: band condition |tr A_2| <= 2 with the hand-derived trace
    (E - f1)(E - f2) - 2, solved per theta by a quartic root finder."""
    lam = 1.0
    bs = sp.band_structure(lam, amo, (1, 2), theta_samples=64)

    def oracle_bands(theta):
        f1 = lam * 2 * math.cos(2 * math.pi * theta)
        f2 = lam * 2 * math.cos(2 * math.pi * (theta + 0.5))
        # (E - f1)(E - f2) - 2 = +-2
        edges = []
        for rhs in (2.0, -2.0):
            roots = np.roots([1.0, -(f1 + f2), f1 * f2 - 2.0 - rhs])
            edges.extend(np.sort(roots.real))
        e = np.sort(edges)
        return [(e[0], e[1]), (e[2], e[3])]

    pool = []
    for j in range(128):
        pool.extend(oracle_bands(j / 256.0))
    merged = []
    for lo, hi in sorted(pool):
        if merged and lo <= merged[-1][1] + 1e-9:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    assert len(merged) == len(bs.bands)
    for (a1, b1), (a2, b2) in zip(merged, bs.bands):
        assert a1 == pytest.approx(a2, abs=1e-6)
        assert b1 == pytest.approx(b2, abs=1e-6)


def test_amo_measure_regression(amo):
    bs = sp.band_structure(0.25, amo, (5, 8))
    assert bs.measure == pytest.approx(4 * (1 - 0.25), abs=5e-2)


def test_band_structure_rejects_unreduced_fraction(amo):
    with pytest.raises(ValueError):
        sp.band_structure(0.25, amo, (2, 4))


def test_ids_values(golden, amo):
    bs = sp.band_structure(0.25, amo, (5, 8))
    assert bs.gaps()[0].ids == Fraction(1, 8)


def test_free_operator_has_no_gap_records(golden, amo):
    bs = sp.band_structure(0.0, amo, (55, 89))
    assert sp.label_gaps(bs, golden) == []


def test_labels_distinct_and_congruent(golden, amo):
    bs = sp.band_structure(0.25, amo, (8, 13))
    recs = bs.gaps()
    labels = [r.label for r in recs]
    assert len(set(labels)) == len(labels)
    for r in recs:
        j = r.ids.numerator * (13 // r.ids.denominator)
        assert (r.label * 8 + j) % 13 == 0          # m p = -j (mod q)
        assert abs(r.label) <= 13 / 2


def test_first_gap_label_at_8_13(golden, amo):
    """IDS 1/13 at p/q = 8/13: solving m 8 = -1 (mod 13) gives |m| = 5."""
    bs = sp.band_structure(0.25, amo, (8, 13))
    recs = bs.gaps()
    first = min(recs, key=lambda r: r.e_minus)
    assert first.ids == Fraction(1, 13)
    assert abs(first.label) == 5


def test_low_label_rho_residuals_small(golden, amo):
    bs = sp.band_structure(0.25, amo, (144, 233))
    recs = sp.label_gaps(bs, golden)
    by_label = {r.label: r for r in recs}
    for m in (1, -1, 2, -2, 3, -3):
        assert by_label[m].rho_resid < 1e-6, (m, by_label[m].rho_resid)


def _rho_resid_at(energy, label, golden, amo):
    """label_gaps' measurement at RHO_TOL = 1e-4, taken at a given energy
    through the batched estimator label_gaps uses."""
    rr, = rotation_numbers(0.25, amo, golden, [energy], target_err=5e-6,
                           max_iterations=1 << 17)
    return ar.norm_dist(2.0 * rr.value - (label * golden.value) % 1.0), 2.0 * rr.value


def test_thin_gaps_measured_at_extrapolated_center(golden, amo):
    """At 144/233 gap m's midpoint sits about |m| * 8.2e-6 off the true gap in
    rotation units, past RHO_TOL = 1e-4 from |m| = 13 on: those labels are
    measured at the center extrapolated through 89/144, the rest (and every
    gap at 21/34, where |alpha - p/q| > RHO_TOL) at the midpoint."""
    assert sp.RHO_TOL == 1e-4
    bs = sp.band_structure(0.25, amo, (144, 233))
    recs = [r for r in sp.label_gaps(bs, golden) if not r.below_floor]
    thin = [r for r in recs if abs(r.label) >= 13]
    assert sorted(r.label for r in thin) == [-14, -13, 13, 14]
    for r in thin:
        assert r.rho_energy != r.midpoint()
        assert r.rho_resid < 1e-4 and not r.flagged
        resid, two_rho = _rho_resid_at(r.rho_energy, r.label, golden, amo)
        assert resid == r.rho_resid
        # still discriminating: every other label admissible at q = 233,
        # the neighbours m +- 1 included, misses the measured rho
        assert all(ar.norm_dist(two_rho - (m * golden.value) % 1.0) > 1e-4
                   for m in range(-116, 117) if m != r.label)
    for r in recs:
        if abs(r.label) <= 12:
            assert r.rho_energy == r.midpoint()
            assert r.rho_resid == _rho_resid_at(r.midpoint(), r.label, golden, amo)[0]

    bs34 = sp.band_structure(0.25, amo, (21, 34))
    recs34 = [r for r in sp.label_gaps(bs34, golden) if not r.below_floor]
    assert recs34
    for r in recs34:
        assert r.rho_energy == r.midpoint()
        assert r.rho_resid == _rho_resid_at(r.midpoint(), r.label, golden, amo)[0]


@pytest.fixture(scope="module")
def low_gaps_233(golden, amo):
    bs = sp.band_structure(0.25, amo, (144, 233))
    return {r.label: r for r in bs.gaps() if 1 <= abs(r.label) <= 4}


@settings(max_examples=20, deadline=None)
@given(label=st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), u=st.floats(0.25, 0.75))
def test_rho_locked_to_label_inside_gap(golden, amo, low_gaps_233, label, u):
    """2 rho = m alpha (mod 1) anywhere in the middle half of the gap labeled m.

    |m| >= 5 stay out: their 144/233 gaps are displaced from the true gaps by
    about |m| * 8.2e-6 in rotation units, comparable to their widths, so
    interior points of the approximant gap can lie in the true spectrum.
    """
    r = low_gaps_233[label]
    rr = rotation_number(schrodinger_cocycle(0.25, amo, r.e_minus + u * r.width), golden,
                         target_err=1e-8)
    assert ar.norm_dist(2.0 * rr.value - (label * golden.value) % 1.0) <= 1e-9


def test_gap_decay_fit_exact_exponential():
    fit = sp.gap_decay_fit({m: math.exp(-m) for m in range(1, 7)})
    assert fit.gamma == pytest.approx(1.0, abs=1e-9)
    assert fit.residual < 1e-9


def test_gap_decay_fit_needs_enough_records():
    with pytest.raises(ValueError):
        sp.gap_decay_fit({1: 0.5})


def test_gap_decay_fit_excludes_collapsed():
    widths = {m: math.exp(-m) for m in range(1, 7)}
    fit = sp.gap_decay_fit({**widths, 9: 0.0})
    assert (9, "collapsed") in fit.excluded


def test_gap_decay_fit_excludes_widths_below_the_floor():
    widths = {m: math.exp(-m) for m in range(1, 7)}
    fit = sp.gap_decay_fit({**widths, 9: 0.5 * sp.WIDTH_FLOOR})
    assert fit.excluded == ((9, "below double-precision floor"),)
    assert fit.floored and 9 not in dict(fit.used)
    assert not sp.gap_decay_fit(widths).floored


def test_homogeneity_free_operator(golden, amo):
    bs = sp.band_structure(0.0, amo, (55, 89))
    res = sp.homogeneity_scan(bs, 0.1)
    assert res.min_ratio == pytest.approx(1.0, abs=1e-6)
    assert abs(abs(res.argmin_energy) - 2.0) < 1e-6
    # interior point sees the full window
    assert sp.window_band_measure(bs.bands, 0.0, 0.1) / 0.1 == pytest.approx(2.0)


def test_homogeneity_ratio_range(golden, amo):
    bs = sp.band_structure(0.25, amo, (34, 55))
    for sigma in (0.05, 0.01):
        res = sp.homogeneity_scan(bs, sigma)
        assert 0.0 <= res.min_ratio <= 2.0


def test_homogeneity_minimum_between_band_endpoints(amo):
    """At lam = 1 the least window ratio sits at a kink E = endpoint + sigma
    inside a band, away from every band endpoint."""
    bs = sp.band_structure(1.0, amo, (144, 233))
    res = sp.homogeneity_scan(bs, 1e-3)
    assert res.min_ratio == 0.2131446018220906
    assert res.argmin_energy == -2.3448095752310376
    assert sp.window_band_measure(bs.bands, res.argmin_energy, 1e-3) / 1e-3 == res.min_ratio


@st.composite
def band_lists(draw):
    """Sorted disjoint closed intervals in [-4, 4], plus energies inside them:
    drawn ones and a grid of 32 per band."""
    ends = sorted(draw(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=30, unique=True)))
    bands = tuple(zip(ends[0:-1:2], ends[1::2]))
    picks = draw(st.lists(st.tuples(st.integers(0, len(bands) - 1), st.floats(0.0, 1.0)),
                          min_size=1, max_size=20))
    grid = [e for a, b in bands for e in np.linspace(a, b, 32).tolist()]
    return bands, [bands[i][0] + u * (bands[i][1] - bands[i][0]) for i, u in picks] + grid


@settings(max_examples=200, deadline=None)
@given(case=band_lists(), sigma=st.floats(1e-2, 4.0))
def test_homogeneity_scan_is_the_minimum(case, sigma):
    bands, energies = case
    bs = sp.BandStructure(approximant=(0, 1), lam=0.0, potential=None, bands=bands,
                          theta_grid=4)
    res = sp.homogeneity_scan(bs, sigma)
    assert any(a <= res.argmin_energy <= b for a, b in bands)
    assert sp.window_band_measure(bands, res.argmin_energy, sigma) / sigma == res.min_ratio
    assert 0.0 <= res.min_ratio <= 2.0
    for e in energies:
        assert res.min_ratio <= sp.window_band_measure(bands, e, sigma) / sigma + 1e-12


def test_gap_separation_exact_distances():
    recs = [
        sp.GapRecord(1, 0.0, 0.5, Fraction(1, 10)),
        sp.GapRecord(2, 2.0, 2.25, Fraction(2, 10)),
    ]
    rep = sp.gap_separation_check(recs, beta=0.0)
    assert rep.all_positive
    assert rep.pairs[0][1] == pytest.approx(1.5)
    assert rep.min_rescaled == pytest.approx(1.5)


def test_gap_separation_beta_zero_is_raw(golden, amo):
    bs = sp.band_structure(0.25, amo, (13, 21))
    recs = bs.gaps()
    rep0 = sp.gap_separation_check(recs, beta=0.0)
    assert rep0.all_positive
    raw = min(p[1] for p in rep0.pairs)
    assert rep0.min_rescaled == pytest.approx(raw)


def test_holder_pairs_keep_their_draw_order(golden, amo):
    """Every pair is drawn (e1, separation, sign) before any is measured; seed
    9's 64 pairs keep their order, so the maximum sits at the same pair."""
    rep = sp.holder_check(0.25, amo, golden, e_pairs=64, seed=9, rho_target_err=1e-7)
    assert rep.argmax_pair == (1.5081641269724946, 1.600436814001971)
    assert rep.pairs_used == 64


def test_holder_quotient_free_case(golden, amo):
    rep = sp.holder_check(0.0, amo, golden, e_pairs=48, seed=1)
    # closed form: quotient peaks near 1/(2 pi) at the band edge
    assert 0.0 < rep.max_quotient < 1.0


@settings(max_examples=40, deadline=None)
@given(f=real_trig_potentials(), lam=st.floats(-1.0, 1.0), past=st.floats(0.0, 3.0),
       upper=st.booleans())
@example(f=None, lam=0.25, past=0.0, upper=False)
@example(f=None, lam=0.0, past=0.0, upper=False)
def test_rho_past_the_norm_bound_is_zero_or_a_half(golden, amo, f, lam, past, upper):
    """Past norm_bound every step's diagonal is >= 2 (or <= -2), so rho is
    exactly 0 above the spectrum and 1/2 below it.  The measured orbit reads
    that to the rounding of its weighted sum, or within its own error bar
    where the bound touches the spectrum: at lam = 0 (or for a nearly constant
    potential) E = +-bound is a parabolic band edge, and 16384 steps miss
    rho = 1/2 there by 1.6e-9 with a bar of 5.8e-9."""
    f = amo if f is None else f
    bound = sp.norm_bound(lam, f)
    energy = bound + past if upper else -bound - past
    r = rotation_numbers(lam, f, golden, [energy])[0]
    assert abs(r.value - (0.0 if upper else 0.5)) <= max(1e-14, r.error)


@pytest.mark.parametrize("lam,pairs,seed", [(0.25, 64, 9), (0.25, 64, 23), (0.0, 48, 1)])
def test_holder_exact_branch_matches_measuring_every_energy(golden, amo, lam, pairs, seed):
    """Taking rho = 0 or 1/2 past the norm bound, instead of measuring it,
    leaves the maximum quotient and its pair as they were."""
    rep = sp.holder_check(lam, amo, golden, e_pairs=pairs, seed=seed, rho_target_err=1e-7)
    best, arg = holder_check_measuring_all(lam, amo, golden, pairs, seed, 1e-7)
    assert rep.max_quotient == pytest.approx(best, rel=0.0, abs=1e-15)
    assert rep.argmax_pair == arg


def test_hausdorff_distance_intervals():
    a = [(0.0, 1.0)]
    b = [(0.0, 0.4), (0.6, 1.0)]
    assert hausdorff_distance(a, b) == pytest.approx(0.1)
    assert hausdorff_distance(a, a) == 0.0


def test_band_unions_converge_along_convergents(golden, amo):
    pqs = [(8, 13), (13, 21), (21, 34), (34, 55)]
    unions = [sp.band_structure(0.25, amo, pq).bands for pq in pqs]
    dists = [hausdorff_distance(a, b) for a, b in zip(unions, unions[1:])]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))


def test_gap_csv_roundtrip_format(golden, amo):
    bs = sp.band_structure(0.25, amo, (8, 13))
    recs = bs.gaps()
    text = sp.gaps_to_csv(recs)
    header, first = text.splitlines()[:2]
    assert header == sp.GAP_CSV_HEADER
    assert len(first.split(",")) == 7


def test_extended_precision_refinement_agrees(golden, amo, monkeypatch):
    bs = sp.band_structure(0.25, amo, (34, 55))
    recs = {r.label: r for r in bs.gaps()}
    r = recs[5]
    monkeypatch.setattr(sp, "EXTENDED_DPS", 40)
    refined = sp.refine_gap_extended(bs, r)
    assert abs(refined.e_minus - r.e_minus) < 1e-11
    assert abs(refined.e_plus - r.e_plus) < 1e-11
    assert refined.label == r.label and refined.ids == r.ids


def test_measure_bound_breach_raises_typed_error(amo, monkeypatch):
    monkeypatch.setattr(sp.BandStructure, "measure", property(lambda self: 1e9))
    with pytest.raises(QPGapsError) as err:
        sp.band_structure(0.25, amo, (5, 8))
    assert isinstance(err.value, SpectrumError)
    assert err.value.check == "measure-bound"


def test_repeated_labels_raise_typed_error(golden, amo, monkeypatch):
    bs = sp.band_structure(0.25, amo, (5, 8))
    monkeypatch.setattr(sp, "_label_from_ids", lambda j, p, q: 0)
    with pytest.raises(QPGapsError) as err:
        sp.label_gaps(bs, golden)
    assert isinstance(err.value, SpectrumError)
    assert err.value.check == "distinct-labels"


def test_extended_refinement_of_the_thinnest_gaps_at_233(golden, amo):
    """At 144/233 the theta = 0 trace at the m = 16 midpoint is
    -2.0000000000000000035: in the gap only when compared at extended
    precision, not after rounding to a double."""
    bs = sp.band_structure(0.25, amo, (144, 233))
    recs = {r.label: r for r in bs.gaps()}
    for m in (15, 16):
        r = recs[m]
        refined = sp.refine_gap_extended(bs, r)
        assert refined.label == m and refined.ids == r.ids
        assert abs(refined.e_minus - r.e_minus) < 1e-13
        assert abs(refined.e_plus - r.e_plus) < 1e-13


def test_extended_refinement_names_a_record_inside_a_band(amo):
    bs = sp.band_structure(0.25, amo, (5, 8))
    lo, hi = bs.bands[0]
    rec = sp.GapRecord(1, lo + 0.45 * (hi - lo), lo + 0.55 * (hi - lo), Fraction(1, 8))
    with pytest.raises(SpectrumError) as info:
        sp.refine_gap_extended(bs, rec)
    assert info.value.check == "extended-slice"


def test_localized_union_keeps_at_most_q_intervals():
    """lambda = 1 for V = 2 cos 2 pi x + 0.6 cos 4 pi x: the bands move farther
    than their own widths between sampled phases, so the sampled bands alone
    leave thousands of holes that bands at other phases fill."""
    v = FourierMap.from_coeff_dict({1: 1.0, -1: 1.0, 2: 0.3, -2: 0.3})
    bs = sp.band_structure(1.0, v, (89, 144))
    assert len(bs.bands) <= 144 and not bs.flagged


@pytest.mark.parametrize("coeffs, solves, problems, theta_grid", [
    ({1: 1.0, -1: 1.0}, 0, 2, 2),
    ({1: 1.0, -1: 1.0, 2: 0.3, -2: 0.3}, 5, 0, 8),
    ({1: 1.0, -1: 1.0, 2: 0.3j, -2: -0.3j}, 8, 0, 8),
], ids=["amo", "even", "not-even"])
def test_even_potentials_solve_each_mirror_pair_once(monkeypatch, coeffs, solves, problems,
                                                     theta_grid):
    """At 144/233 the phase grid exits at T = 8: phases {0, 1, 2} of T = 4 and
    {1, 3} of T = 8 for an even potential, all 8 for 2 cos 2 pi x - 0.6 sin
    4 pi x.  The reuse rests on equal edges at theta and 1/q - theta, which
    the sin term breaks.  AMO has band limit 1 and makes no Floquet solve:
    its two Chambers problems split into four tridiagonal solves."""
    import scipy.linalg
    f = FourierMap.from_coeff_dict(coeffs)
    calls, split, banded = [], [], []
    solve, mirror, eigvals = sp.floquet_edges, sp._mirror_edges, scipy.linalg.eigvals_banded

    def counted(*args):
        calls.append(args)
        return solve(*args)

    def counted_split(*args):
        split.append(args)
        return mirror(*args)

    def counted_banded(*args, **kwargs):
        banded.append(args)
        return eigvals(*args, **kwargs)

    monkeypatch.setattr(sp, "floquet_edges", counted)
    monkeypatch.setattr(sp, "_mirror_edges", counted_split)
    monkeypatch.setattr(scipy.linalg, "eigvals_banded", counted_banded)
    bs = sp.band_structure(0.25, f, (144, 233))
    assert len(calls) == solves and len(split) == problems and bs.theta_grid == theta_grid
    assert len(banded) == 2 * solves + 2 * problems
    theta = 0.37 / 233
    gap = np.abs(solve(1.0, f, 144, 233, theta) - solve(1.0, f, 144, 233, 1 / 233 - theta)).max()
    assert gap <= 1e-12 if solves < 8 else gap > 1e-6


def test_amo_union_makes_no_q_site_solve(monkeypatch, amo):
    """At 610/987 each of the four eigen-solves has at most ceil(q/2) + 1
    sites: the mirror split halves both Chambers problems."""
    import scipy.linalg
    sizes = []
    eigvals = scipy.linalg.eigvals_banded

    def counted_banded(ab, **kwargs):
        sizes.append(ab.shape[1])
        return eigvals(ab, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvals_banded", counted_banded)
    monkeypatch.setattr(sp, "floquet_edges", None)
    bs = sp.band_structure(0.25, amo, (610, 987))
    assert sorted(sizes) == [493, 493, 494, 494] and bs.theta_grid == 2


def inside_union(bs, edges):
    """Every band (edges[2i], edges[2i+1]) lies in one interval of bs.bands,
    up to 1e-12: a solve at another phase rounds its edges differently."""
    return all(any(a - 1e-12 <= lo and hi <= b + 1e-12 for a, b in bs.bands)
               for lo, hi in zip(edges[::2], edges[1::2]))


def test_amo_union_holds_the_bands_at_an_off_grid_phase(amo):
    """For AMO the edges are extremal at theta = 0 or 1/(2q), which every
    phase grid holds, so no phase adds to the union."""
    bs = sp.band_structure(1.5, amo, (144, 233))
    assert inside_union(bs, sp.floquet_edges(1.5, amo, 144, 233, 0.37 / 233))


SMALL_CONVERGENTS = sorted({pq for freq in (ar.golden_mean(), ar.sqrt2_minus_1())
                            for pq in freq.convergents if pq[1] <= 34})


@settings(max_examples=60, deadline=None)
@given(pq=st.sampled_from(SMALL_CONVERGENTS), lam=st.floats(0.0, 3.0),
       f=st.one_of(st.just(None), real_trig_potentials()), u=st.floats(0.0, 1.0))
def test_band_union_invariants(amo, pq, lam, f, u):
    """The union is at most q intervals, cut between consecutive elementary
    bands; it holds every band at every sampled phase, and for AMO (f None)
    at any phase; each gap's label m solves m p = -j (mod q)."""
    p, q = pq
    f = amo if f is None else f
    bs = sp.band_structure(lam, f, pq)
    j = bs.bands_below
    assert len(bs.bands) <= q and len(j) == len(bs.bands) - 1
    assert list(j) == sorted(set(j)) and set(j) <= set(range(1, q))
    T = bs.theta_grid
    for k in range(T):
        assert inside_union(bs, sp.floquet_edges(lam, f, p, q, k / (T * q)))
    if f is amo:
        assert inside_union(bs, sp.floquet_edges(lam, f, p, q, u / q))
    for r, jr in zip(bs.gaps(), j):
        assert (r.label * p + jr) % q == 0 and r.ids == Fraction(jr, q)


def one_harmonic(c0, r, psi):
    """c0 + 2 r cos(2 pi x + psi)."""
    return FourierMap.from_coeff_dict({0: c0, 1: r * np.exp(1j * psi), -1: r * np.exp(-1j * psi)})


@pytest.mark.parametrize("lam, pq, count", [(1.5, (89, 144), 111), (3.0, (55, 89), 47)])
def test_phase_shifted_amo_has_the_amo_union(amo, lam, pq, count):
    """Shifting the potential's argument moves every phase by the same amount,
    so 2 cos(2 pi x + 0.7) has AMO's union over theta, band for band."""
    bs, ref = (sp.band_structure(lam, f, pq) for f in (one_harmonic(0.0, 1.0, 0.7), amo))
    assert len(ref.bands) == len(bs.bands) == count and not bs.flagged
    assert bs.bands_below == ref.bands_below
    assert np.abs(np.array(bs.bands) - np.array(ref.bands)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(pq=st.sampled_from(SMALL_CONVERGENTS), lam=st.floats(0.0, 3.0),
       c0=st.floats(-1.0, 1.0), r=st.floats(0.0, 1.5), psi=st.floats(0.0, 2 * math.pi),
       theta=st.floats(0.0, 1.0, exclude_max=True))
@example(pq=(0, 1), lam=1.0, c0=0.0, r=1.0, psi=3.0, theta=0.03125)
def test_one_harmonic_union_holds_the_bands_at_every_phase(pq, lam, c0, r, psi, theta):
    """For band limit 1 the two solved phases carry every hull end, so the
    bands at any phase lie inside the union.  The explicit example is
    2 cos(2 pi x + 3) at q = 1, whose union is [-4, 4]: no dyadic phase j/T
    hits its extremes, which sit at theta = -3/(2 pi) + k/2."""
    p, q = pq
    f = one_harmonic(c0, r, psi)
    bs = sp.band_structure(lam, f, pq)
    assert bs.theta_grid == 2 and not bs.flagged
    assert inside_union(bs, sp.floquet_edges(lam, f, p, q, theta))


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 3.0])
def test_amo_union_matches_an_eight_phase_grid(amo, lam):
    """The two-phase AMO union equals the union over the phases j/(8q)."""
    p, q = 89, 144
    edges = np.array([sp.floquet_edges(lam, amo, p, q, j / (8 * q)) for j in range(8)])
    lo, hi = edges[:, 0::2].min(axis=0), edges[:, 1::2].max(axis=0)
    cut = np.flatnonzero(lo[1:] > hi[:-1] + sp.MERGE_TOL) + 1
    bs = sp.band_structure(lam, amo, (p, q))
    assert bs.bands_below == tuple(cut.tolist())
    ref = np.column_stack([lo[np.r_[0, cut]], hi[np.r_[cut - 1, q - 1]]])
    assert np.abs(np.array(bs.bands) - ref).max() <= 1e-12


CHAMBERS_CASES = dict(q=st.integers(1, 64), lam=st.floats(-3.0, 3.0), c0=st.floats(-1.0, 1.0),
                      r=st.floats(0.0, 1.5), psi=st.floats(0.0, 2 * math.pi))


def coprime_p(data, q):
    return data.draw(st.sampled_from([p for p in range(q) if math.gcd(p, q) == 1]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), **CHAMBERS_CASES)
@example(data=None, q=7, lam=0.0, c0=0.3, r=1.0, psi=2.0)
@example(data=None, q=12, lam=-1.5, c0=0.0, r=1.0, psi=0.7)
def test_mirror_split_matches_the_dense_problem_at_the_chambers_phases(data, q, lam, c0, r,
                                                                      psi):
    """Each half-size split gives the eigenvalues of the whole q-site problem:
    periodic at theta_p = -psi/(2 pi) (+ 1/2 for lam < 0), where lam Re f
    peaks, and antiperiodic at theta_p + 1/(2q), for both parities of q."""
    p = 1 if data is None else coprime_p(data, q)
    f = one_harmonic(c0, r, psi)
    theta_p = -psi / (2 * math.pi) + (0.5 if lam < 0 else 0.0)
    for bc, theta in ((1.0, theta_p), (-1.0, theta_p + 0.5 / q)):
        got = np.sort(sp._mirror_edges(lam, f, p, q, theta_p, bc))
        assert np.abs(got - plain_bloch_eigenvalues(lam, f, p, q, theta, bc)).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(data=st.data(), **CHAMBERS_CASES)
def test_two_split_problems_give_the_four_solve_hulls(data, q, lam, c0, r, psi):
    """The hull ends of every elementary band, from the two problems that
    band_structure solves, equal those of both boundary conditions at both
    Chambers phases.  Compared per elementary band, so a gap near MERGE_TOL
    cannot flip the comparison."""
    from unittest import mock
    p = coprime_p(data, q)
    f = one_harmonic(c0, r, psi)
    with mock.patch.object(sp, "_mirror_edges", wraps=sp._mirror_edges) as spy:
        bs = sp.band_structure(lam, f, (p, q))
    edges = np.sort(np.concatenate([sp._mirror_edges(*c.args) for c in spy.call_args_list]))
    lo, hi = four_solve_hulls(lam, f, p, q)
    assert spy.call_count == 2 and len(edges) == 2 * q
    assert np.abs(edges[0::2] - lo).max() <= 1e-12 and np.abs(edges[1::2] - hi).max() <= 1e-12
    assert bs.bands[0][0] == edges[0] and bs.bands[-1][1] == edges[-1]
