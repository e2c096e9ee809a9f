import math

import numpy as np
import pytest

from qpgaps import arithmetic as ar
from qpgaps import duality as du
from qpgaps import reducibility as red
from qpgaps import spectrum as sp
from qpgaps.cocycle import degree_of, schrodinger_cocycle
from qpgaps.errors import FrameError, SmallDivisorError
from qpgaps.fourier import DEFAULT_STRIP_TOL, FourierMap, matmul, mul

from oracles import (conjugated_reference, first_order_log_term, mu_iterate_reference,
                     sheared_reference)


def random_real_scalar(rng, band, scale=1.0):
    c = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
    return FourierMap(scale * 0.5 * (c + c[::-1].conj()))


def random_real_matrix(rng, band, scale=1.0):
    c = rng.standard_normal((2 * band + 1, 2, 2)) + 1j * rng.standard_normal((2 * band + 1, 2, 2))
    return FourierMap(scale * 0.5 * (c + c[::-1].conj()))


# ---- scalar homological equation -------------------------------------------

def test_scalar_solve_constant_is_zero(golden):
    phi = red.solve_homological_scalar(FourierMap.constant(4.2), golden)
    assert np.abs(phi.coeffs).max() == 0.0


def test_scalar_solve_cosine_coefficients(golden):
    phi = red.solve_homological_scalar(FourierMap.cosine(), golden, sign=1)
    d = np.exp(2j * math.pi * golden.value) - 1.0
    assert phi.coeff(1) == pytest.approx(0.5 / d, abs=1e-14)
    assert phi.coeff(-1) == pytest.approx(np.conj(0.5 / d), abs=1e-14)


@pytest.mark.parametrize("sign", [1, -1])
def test_scalar_solve_random_residuals(golden, sign):
    rng = np.random.default_rng(42 + sign)
    xs = np.arange(2048) / 2048.0
    for _ in range(20):
        band = int(rng.integers(2, 17))
        nu = random_real_scalar(rng, band)
        phi = red.solve_homological_scalar(nu, golden, sign=sign)
        lhs = sign * (phi(xs + golden.value) - phi(xs)).real
        rhs = (nu(xs) - nu.average()).real
        sup = max(np.abs(nu(xs)).max(), 1e-300)
        assert np.abs(lhs - rhs).max() < 1e-9 * sup


def _near_third(monkeypatch):
    """alpha = 1/3 + 1e-13 expanded in 40 digits, with the divisor cutoff
    raised to 1e-6, which |e^{6 pi i alpha} - 1| ~ 2e-12 breaches."""
    with monkeypatch.context() as mp:
        mp.setattr(ar, "DEFAULT_DPS", 40)
        near_third = ar.expand_cf(1.0 / 3.0 + 1e-13, 3)
    monkeypatch.setattr(red, "DIVISOR_CUTOFF", 1e-6)
    return near_third


def test_scalar_solve_names_breached_divisor(monkeypatch):
    near_third = _near_third(monkeypatch)
    nu = FourierMap.from_coeff_dict({3: 0.5, -3: 0.5})
    with pytest.raises(SmallDivisorError) as err:
        red.solve_homological_scalar(nu, near_third)
    assert abs(err.value.k) == 3
    assert err.value.entry == "12"


def test_scalar_solve_requires_real_data(golden):
    with pytest.raises(ValueError):
        red.solve_homological_scalar(FourierMap.harmonic(2), golden)


# ---- parabolic homological equation -----------------------------------------

def test_parabolic_solve_zero(golden):
    P = red.ParabolicForm(1, 0.1)
    Y = red.solve_homological_parabolic(FourierMap(np.zeros((7, 2, 2), dtype=complex)), P,
                                        golden)
    assert np.abs(Y.coeffs).max() == 0.0


def test_parabolic_mu_zero_decouples_to_scalar(golden):
    rng = np.random.default_rng(9)
    pert = random_real_matrix(rng, 6)
    P = red.ParabolicForm(1, 0.0)
    Y = red.solve_homological_parabolic(pert, P, golden)
    for i in range(2):
        for j in range(2):
            phi = red.solve_homological_scalar(pert.entry(i, j), golden, sign=1)
            assert np.abs(Y.entry(i, j).coeffs - phi.coeffs).max() < 1e-12


def test_parabolic_single_harmonic_squared_divisor(golden):
    mu = 0.1
    P = red.ParabolicForm(1, mu)
    c = np.zeros((3, 2, 2), dtype=complex)
    c[0, 1, 0] = 0.5
    c[2, 1, 0] = 0.5
    pert = FourierMap(c)
    Y = red.solve_homological_parabolic(pert, P, golden)
    d = np.exp(2j * math.pi * golden.value) - 1.0
    assert Y.entry(0, 0).coeff(1) == pytest.approx(mu * 0.5 / d**2, abs=1e-13)


@pytest.mark.parametrize("sign,mu", [(1, 0.1), (-1, -0.07)])
def test_parabolic_residual_random(golden, sign, mu):
    rng = np.random.default_rng(31)
    pert = random_real_matrix(rng, 8)
    P = red.ParabolicForm(sign, mu)
    Y = red.solve_homological_parabolic(pert, P, golden)
    xs = np.arange(2048) / 2048.0
    lhs = np.matmul(Y(xs + golden.value), P.matrix) - np.matmul(P.matrix, Y(xs))
    rhs = pert(xs) - pert.average()
    assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(rhs).max()


def test_parabolic_breach_names_entry(monkeypatch):
    near_third = _near_third(monkeypatch)
    c = np.zeros((7, 2, 2), dtype=complex)
    c[0, 1, 0] = 0.5
    c[6, 1, 0] = 0.5
    pert = FourierMap(c)
    with pytest.raises(SmallDivisorError) as err:
        red.solve_homological_parabolic(pert, red.ParabolicForm(1, 0.1), near_third)
    assert abs(err.value.k) == 3
    assert err.value.entry is not None


def test_residual_rule_catches_a_perturbed_divisor(golden, monkeypatch):
    """One residual rule serves both solves, and it checks the equation
    against an independent evaluation at x + alpha: divisors off by a
    relative 1e-6 make both solves raise."""
    exact = red._divisors
    monkeypatch.setattr(red, "_divisors", lambda fracs: exact(fracs) * (1.0 + 1e-6))
    rng = np.random.default_rng(5)
    with pytest.raises(ArithmeticError, match="homological residual"):
        red.solve_homological_scalar(random_real_scalar(rng, 6), golden, sign=-1)
    with pytest.raises(ArithmeticError, match="homological residual"):
        red.solve_homological_parabolic(random_real_matrix(rng, 6), red.ParabolicForm(1, 0.1),
                                        golden)


def loop_parabolic_coeffs(pert, parabolic, freq):
    """Reference: the per-mode loop the vectorized parabolic division replaced."""
    mu = parabolic.sign * parabolic.mu
    data = pert.coeffs if parabolic.sign == 1 else -pert.coeffs
    n = pert.band_limit
    fr = np.asarray(ar.rotation_phase_fracs(freq, n))
    Y = np.zeros_like(data)
    for i, k in enumerate(range(-n, n + 1)):
        if k == 0:
            continue
        d = np.exp(2j * math.pi * fr[i]) - 1.0
        e = d + 1.0
        (p11, p12), (p21, p22) = data[i]
        y11 = (mu * p21 + d * p11) / d**2
        y22 = (d * p22 - mu * e * p21) / d**2
        Y[i] = [[y11, (p12 + mu * (y22 - e * y11)) / d], [p21 / d, y22]]
    return Y


@pytest.mark.parametrize("sign,mu", [(1, 0.1), (-1, -0.07), (1, 0.0)])
def test_vectorized_solves_match_per_mode_loop(golden, sign, mu):
    """The vectorized divisions against a per-mode loop: the scalar one divides
    exactly as the loop does; the parabolic one may differ in rounding (array
    complex products fuse multiply-adds), so it gets a few ulps of slack."""
    rng = np.random.default_rng(57)
    pert = random_real_matrix(rng, 12)
    Y = red.solve_homological_parabolic(pert, red.ParabolicForm(sign, mu), golden)
    ref = loop_parabolic_coeffs(pert, red.ParabolicForm(sign, mu), golden)
    assert np.abs(Y.coeffs - ref).max() <= 1e-14 * np.abs(ref).max()

    nu = pert.entry(1, 0)
    phi = red.solve_homological_scalar(nu, golden, sign=sign)
    fr = np.asarray(ar.rotation_phase_fracs(golden, nu.band_limit))
    div = np.exp(2j * math.pi * fr) - 1.0
    ref = [0j if k == 0 else sign * c / d
           for k, c, d in zip(range(-nu.band_limit, nu.band_limit + 1), nu.coeffs, div)]
    assert np.array_equal(phi.coeffs, np.array(ref))


# ---- averaging ---------------------------------------------------------------

def test_averaging_step_zero_pert(golden):
    P = red.ParabolicForm(1, 0.1)
    st = red.averaging_step(P, FourierMap(np.zeros((5, 2, 2), dtype=complex)), 1e-2, golden)
    assert st.report.norm_step_minus_id == 0.0
    assert np.allclose(st.const_next, P.matrix)
    assert st.report.norm_pert_next == 0.0


def test_averaging_step_constant_pert_is_exact(golden):
    P = red.ParabolicForm(1, 0.1)
    pert = FourierMap.constant(np.array([[0.3, -0.2], [0.1, -0.3]]))
    eps = 1e-2
    st = red.averaging_step(P, pert, eps, golden)
    assert st.report.norm_step_minus_id == 0.0        # k = 0 mode gives Y = 0
    assert np.allclose(st.const_next, P.matrix + eps * pert(0.0).real)
    assert st.report.norm_pert_next < 1e-14


def test_averaging_step_eps_squared_law(golden):
    rng = np.random.default_rng(5)
    pert = random_real_matrix(rng, 8, scale=0.3)
    P = red.ParabolicForm(1, 0.1)
    resid = {}
    for eps in (1e-2, 1e-3):
        st = red.averaging_step(P, pert, eps, golden)
        resid[eps] = eps**2 * st.report.norm_pert_next
    ratio = resid[1e-2] / resid[1e-3]
    assert 50.0 <= ratio <= 200.0


def test_double_step_eps_cubed_law(golden):
    rng = np.random.default_rng(5)
    pert = random_real_matrix(rng, 8, scale=0.3)
    P = red.ParabolicForm(1, 0.1)
    resid = {}
    for eps in (1e-2, 1e-3):
        d = red.double_step(P, pert, eps, golden)
        resid[eps] = eps**3 * d.reports[1].norm_pert_next
    ratio = resid[1e-2] / resid[1e-3]
    assert 300.0 <= ratio <= 3000.0


def test_double_step_second_report_has_its_own_divisor_min(golden):
    """Step two reports the smallest divisor |e^{2 pi i k alpha} - 1| over the
    modes of its own homological solve, not step one's value (criterion-4
    data at eps = 1e-3, where the two differ)."""
    rng = np.random.default_rng(44)
    c = rng.standard_normal((17, 2, 2)) + 1j * rng.standard_normal((17, 2, 2))
    pert = FourierMap(0.3 * 0.5 * (c + c[::-1].conj()))
    P = red.ParabolicForm(1, 0.1)
    eps = 1e-3
    d = red.double_step(P, pert, eps, golden)
    s1 = red.averaging_step(P, pert, eps, golden)
    Y2 = red.solve_homological_parabolic(s1.pert_next.trim(1e-13), P, golden).trim(1e-13)
    ks = np.arange(1, Y2.band_limit + 1)
    expected = np.abs(np.exp(2j * math.pi * ks * golden.value) - 1.0).min()
    assert d.reports[1].divisor_min == pytest.approx(expected, rel=1e-12)
    assert d.reports[1].divisor_min < d.reports[0].divisor_min


def test_double_step_degree_preserved(golden):
    rng = np.random.default_rng(8)
    pert = random_real_matrix(rng, 6, scale=0.3)
    P = red.ParabolicForm(1, 0.1)
    d = red.double_step(P, pert, 1e-3, golden)
    assert degree_of(d.composite_map) == 0


def test_diagnostic_norm_leaves_the_tolerance_of_its_map():
    """The report norm is measured under the loose diagnostic tolerance on a
    copy, so the map keeps its own strip check."""
    a = FourierMap.cosine()
    assert red._diagnostic_norm(a, 0.05) == pytest.approx(math.cosh(0.1 * math.pi), rel=1e-12)
    assert a.strip_tol == DEFAULT_STRIP_TOL


def test_averaging_step_admissibility_gate(golden):
    rng = np.random.default_rng(2)
    pert = random_real_matrix(rng, 6, scale=50.0)
    with pytest.raises(ArithmeticError):
        red.averaging_step(red.ParabolicForm(1, 0.1), pert, 0.5, golden)


def test_first_order_log_term_matches_finite_difference(golden, amo, upper_edge):
    """Closed form of the first-order log piece against a central difference
    on the constant part of the double step, for perturbation data with the
    reduced-cocycle structure."""
    reduction, ident = _reduced_m1(golden, amo, upper_edge)
    pert = red.perturbation_matrix(reduction, 0.25, amo, _reduced_m1.energy, golden)
    P = reduction.parabolic
    closed = first_order_log_term(ident.averages, P.mu)
    h = 1e-3
    Ls = {}
    for e in (h, -h):
        d = red.double_step(P, pert, e, golden)
        Ls[e] = red._log_2x2((P.sign * d.const_final)[None, :, :])[0]
    fd = (Ls[h] - Ls[-h]) / (2 * h)
    assert np.abs(fd - closed).max() < 1e-6


def _reduced_m1(golden, amo, upper_edge):
    if getattr(_reduced_m1, "cache", None) is None:
        bs = sp.band_structure(0.25, amo, (89, 144))
        rec = [r for r in bs.gaps() if r.label == 1][0]
        sol = upper_edge(rec, (89, 144))
        wave = du.assemble_wave(sol, 0.25, amo, golden)
        reduction = red.reduce_at_edge(sol.energy, wave, golden, 0.25, amo)
        ident = red.average_identities(reduction, golden)
        _reduced_m1.cache = (reduction, ident)
        _reduced_m1.energy = sol.energy
        _reduced_m1.record = rec
    return _reduced_m1.cache


# ---- frames ------------------------------------------------------------------

def test_build_frame_constant_vector():
    V = FourierMap.from_coeff_dict({0: np.array([1.0, 0.0])}, period=2, shape=(2,))
    R = red.build_frame(V)
    assert np.allclose(R(0.3).real, np.eye(2), atol=1e-12)


def test_build_frame_unit_determinant():
    V = FourierMap.from_coeff_dict(
        {0: np.array([1.3, 0.2]), 2: np.array([0.2, 0.1]), -2: np.array([0.2, 0.1])},
        period=2, shape=(2,),
    )
    R = red.build_frame(V)
    xs = np.arange(512) / 256.0
    dets = np.linalg.det(R(xs).real)
    assert np.abs(dets - 1.0).max() < 1e-10


def test_build_frame_norm_bound():
    V = FourierMap.from_coeff_dict(
        {0: np.array([1.1, 0.0]), 2: np.array([0.3, 0.0]), -2: np.array([0.3, 0.0])},
        period=2, shape=(2,),
    )
    R = red.build_frame(V)
    xs = np.arange(1024) / 512.0
    vals = V(xs).real
    norms = np.hypot(vals[:, 0], vals[:, 1])
    bound = norms.max() + 1.0 / norms.min()
    assert np.abs(R(xs)).max() <= bound + 1e-9


def test_build_frame_rejects_vanishing_vector():
    V = FourierMap.from_coeff_dict(
        {0: np.array([0.5, 0.0]), 1: np.array([0.25, 0.0]), -1: np.array([0.25, 0.0])},
        period=2, shape=(2,),
    )
    # V_1(x) = 0.5 + 0.5 cos(pi x) vanishes at x = 1
    with pytest.raises(FrameError):
        red.build_frame(V)


def test_build_frame_raises_at_its_grid_cap():
    V = FourierMap.from_coeff_dict(
        {0: np.array([0.5, 1e-6]), 1: np.array([0.25, 0.0]), -1: np.array([0.25, 0.0])},
        period=2, shape=(2,),
    )
    # V_2 = 1e-6 keeps ||V|| above the vanishing bound where V_1 vanishes,
    # but 1/||V||^2 has poles 4.5e-4 off the axis: more modes than the
    # 2^16-point grid resolves
    with pytest.raises(FrameError, match="65536-point grid cap"):
        red.build_frame(V)


# ---- full reduction -----------------------------------------------------------

def test_reduce_free_edge_closed_form(golden, amo, monkeypatch):
    monkeypatch.setattr(du, "RESONANCE_N_MAX", 4)
    sol = du.find_bloch(0.0, amo, golden, 2.0, trunc=16)
    du.detect_resonance(sol, golden)
    wave = du.assemble_wave(sol, 0.0, amo, golden)
    r = red.reduce_at_edge(sol.energy, wave, golden, 0.0, amo)
    assert r.parabolic.sign == 1
    assert r.parabolic.mu == pytest.approx(-1.0, abs=1e-9)
    assert r.off_normal_residual < 1e-9
    assert r.mu_iterate == pytest.approx(-1.0, abs=1e-9)


def test_reduce_m1_residuals_and_mu_cross_check(golden, amo, upper_edge):
    reduction, ident = _reduced_m1(golden, amo, upper_edge)
    assert reduction.off_normal_residual < 1e-10
    rel = abs(reduction.parabolic.mu - reduction.mu_iterate) / abs(reduction.parabolic.mu)
    assert rel < 1e-6
    assert reduction.parabolic.sign * reduction.parabolic.mu > 0


def _edge_wave(m, golden, amo, upper_edge):
    """The snapped Bloch solution and wave at the upper edge of the dossier's
    gap m (golden mean, lam = 0.25, AMO, q_target 250), built once per m."""
    cache = _edge_wave.__dict__.setdefault("cache", {})
    if m not in cache:
        pq = golden.largest_convergent(250)
        rec = [r for r in sp.band_structure(0.25, amo, pq).gaps() if r.label == m][0]
        sol = upper_edge(rec, pq)
        cache[m] = sol, du.assemble_wave(sol, 0.25, amo, golden)
    return cache[m]


@pytest.mark.parametrize("m", [1, 7])
def test_mu_iterate_matches_the_general_stack_reference(m, golden, amo, upper_edge):
    """The iterate's steps E - lam f(x_i + j alpha), summed in real
    arithmetic and pushed as a Schrodinger stack, give the mu that 64 FFT
    samples of the 2x2 cocycle map pushed as a general stack give, at the
    dossier's m = 1 and m = 7 upper edges (q_target 250)."""
    sol, wave = _edge_wave(m, golden, amo, upper_edge)
    reduction = red.reduce_at_edge(sol.energy, wave, golden, 0.25, amo)
    A = schrodinger_cocycle(0.25, amo, sol.energy)
    ref = mu_iterate_reference(reduction.R, A, golden.value, reduction.parabolic.sign)
    assert reduction.mu_iterate == pytest.approx(ref, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("m", [1, 3, 7])
def test_reduction_products_are_the_full_matrix_products(m, golden, amo, upper_edge):
    """On the dossier's m = 1, 3 and 7 frames, bit for bit: the untrimmed nu
    is entry (0, 1) of the full conjugated cocycle, and the column update is
    the product with the shear [[1, phi], [0, 1]]; trimmed, it is the map
    that reduce_at_edge returns."""
    sol, wave = _edge_wave(m, golden, amo, upper_edge)
    R1 = red.build_frame(red.select_frame_vector(wave.U_hat.real_part(),
                                                 wave.U_hat.imag_part(), wave.n_tilde))
    A = schrodinger_cocycle(0.25, amo, sol.energy)
    nu = red._conjugated_corner(R1, A, golden.value)
    assert np.array_equal(nu.coeffs, conjugated_reference(R1, A, golden.value).coeffs[:, 0, 1])
    nu = nu.collapse1(tol=1e-7).real_part().trim(1e-16)
    phi = red.solve_homological_scalar(nu, golden, sign=wave.sign)
    R = red._sheared(R1, phi)
    assert np.array_equal(R.coeffs, sheared_reference(R1, phi).coeffs)
    reduced = red.reduce_at_edge(sol.energy, wave, golden, 0.25, amo).R
    assert np.array_equal(reduced.coeffs, R.trim(1e-16).coeffs)


def test_reduce_stage_makes_few_long_convolutions(golden, amo, upper_edge, monkeypatch):
    """A guard on the work of the reduction at the dossier's m = 7 edge:
    np.convolve calls with both operands longer than 512 coefficients.  Two
    build the frame's second column, two the off-diagonal nu and two the
    sheared frame, 6 in all; full 2x2 products there made 18."""
    sol, wave = _edge_wave(7, golden, amo, upper_edge)
    convolve, long = np.convolve, []

    def counting(a, v, *args, **kwargs):
        long.append(min(len(a), len(v)) > 512)
        return convolve(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", counting)
    red.reduce_at_edge(sol.energy, wave, golden, 0.25, amo)
    assert 0 < sum(long) <= 6


def test_select_frame_vector_enforces_the_sqrt2_bound():
    """The resonant mass 2 |V_n| picks the larger component (ties to the real
    part) and must reach sqrt(2)."""
    def vec(c):
        return FourierMap.from_coeff_dict({1: np.array([c, 0.0])}, period=2, shape=(2,))

    re_map, im_map = vec(0.8), vec(0.75)
    assert red.select_frame_vector(re_map, im_map, 1) is re_map
    assert red.select_frame_vector(im_map, re_map, 1) is re_map
    tie_re, tie_im = vec(0.75), vec(0.75)
    assert red.select_frame_vector(tie_re, tie_im, 1) is tie_re
    with pytest.raises(FrameError, match="resonant-integral bound"):
        red.select_frame_vector(vec(0.7), vec(0.7), 1)


def test_average_identities_m1(golden, amo, upper_edge):
    reduction, ident = _reduced_m1(golden, amo, upper_edge)
    assert ident.shift_dev_21 < 1e-9
    assert ident.shift_dev_22 < 1e-9
    assert ident.wronskian_dev < 1e-9
    assert ident.symmetry_gap < 1e-9
    assert ident.lower_bound_ok
    assert ident.gram_det > 0.0
    # Cauchy-Schwarz
    assert ident.r11_r12**2 <= ident.r11_sq * ident.r12_sq + 1e-12


def test_perturbation_matrix_identity_probe(golden, amo, upper_edge):
    reduction, _ = _reduced_m1(golden, amo, upper_edge)
    pert = red.perturbation_matrix(reduction, 0.25, amo, _reduced_m1.energy, golden)
    # trace equals -mu R11^2 pointwise
    xs = np.arange(512) / 512.0
    R11 = reduction.R.entry(0, 0)
    tr = pert(xs)[:, 0, 0] + pert(xs)[:, 1, 1]
    expect = -reduction.parabolic.mu * (R11(xs).real**2)
    assert np.abs(tr.real - expect).max() < 1e-10


def test_perturbation_matrix_constant_frame():
    """Identity frame with mu = 0: the matrix reduces to [[0,0],[-1,0]]."""
    ident_R = FourierMap.identity()
    fake = red.Reduction(R=ident_R, degree=0, parabolic=red.ParabolicForm(1, 0.0),
                         off_normal_residual=0.0, mu_iterate=0.0)
    r11 = ident_R.entry(0, 0)
    top = mul((1.0 * ident_R.entry(0, 1)) - (0.0 * r11), r11)
    assert np.abs(top.coeffs).max() == 0.0


def test_gap_edge_epsilon_values():
    assert red.gap_edge_epsilon((1.0, 0.0, 1.0), red.ParabolicForm(1, 0.01)) == pytest.approx(-0.02)
    assert red.gap_edge_epsilon((1.0, 0.0, 1.0), red.ParabolicForm(1, 0.0)) == 0.0
    # negative-sign edge still steps downward
    assert red.gap_edge_epsilon((1.0, 0.0, 1.0), red.ParabolicForm(-1, -0.01)) == pytest.approx(-0.02)
    with pytest.raises(ArithmeticError):
        red.gap_edge_epsilon((1.0, 1.0, 1.0), red.ParabolicForm(1, 0.01))


def test_width_bounded_by_epsilon_m(golden, amo, upper_edge):
    reduction, ident = _reduced_m1(golden, amo, upper_edge)
    eps_m = red.gap_edge_epsilon(ident.averages, reduction.parabolic)
    assert eps_m < 0.0
    assert _reduced_m1.record.width <= abs(eps_m)


def test_elliptic_normalize_rotation_generator():
    Q, sd = red.elliptic_normalize(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert sd == pytest.approx(1.0)
    got = np.linalg.inv(Q) @ np.array([[0.0, -1.0], [1.0, 0.0]]) @ Q
    assert np.allclose(got, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)


def test_elliptic_normalize_scaled():
    D = np.array([[0.0, -4.0], [1.0, 0.0]])
    Q, sd = red.elliptic_normalize(D)
    assert sd == pytest.approx(2.0)
    got = np.linalg.inv(Q) @ D @ Q
    assert np.allclose(got, [[0.0, -2.0], [2.0, 0.0]], atol=1e-12)


def test_elliptic_normalize_rejects_hyperbolic():
    with pytest.raises(ValueError):
        red.elliptic_normalize(np.array([[0.0, 4.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        red.elliptic_normalize(np.array([[2.0, -1.0], [1.0, -2.0]]))


def test_rotation_shift_check_collapsed_and_monotone(golden, amo):
    chk = red.rotation_shift_check(0.3, 0.0, golden, 0.0, amo)
    assert not chk.differs
    chk2 = red.rotation_shift_check(1.2, -0.3, golden, 0.0, amo)
    assert chk2.differs
    assert chk2.rho_shifted >= chk2.rho_edge      # rho non-increasing in E
