"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 checks the rotation-number residual of every labeled gap wider
than 1e-10 at q = 233.  The approximant's gap m is displaced from the true gap
by about |m| |alpha - p/q| in rotation-number distance, which exceeds the 1e-4
tolerance from |m| = 13 on (widths ~2e-10 to 6e-10); label_gaps measures those
labels at the gap center extrapolated through the previous convergent and the
others at the midpoint.  The test prints the full table either way.
"""

import math
import time

import numpy as np
import pytest

from qpgaps import arithmetic as ar
from qpgaps import duality as du
from qpgaps import pipeline as pl
from qpgaps import reducibility as red
from qpgaps import spectrum as sp
from qpgaps.cocycle import amo_potential, degree_of, rotation_number, schrodinger_cocycle
from qpgaps.errors import SmallDivisorError
from qpgaps.fourier import FourierMap, matrix_exp, mul


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def q233_records(golden, amo):
    bs = sp.band_structure(0.25, amo, (144, 233))
    assert sp.RHO_TOL == 1e-4            # label_gaps measures at criterion 5's tolerance
    return bs, sp.label_gaps(bs, golden)


@pytest.fixture(scope="module")
def m1_chain(golden, amo, q233_records, upper_edge):
    _, records = q233_records
    rec = [r for r in records if r.label == 1][0]
    sol = upper_edge(rec, (144, 233))
    du.snap_to_resonance(sol, 0.25, amo, golden)
    wave = du.assemble_wave(sol, 0.25, amo, golden)
    reduction = red.reduce_at_edge(sol.energy, wave, golden, 0.25, amo)
    return rec, sol, wave, reduction


def test_criterion_01_free_operator_suite(golden, amo):
    t0 = time.time()
    bs = sp.band_structure(0.0, amo, (55, 89))
    lo, hi = bs.bands[0]
    band_ok = len(bs.bands) == 1 and abs(lo + 2) < 1e-10 and abs(hi - 2) < 1e-10

    rho_dev = 0.0
    for E in np.linspace(-1.95, 1.95, 50):
        r = rotation_number(schrodinger_cocycle(0.0, amo, float(E)), golden)
        rho_dev = max(rho_dev, abs(r.value - math.acos(E / 2) / (2 * math.pi)))
    rho_ok = rho_dev < 1e-6

    hom = sp.homogeneity_scan(bs, 0.1)
    hom_ok = abs(hom.min_ratio - 1.0) < 1e-6

    dt = time.time() - t0
    _report(1, band_ok and rho_ok and hom_ok,
            f"band [{lo:.2e},{hi:.2e}], max rho dev {rho_dev:.2e}, "
            f"hom min {hom.min_ratio:.8f} ({dt:.2f}s, budget 1s)")
    assert band_ok and rho_ok and hom_ok


def _rotation_map():
    up = 0.5 * np.array([[1.0, 1j], [-1j, 1.0]])
    dn = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
    return FourierMap.from_coeff_dict({1: up, -1: dn}, shape=(2, 2))


def _const_rotation(theta):
    c, s = math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta)
    return FourierMap.constant(np.array([[c, -s], [s, c]]))


def _circ(x):
    v = x % 1.0
    return min(v, 1.0 - v)


def test_criterion_02_rotation_degree_algebra(golden):
    t0 = time.time()
    rng = np.random.default_rng(20)
    sym = np.array([[0.0, 1.0], [1.0, 0.0]])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    R2 = _rotation_map()

    # conjugation by a degree-2 map on 5 random elliptic cocycles; base
    # rotations stay away from the half-turn so the lift is unambiguous
    worst = 0.0
    pr2_ok = True
    for _ in range(5):
        theta = float(rng.uniform(0.2, 0.45))
        amp = 0.25 * float(rng.standard_normal())
        gen = FourierMap.from_coeff_dict(
            {0: float(rng.uniform(-0.4, 0.4)) * rot,
             1: amp * sym, -1: amp * sym},
            shape=(2, 2),
        )
        A = mul(_const_rotation(theta), matrix_exp(0.08 * gen))
        rA = rotation_number(A, golden, target_err=1e-9)
        from oracles import conjugate
        rB = rotation_number(conjugate(A, golden, R2), golden, target_err=1e-9)
        resid = min(
            _circ(s1 * 2 * rA.value - s2 * 2 * rB.value - 2 * golden.value)
            for s1 in (1, -1) for s2 in (1, -1)
        )
        bars = 3 * (rA.error + rB.error) + 1e-9
        worst = max(worst, resid)
        pr2_ok = pr2_ok and resid <= bars

    # linear response scaling near a constant rotation
    theta = 0.21
    gen = FourierMap.from_coeff_dict(
        {0: 0.7 * rot, 1: 0.5 * sym, -1: 0.5 * sym}, shape=(2, 2)
    )
    devs, dists = [], []
    for eps in (1e-2, 1e-3, 1e-4):
        A = mul(_const_rotation(theta), matrix_exp(eps * gen))
        dist = float(np.abs(A.sample(512) - _const_rotation(theta)(0.0)).max())
        r = rotation_number(A, golden, target_err=1e-10)
        devs.append(abs(r.value - theta))
        dists.append(dist)
    slope = float(np.polyfit(np.log(dists), np.log(devs), 1)[0])
    rr_ok = abs(slope - 1.0) <= 0.1

    dt = time.time() - t0
    _report(2, pr2_ok and rr_ok,
            f"pr2 worst resid {worst:.2e}, rr exponent {slope:.3f} "
            f"({dt:.1f}s, budget 10s)")
    assert pr2_ok and rr_ok


def test_criterion_03_homological_oracle(golden, monkeypatch):
    t0 = time.time()
    rng = np.random.default_rng(3)
    xs = np.arange(4096) / 4096.0
    worst = 0.0
    for _ in range(20):
        band = int(rng.integers(1, 17))
        c = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
        nu = FourierMap(0.5 * (c + c[::-1].conj()))
        sign = 1 if rng.integers(2) else -1
        phi = red.solve_homological_scalar(nu, golden, sign=sign)
        lhs = sign * (phi(xs + golden.value) - phi(xs)).real
        rhs = (nu(xs) - nu.average()).real
        worst = max(worst, float(np.abs(lhs - rhs).max() / np.abs(nu(xs)).max()))
    resid_ok = worst < 1e-9

    with monkeypatch.context() as mp:
        mp.setattr(ar, "DEFAULT_DPS", 40)
        near_third = ar.expand_cf(1.0 / 3.0 + 1e-13, 3)
    monkeypatch.setattr(red, "DIVISOR_CUTOFF", 1e-6)
    nu = FourierMap.from_coeff_dict({3: 0.5, -3: 0.5})
    named = None
    try:
        red.solve_homological_scalar(nu, near_third)
    except SmallDivisorError as err:
        named = abs(err.k)
    breach_ok = named == 3

    dt = time.time() - t0
    _report(3, resid_ok and breach_ok,
            f"worst residual {worst:.2e}, breach named k={named} "
            f"({dt:.1f}s, budget 1s)")
    assert resid_ok and breach_ok


def test_criterion_04_averaging_law(golden):
    t0 = time.time()
    rng = np.random.default_rng(44)
    c = rng.standard_normal((17, 2, 2)) + 1j * rng.standard_normal((17, 2, 2))
    pert = FourierMap(0.3 * 0.5 * (c + c[::-1].conj()))
    P = red.ParabolicForm(1, 0.1)

    step_resid, double_resid = {}, {}
    degs = []
    for eps in (1e-2, 1e-3):
        st = red.averaging_step(P, pert, eps, golden)
        step_resid[eps] = eps**2 * st.report.norm_pert_next
        d = red.double_step(P, pert, eps, golden)
        double_resid[eps] = eps**3 * d.reports[1].norm_pert_next
        degs.append(degree_of(d.composite_map))
    r1 = step_resid[1e-2] / step_resid[1e-3]
    r2 = double_resid[1e-2] / double_resid[1e-3]
    ok = 50.0 <= r1 <= 200.0 and 300.0 <= r2 <= 3000.0 and degs == [0, 0]

    dt = time.time() - t0
    _report(4, ok, f"step ratio {r1:.1f} (target 100), double ratio {r2:.1f} "
                   f"(target 1000), degrees {degs} ({dt:.1f}s, budget 30s)")
    assert ok


def test_criterion_05_gap_labeling_vs_rotation(golden, q233_records):
    t0 = time.time()
    _, records = q233_records
    checked = [r for r in records if r.width > 1e-10 and not r.below_floor]
    failures = [r for r in checked if not (r.rho_resid < 1e-4)]
    flagged_fraction = sum(1 for r in records if r.flagged) / len(records)

    for r in sorted(checked, key=lambda r: abs(r.label)):
        status = "ok" if r.rho_resid < 1e-4 else "FAIL"
        print(f"    m={r.label:+3d} width={r.width:.3e} resid={r.rho_resid:.3e} {status}")
    ok = not failures and flagged_fraction < 0.05
    dt = time.time() - t0
    _report(5, ok,
            f"{len(checked) - len(failures)}/{len(checked)} gaps pass at 1e-4, "
            f"flagged fraction {flagged_fraction:.1%} "
            f"(failures at |m|={sorted({abs(r.label) for r in failures})}, "
            f"thin labels measured at the extrapolated gap center; "
            f"{dt:.1f}s, budget 300s)")
    assert ok, (
        "rotation-number residual above 1e-4 or flagged fraction >= 5%; the "
        "printed table shows each gap's residual"
    )


def test_criterion_06_gap_decay(golden, amo):
    t0 = time.time()
    camp = pl.decay_campaign(0.25, amo, golden, range(1, 9),
                             pl.PipelineConfig(q_target=250))
    ws = camp.stable_widths
    mono_ok = all(ws[m] > ws[m + 1] for m in range(1, 8))
    gamma_ok = camp.fit is not None and camp.fit.gamma > 0.0
    resid_ok = camp.fit is not None and camp.fit.rms_residual < 0.5
    qs = [q for _, q in camp.convergents]
    stable_ok = all(camp.stable[m] for m in range(1, 9))

    liou = ar.synth_liouville(0.2, 3, seed=14)        # convergents (31, 497)
    camp_l = pl.decay_campaign(0.25, amo, liou, range(1, 5),
                               pl.PipelineConfig(q_target=500))
    wl = camp_l.stable_widths
    liou_resolved = sorted(wl) == [1, 2, 3, 4] and all(wl[m] > 0 for m in wl)
    liou_mono = all(wl[m] > wl[m + 1] for m in range(1, 4))

    ok = mono_ok and gamma_ok and resid_ok and stable_ok and liou_resolved and liou_mono
    dt = time.time() - t0
    _report(6, ok,
            f"golden gamma={camp.fit.gamma:.3f} rms={camp.fit.rms_residual:.3f} "
            f"monotone={mono_ok} stable(q={qs[-2]}->{qs[-1]})={stable_ok}; "
            f"liouville q={camp_l.convergents[-1][1]} resolved m<=4={liou_resolved} "
            f"monotone={liou_mono} ({dt:.1f}s, budget 600s)")
    assert ok


def test_criterion_07_reducibility_integration(golden, amo, m1_chain):
    t0 = time.time()
    rec, sol, wave, reduction = m1_chain
    ident = red.average_identities(reduction, golden)
    pert = red.perturbation_matrix(reduction, 0.25, amo, sol.energy, golden)
    eps_m = red.gap_edge_epsilon(ident.averages, reduction.parabolic)
    shift = red.rotation_shift_check(sol.energy, eps_m, golden, 0.25, amo)

    checks = {
        "duality residual < 1e-6": sol.duality_residual < 1e-6,
        "|u_k| <= 1": float(np.abs(sol.u_hat).max()) <= 1.0 + 1e-9,
        "wave relation residual < 1e-6": wave.residual < 1e-6,
        "off-normal residual < 1e-8": reduction.off_normal_residual < 1e-8,
        "shift identities < 1e-9": max(ident.shift_dev_21, ident.shift_dev_22,
                                       ident.wronskian_dev) < 1e-9,
        "average symmetry & lower bound": ident.symmetry_gap < 1e-9 and ident.lower_bound_ok,
        "mu extractions agree to 1e-6": abs(reduction.parabolic.mu - reduction.mu_iterate)
                                         <= 1e-6 * abs(reduction.parabolic.mu),
        "width <= |eps_m|": rec.width <= abs(eps_m),
        "rotation shift check": shift.differs,
    }
    ok = all(checks.values())
    dt = time.time() - t0
    detail = ", ".join(k for k, v in checks.items() if not v) or "all sub-checks"
    _report(7, ok, f"{detail} (mu={reduction.parabolic.mu:.5f}, "
                   f"eps_m={eps_m:.4f}, width={rec.width:.4f}; {dt:.1f}s, budget 600s)")
    assert ok, checks


def test_criterion_08_homogeneity(golden, amo, q233_records):
    t0 = time.time()
    bs, _ = q233_records
    sigmas = (1e-2, 3e-3, 1e-3)
    rows = []
    for s in sigmas:
        res = sp.homogeneity_scan(bs, s)
        gap_sum = sp.window_gap_sum(bs, res.argmin_energy, s)
        rows.append((s, res.min_ratio, gap_sum / s))
        print(f"    sigma={s:g}: min ratio {res.min_ratio:.6f} at "
              f"E={res.argmin_energy:.6f}, gap-sum/sigma {gap_sum / s:.4f}")
    ratios = [r for _, r, _ in rows]
    ok = all(r >= 0.5 for r in ratios) and all(
        b >= a - 1e-12 for a, b in zip(ratios, ratios[1:])
    )
    dt = time.time() - t0
    _report(8, ok, f"min ratios {[round(r, 6) for r in ratios]} "
                   f"({dt:.1f}s, budget 600s)")
    assert ok


def test_criterion_09_holder_and_separation(golden, amo, q233_records):
    t0 = time.time()
    reps = [
        sp.holder_check(0.25, amo, golden, e_pairs=n, seed=9,
                        rho_target_err=1e-7)
        for n in (64, 128)
    ]
    q1, q2 = reps[0].max_quotient, reps[1].max_quotient
    holder_ok = abs(q2 - q1) <= 0.10 * max(q1, q2)

    _, records = q233_records
    sep = sp.gap_separation_check(records, beta=0.0)
    sep_ok = sep.all_positive

    ok = holder_ok and sep_ok
    dt = time.time() - t0
    _report(9, ok, f"holder max {q1:.4f} -> {q2:.4f}, separation min "
                   f"{sep.min_rescaled:.3e} at pair {sep.min_pair} "
                   f"({dt:.1f}s, budget 300s)")
    assert ok


def test_criterion_10_determinism(tmp_path, golden, amo):
    t0 = time.time()
    from qpgaps import cli

    outputs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"run{jobs}"
        rc = cli.main(["decay", "--lam", "0.25", "--freq", "golden", "--q", "100",
                       "--m-max", "4", "--jobs", jobs, "--out", str(out),
                       "--emit-plot-data"])
        assert rc == 0
        outputs[jobs] = {
            n: (out / n).read_bytes()
            for n in ("decay.csv", "decay.json", "decay_logwidth.dat")
        }
    rc = cli.main(["decay", "--lam", "0.25", "--freq", "golden", "--q", "100",
                   "--m-max", "4", "--jobs", "1", "--out", str(tmp_path / "run1b"),
                   "--emit-plot-data"])
    assert rc == 0
    rerun = {n: (tmp_path / "run1b" / n).read_bytes() for n in outputs["1"]}

    ok = outputs["1"] == outputs["2"] == rerun
    dt = time.time() - t0
    _report(10, ok, f"byte-identical across jobs 1/2 and re-run ({dt:.1f}s)")
    assert ok
