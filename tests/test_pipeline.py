import dataclasses
import json
import math

import pytest
import scipy.linalg

from qpgaps import arithmetic as ar
from qpgaps import duality as du
from qpgaps import pipeline as pl
from qpgaps.cocycle import rotation_numbers
from qpgaps.errors import ConfigError, FrameError, SmallDivisorError, StageError
from qpgaps.fourier import DEFAULT_STRIP_TOL


@pytest.fixture(scope="module")
def m1_dossier(golden, amo):
    return pl.analyze_gap(0.25, amo, golden, 1, pl.PipelineConfig(q_target=150))


def test_dossier_full_chain(m1_dossier):
    d = m1_dossier
    assert d.label == 1
    assert d.approximant == (89, 144)
    assert d.duality_residual < 1e-6
    assert d.wave_residual < 1e-6
    assert d.off_normal_residual < 1e-8
    assert abs(d.mu - d.mu_iterate) <= 1e-6 * abs(d.mu)
    assert d.sign * d.mu > 0
    assert d.epsilon_m < 0.0
    assert d.width_bounded
    assert d.shift_differs
    assert not d.collapsed


def test_dossier_consistency_epsilon_sign(m1_dossier):
    d = m1_dossier
    assert d.epsilon_m * (d.sign * d.mu) < 0.0
    assert d.gram_det > 0.0
    assert d.lower_bound_ok


def test_dossier_degree_matches_label(m1_dossier):
    # rotation-number bookkeeping: 2 rho(E_1^+) = deg(R) alpha = m alpha mod 1,
    # so the frame's degree is the label up to sign (rho_edge is the label's)
    assert m1_dossier.degree in (m1_dossier.label, -m1_dossier.label)


@pytest.fixture(scope="module")
def bench_dossiers(golden, amo):
    """The bench's three dossiers: lambda = 0.25, q_target = 250, m = 1, m = 3
    with averaging, and m = 7."""
    return {name: pl.analyze_gap(0.25, amo, golden, m,
                                 pl.PipelineConfig(q_target=250, run_averaging=averaging))
            for name, m, averaging in (("m1", 1, False), ("m3_avg", 3, True), ("m7", 7, False))}


def test_bench_dossiers_keep_their_measured_rho_and_claims(bench_dossiers):
    """Only E + eps_m takes an orbit; its rho keeps its bits, rho at the edge
    is the label's frac(m alpha) / 2, and the claims still all pass."""
    alpha = 0.6180339887498949
    pinned = {"m1": (0.3819660112501056, 4), "m3_avg": (0.428319099779856, 5),
              "m7": (0.1631204651732958, 4)}
    for name, (rho_shifted, total) in pinned.items():
        d = bench_dossiers[name]
        assert d.rho_shifted == rho_shifted
        assert d.rho_edge == (d.label * alpha) % 1.0 / 2.0
        report = pl.claims_report([d])
        assert (report["passed"], report["total"]) == (total, total)


@pytest.mark.parametrize("name", ["m1", "m3_avg"])
def test_label_rho_is_the_measured_edge_rho(name, bench_dossiers, golden, amo):
    """The oracle of the label's rho: an orbit at the edge energy, to the
    full cap, reads frac(m alpha) / 2 within 3 times its own error bar
    (7.5e-10 off with a bar of 2.7e-9 at m = 1, 2.2e-9 off with 8.2e-9 at
    m = 3).  m = 7 is left out: its bar understates that orbit's error."""
    d = bench_dossiers[name]
    (r,) = rotation_numbers(0.25, amo, golden, [d.edge_energy])
    assert abs(r.value - d.rho_edge) <= 3.0 * r.error


def test_dossier_serializes(m1_dossier):
    text = json.dumps(m1_dossier.to_dict(), sort_keys=True)
    back = json.loads(text)
    assert back["label"] == 1
    assert back["width_bounded"] is True


def test_analyze_gap_missing_label_raises(golden, amo):
    with pytest.raises(StageError) as err:
        pl.analyze_gap(0.25, amo, golden, 300, pl.PipelineConfig(q_target=150))
    assert err.value.stage == "label"


def test_analyze_gap_needs_a_convergent(golden, amo):
    with pytest.raises(ConfigError, match="no convergent with q <= 0"):
        pl.analyze_gap(0.25, amo, golden, 1, pl.PipelineConfig(q_target=0))


def test_free_operator_has_no_dossier(golden, amo):
    with pytest.raises(StageError):
        pl.analyze_gap(0.0, amo, golden, 1, pl.PipelineConfig(q_target=150))


def test_decay_campaign_runs(golden, amo):
    camp = pl.decay_campaign(0.25, amo, golden, range(1, 7),
                             pl.PipelineConfig(q_target=150))
    assert camp.fit is not None
    assert camp.fit.gamma > 0.0
    assert camp.monotone_from == 1
    widths = camp.stable_widths
    assert all(widths[m] > widths[m + 1] for m in range(1, 6))


def test_decay_campaign_jobs_independent(golden, amo):
    cfg = pl.PipelineConfig(q_target=100)
    a = pl.decay_campaign(0.25, amo, golden, range(1, 5), cfg, jobs=1)
    b = pl.decay_campaign(0.25, amo, golden, range(1, 5), cfg, jobs=2)
    assert a.widths == b.widths
    assert a.fit.gamma == b.fit.gamma


def test_homogeneity_campaign_free(golden, amo):
    camp = pl.homogeneity_campaign(0.0, amo, golden, [1e-2, 1e-3],
                                   pl.PipelineConfig(q_target=150))
    for (_, ratio, *_rest) in camp.rows:
        assert ratio == pytest.approx(1.0, abs=1e-6)


def test_homogeneity_campaign_needs_a_convergent(golden, amo):
    with pytest.raises(ConfigError, match="no convergent with q <= 0"):
        pl.homogeneity_campaign(0.25, amo, golden, [1e-2], pl.PipelineConfig(q_target=0))


def test_homogeneity_campaign_bounds(golden, amo):
    camp = pl.homogeneity_campaign(0.25, amo, golden, [1e-2, 3e-3, 1e-3],
                                   pl.PipelineConfig(q_target=150))
    ratios = [row[1] for row in camp.rows]
    assert all(0.0 <= r <= 2.0 for r in ratios)
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_claims_report_structure(m1_dossier):
    report = pl.claims_report([m1_dossier])
    assert report["total"] == 4
    names = {c["claim"] for c in report["claims"]}
    assert any("width <= |epsilon_m|" in n for n in names)
    failed = [c for c in report["claims"] if not c["passed"]]
    assert failed == []


def test_mirrored_edge_config(golden, amo):
    cfg = pl.PipelineConfig(q_target=150, edge="lower")
    d = pl.analyze_gap(0.25, amo, golden, 1, cfg)
    # lower edge: energy step points upward, rotation number still moves
    assert d.epsilon_m > 0.0
    assert d.shift_differs
    assert d.width <= abs(d.epsilon_m)


def test_sign_pattern_claim_names_the_dossier_edge(bench_dossiers, golden, amo):
    """The sign-pattern claim names the edge the dossier anchored on, read
    from sign * mu and whether the pattern held.  The m = 7 dual edges lie
    about 33 approximant widths below the approximant gap, so the upper one
    is nearer e_minus: the approximant edges cannot name it."""
    def claim(d):
        return next(c for c in pl.claims_report([d])["claims"] if "sign pattern" in c["claim"])

    cfg = pl.PipelineConfig(q_target=150, edge="lower")
    lower = pl.analyze_gap(0.25, amo, golden, 1, cfg)
    assert claim(lower)["claim"] == "m=1: mu sign pattern at lower edge"
    assert claim(lower)["passed"]
    upper = bench_dossiers["m7"]
    assert abs(upper.edge_energy - upper.e_minus) < abs(upper.edge_energy - upper.e_plus)
    assert claim(upper)["claim"] == "m=7: mu sign pattern at upper edge"
    # a broken pattern: sign * mu has the other edge's sign, and the flag says so
    broken = dataclasses.replace(lower, mu=-lower.mu, flags=("edge-sign-pattern",))
    assert claim(broken)["claim"] == "m=1: mu sign pattern at lower edge"
    assert not claim(broken)["passed"]


def test_unknown_edge_is_rejected(golden, amo):
    with pytest.raises(ValueError, match="'upper' or 'lower'"):
        pl.analyze_gap(0.25, amo, golden, 1, pl.PipelineConfig(edge="Lower"))


def test_rotation_form_prediction_m3(golden, amo, monkeypatch):
    """At the m=3 upper edge the double step runs at eps_m and the normalized
    rotation form predicts the measured rotation-number shift.  The averaging
    reuses the perturbation stage's matrix instead of computing it again."""
    calls = []
    original = pl.reducibility.perturbation_matrix
    monkeypatch.setattr(pl.reducibility, "perturbation_matrix",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    cfg = pl.PipelineConfig(q_target=250, run_averaging=True)
    d = pl.analyze_gap(0.25, amo, golden, 3, cfg)
    assert len(calls) == 1
    rf = d.rotation_form
    assert rf is not None
    assert rf["upper_right"] < 0.0
    assert rf["det"] > 0.0
    assert rf["remainder_times_eps3"] < 0.1 * rf["sqrt_det"]
    assert rf["rho_prime_predicted"] == pytest.approx(rf["rho_shift_measured"],
                                                      rel=1e-3)
    # the generator taken straight from log C reproduces the values of the
    # term-by-term log expansion L0 + eps L1 + eps^2 L2, the (1,2) entry to 1 ulp
    assert abs(rf["upper_right"] - -0.004039671375483531) <= math.ulp(0.004039671375483531)
    assert rf["det"] == 6.348497672387806e-05
    assert rf["sqrt_det"] == 0.00796774602531218
    assert rf["remainder_times_eps3"] == 8.729990607005134e-06
    assert rf["rho_prime_predicted"] == 0.0012681061652292354


def test_averaging_keeps_the_strip_tolerance_of_its_remainder(golden, amo, monkeypatch):
    """The averaging report norms run under the loose diagnostic tolerance on
    copies.  At golden m = 3 the second step's remainder comes through its
    report's trim unchanged, and the double step still returns it with the
    default strip tolerance."""
    steps = []
    original = pl.reducibility.double_step
    monkeypatch.setattr(pl.reducibility, "double_step",
                        lambda *a, **k: steps.append(original(*a, **k)) or steps[-1])
    d = pl.analyze_gap(0.25, amo, golden, 3, pl.PipelineConfig(q_target=250, run_averaging=True))
    assert d.rotation_form is not None and len(steps) == 1
    assert steps[0].pert_final.strip_tol == DEFAULT_STRIP_TOL


def test_rotation_form_inadmissible_at_m1(golden, amo):
    """At m=1 the certified step is order one; the averaging gate refuses it
    and the dossier records the flag instead of failing."""
    cfg = pl.PipelineConfig(q_target=250, run_averaging=True)
    d = pl.analyze_gap(0.25, amo, golden, 1, cfg)
    assert d.rotation_form is None
    assert "averaging-inadmissible" in d.flags


def test_unmeasurable_averaging_gate_is_inadmissible_at_m5(golden, amo):
    """At m=5 the gate quantity ||Y||_delta cannot be measured on the strip
    (its tail bound is infinite).  The dossier records the flag, as the gate
    does at m=1, and every other field is that of the dossier without
    averaging."""
    plain = pl.analyze_gap(0.25, amo, golden, 5, pl.PipelineConfig(q_target=250))
    d = pl.analyze_gap(0.25, amo, golden, 5,
                       pl.PipelineConfig(q_target=250, run_averaging=True))
    assert d.rotation_form is None
    assert d.flags == plain.flags + ("averaging-inadmissible",)
    assert repr(vars(d)) == repr({**vars(plain), "flags": d.flags})


def test_lower_edge_rotation_form_m3(golden, amo):
    """A lower-edge step (eps_m > 0) crosses the gap upward, so the generator
    D turns the other way (D[0,1] > 0); its mirror -D is normalized, and the
    rotation form predicts the measured shift at E + eps_m."""
    cfg = pl.PipelineConfig(q_target=250, edge="lower", run_averaging=True)
    d = pl.analyze_gap(0.25, amo, golden, 3, cfg)
    assert d.epsilon_m > 0.0
    rf = d.rotation_form
    assert rf is not None
    assert rf["upper_right"] > 0.0
    assert rf["det"] > 0.0
    report = pl.claims_report([d])
    assert (report["passed"], report["total"]) == (5, 5)


def test_unmeasurable_averaging_report_is_inadmissible(golden, amo):
    """At lam = 0.1, m = 6 the gate passes but the report norms of the step
    cannot be measured on the strip.  The dossier records the flag, and
    every other field is that of the dossier without averaging."""
    plain = pl.analyze_gap(0.1, amo, golden, 6, pl.PipelineConfig(q_target=250))
    d = pl.analyze_gap(0.1, amo, golden, 6,
                       pl.PipelineConfig(q_target=250, run_averaging=True))
    assert d.rotation_form is None
    assert d.flags == plain.flags + ("averaging-inadmissible",)
    assert repr(vars(d)) == repr({**vars(plain), "flags": d.flags})


def test_dossier_displaced_tiny_gap_m7(golden, amo, monkeypatch):
    """A gap narrower than the approximant displacement is searched in one
    window spanning both approximant edges; the full dossier still closes,
    and the Bloch stage costs two solves at the resonant phases, one
    doubling and the snap."""
    calls = []
    original = scipy.linalg.eig_banded
    monkeypatch.setattr(scipy.linalg, "eig_banded",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    d = pl.analyze_gap(0.25, amo, golden, 7, pl.PipelineConfig(q_target=250))
    assert abs(d.n_tilde) == 7
    assert d.off_normal_residual < 1e-8
    assert d.width_bounded
    assert d.shift_differs
    assert abs(d.degree) == 7
    assert len(calls) <= 4


def test_bloch_stage_solves_two_resonant_phases(golden, amo, monkeypatch):
    """The m = 1 gap is wider than twice the search's reach, so each of the
    two resonant phases (m alpha + j)/2 is solved in two windows; with one
    doubling and the snap the dossier makes at most six banded solves."""
    calls = []
    original = scipy.linalg.eig_banded
    monkeypatch.setattr(scipy.linalg, "eig_banded",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    d = pl.analyze_gap(0.25, amo, golden, 1, pl.PipelineConfig(q_target=250))
    assert abs(d.n_tilde) == 1
    assert len(calls) <= 6


def test_refinement_stopped_by_its_cap_is_flagged(golden, amo, monkeypatch):
    """A dual refinement that reaches DUAL_MAX_TRUNC before its stopping rule
    holds marks the dossier "dual-truncation-cap", through the snap.  The
    golden m = 7 refinement meets the rule at truncation 256, one doubling,
    so only the cap at 256 with DUAL_TAIL_TOL at 0 stops it there unmet:
    the dossier then completes with the same numbers and the flag."""
    cfg = pl.PipelineConfig(q_target=250)
    plain = pl.analyze_gap(0.25, amo, golden, 7, cfg)
    assert "dual-truncation-cap" not in plain.flags
    monkeypatch.setattr(du, "DUAL_MAX_TRUNC", 256)
    assert pl.analyze_gap(0.25, amo, golden, 7, cfg).flags == plain.flags
    monkeypatch.setattr(du, "DUAL_TAIL_TOL", 0.0)
    capped = pl.analyze_gap(0.25, amo, golden, 7, cfg)
    assert capped.flags == ("dual-truncation-cap",) + plain.flags
    assert repr(capped.to_dict() | {"flags": ()}) == repr(plain.to_dict() | {"flags": ()})
    assert set(capped.to_dict()) == set(plain.to_dict())


def test_dossier_m9_certifies_its_upper_edge(golden, amo):
    """At 144/233 the m=9 pair search finds the upper-edge wave: the
    parabolic sign pattern holds and the energy step points down."""
    d = pl.analyze_gap(0.25, amo, golden, 9, pl.PipelineConfig(q_target=250))
    assert abs(d.n_tilde) == 9
    assert "edge-sign-pattern" not in d.flags
    assert d.epsilon_m < 0.0
    assert d.width_bounded
    assert d.shift_differs


@pytest.fixture(scope="module")
def liouville():
    return ar.synth_liouville(0.2, 3, seed=14)        # convergents (31, 497)


@pytest.mark.parametrize("lam, freq_name, q_target, m", [
    (0.25, "golden", 34, 1),
    (0.01, "liouville", 500, 1),
    (0.01, "liouville", 500, 2),
    (0.01, "liouville", 500, 3),
    (0.01, "liouville", 500, 4),
])
def test_side_search_rung_comes_first(lam, freq_name, q_target, m, amo, request):
    """Dossiers a single-eigenvalue pick at the resonant phases got wrong: at
    21/34 a wide window held a flat non-edge eigenvalue, and at the Liouville
    frequency it returned a far resonance.  Matching a pair of extremal
    eigenvalues to both approximant edges certifies them all."""
    freq = request.getfixturevalue(freq_name)
    d = pl.analyze_gap(lam, amo, freq, m, pl.PipelineConfig(q_target=q_target))
    assert abs(d.n_tilde) == m
    assert d.width_bounded
    assert d.shift_differs
    assert d.flags == ()
    assert d.off_normal_residual <= 1e-12


@pytest.mark.parametrize("lam, m, n_tilde", [(0.05, 1, 1), (0.25, 3, 5)])
def test_side_search_rung_keeps_stronger_liouville_dossiers(lam, m, n_tilde, amo, liouville):
    """At these couplings a single-eigenvalue pick at the resonant phases
    returned a far resonance (n = -63 or 31) whose frame the reduction cannot
    flatten.  The pair search closes both dossiers; the m=3 one carries the
    wave of the n=5 gap, and the label guard flags it."""
    d = pl.analyze_gap(lam, amo, liouville, m, pl.PipelineConfig(q_target=500))
    assert abs(d.n_tilde) == n_tilde
    assert d.off_normal_residual < 1e-8
    assert ("resonance-label-mismatch" in d.flags) == (n_tilde != m)


def test_bloch_stage_lets_programming_errors_through(golden, amo, monkeypatch):
    """A bug inside the dual search is not a numerical breakdown: it leaves
    the bloch stage as itself, not as a StageError."""
    def broken(*args, **kwargs):
        raise TypeError("bug in the dual search")

    monkeypatch.setattr(pl.duality, "find_bloch_resonant", broken)
    with pytest.raises(TypeError, match="bug in the dual search"):
        pl.analyze_gap(0.25, amo, golden, 1, pl.PipelineConfig(q_target=150))


def test_small_divisor_breach_is_a_stage_error(golden, amo, monkeypatch):
    """A numerical breakdown inside a stage is a StageError naming the
    stage, with the typed error as its cause."""
    monkeypatch.setattr(pl.reducibility, "DIVISOR_CUTOFF", 10.0)
    with pytest.raises(StageError) as err:
        pl.analyze_gap(0.25, amo, golden, 1, pl.PipelineConfig(q_target=150))
    assert err.value.stage == "reduce"
    assert isinstance(err.value.cause, SmallDivisorError)


def test_frame_at_its_grid_cap_is_a_stage_error(amo):
    """Golden partial quotients up to q = 144, then one deep quotient: at
    lam = 0.1 the m = 2 frame still misses det = 1 at the 2^16-point grid
    cap, and the reduce stage says so instead of conjugating by it."""
    alpha = ar.from_cf([1] * 11 + [4428663269] + [1] * 8)
    with pytest.raises(StageError) as err:
        pl.analyze_gap(0.1, amo, alpha, 2, pl.PipelineConfig(q_target=144))
    assert err.value.stage == "reduce"
    assert isinstance(err.value.cause, FrameError)
    assert "65536-point grid cap" in str(err.value.cause)


@pytest.mark.parametrize("m, qp_width", [(5, 9.667619e-5), (7, 6.796420e-6),
                                         (9, 9.735913e-7)])
def test_lower_edge_dossier_anchors_on_its_own_edge(m, qp_width, golden, amo, upper_edge):
    """Both edges of the quasi-periodic gap are the resonant dual pair; a
    lower-edge dossier takes the pair's lower member, a quasi-periodic width
    below the upper-edge dossier's energy, with the mirrored sign pattern.
    The upper search's unrefined partner is that lower edge, within its bound."""
    upper = pl.analyze_gap(0.25, amo, golden, m, pl.PipelineConfig(q_target=250))
    lower = pl.analyze_gap(0.25, amo, golden, m,
                           pl.PipelineConfig(q_target=250, edge="lower"))
    assert "edge-sign-pattern" not in lower.flags
    assert lower.epsilon_m > 0.0
    assert upper.edge_energy - lower.edge_energy == pytest.approx(qp_width, rel=1e-6)
    partner = upper_edge(upper, upper.approximant).partner
    assert abs(partner.energy - lower.edge_energy) <= partner.bound + 1e-9


@pytest.mark.parametrize("lam, m, edge", [(0.25, 2, "upper"), (0.25, 4, "upper"),
                                          (0.25, 4, "lower"), (0.1, 1, "upper"),
                                          (0.1, 2, "upper"), (0.1, 3, "upper"),
                                          (0.1, 3, "lower"), (0.25, 6, "upper"),
                                          (0.25, 6, "lower"), (0.1, 4, "upper")])
def test_rotation_form_claim_holds_on_golden_averaging_dossiers(lam, m, edge, golden, amo):
    """The rotation form's claim compares the measured shift at 1e-3
    relative, so rho(E + eps_m) runs to the full orbit cap (at the shift
    cross-check's 2^16 steps, four of the first seven missed by 1.35e-3 to
    6.1e-3), and rho(E) is the label's.  The last three failed while rho(E)
    was measured too: relative misses 1.26e-3, 1.43e-3 and 0.71."""
    cfg = pl.PipelineConfig(q_target=250, edge=edge, run_averaging=True)
    d = pl.analyze_gap(lam, amo, golden, m, cfg)
    assert d.rotation_form is not None
    assert d.rotation_form["rho_shift_measured"] == abs(d.rho_shifted - d.rho_edge)
    report = pl.claims_report([d])
    assert (report["passed"], report["total"]) == (5, 5)


@pytest.mark.parametrize("lam, freq_name, q_target, m, edge, differs", [
    (0.25, "golden", 250, 1, "upper", True),
    (0.25, "golden", 250, 5, "upper", True),
    (0.25, "golden", 250, 7, "upper", True),
    (0.25, "golden", 250, 9, "upper", True),
    (0.25, "golden", 250, 7, "lower", True),
    (0.25, "golden", 150, 1, "lower", True),
    (0.1, "golden", 250, 6, "upper", True),
    (0.01, "liouville", 500, 1, "upper", True),
    (0.01, "liouville", 500, 2, "upper", True),
    (0.01, "liouville", 500, 3, "upper", True),
    (0.01, "liouville", 500, 4, "upper", True),
    (0.05, "liouville", 500, 1, "upper", False),
    (0.25, "liouville", 500, 3, "upper", False),
])
def test_crossing_agrees_with_full_rotation_comparison(lam, freq_name, q_target, m, edge,
                                                       differs, amo, request, monkeypatch):
    """shift_differs comes from the pair's other edge: E + eps_m lies past
    [E' - r', E' + r'].  It agrees with comparing rho(E) and rho(E + eps_m)
    to the full 2^20-step cap within 3 (err1 + err2).  At the golden m = 7
    upper edge the margin is the quasi-periodic width, 6.796420e-6."""
    margins = []
    crossing = pl.duality.PairPartner.crossing_margin
    monkeypatch.setattr(pl.duality.PairPartner, "crossing_margin",
                        lambda *a: margins.append(crossing(*a)) or margins[-1])
    freq = request.getfixturevalue(freq_name)
    d = pl.analyze_gap(lam, amo, freq, m, pl.PipelineConfig(q_target=q_target, edge=edge))
    assert d.shift_differs is differs
    assert (margins[0] > 0.0) is differs
    r1, r2 = rotation_numbers(lam, amo, freq, [d.edge_energy, d.edge_energy + d.epsilon_m])
    assert (abs(r1.value - r2.value) > 3.0 * (r1.error + r2.error) + 1e-12) is differs
    if (lam, freq_name, m, edge) == (0.25, "golden", 7, "upper"):
        assert f"{margins[0]:.4e}" == "6.7965e-06"
