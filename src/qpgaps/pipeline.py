"""End-to-end runs: gap dossiers, decay campaigns, homogeneity campaigns.

A dossier walks one labeled gap through the whole machine: approximant
spectrum, dual eigenpair at the chosen edge, resonance, frame reduction,
average identities, the first-order perturbation matrix, the certified energy
step, and the shift test: the step must land past the gap's other edge.  rho
at the edge is the label's frac(m alpha) / 2; one orbit measures rho(E + eps_m).
Campaigns sweep labels or window sizes and return tables; claims_report
turns dossiers into the pass/fail map that `qpgaps reduce` writes as
claims.json.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import cocycle, duality, reducibility, spectrum
from .errors import ConfigError, QPGapsError, StageError

WIDTH_STABLE_REL = 0.10
WIDTH_STABLE_ABS = 1e-13


@dataclass
class PipelineConfig:
    q_target: int = 250              # use the largest convergent with q <= this
    theta_samples: int = None        # phase grid at band limit >= 2; band_structure default when None
    edge: str = "upper"              # anchor at E_m^+; "lower" at E_m^-
    run_averaging: bool = False      # drive the double step at eps_m when admissible


@dataclass
class GapDossier:
    label: int
    approximant: tuple
    e_minus: float
    e_plus: float
    width: float
    edge_energy: float = math.nan          # dual-refined edge actually used
    theta: float = math.nan
    n_tilde: object = None
    label_over_resonance: float = math.nan  # |m| / |n|
    duality_residual: float = math.nan
    wave_residual: float = math.nan
    sign: int = 0
    mu: float = math.nan
    mu_iterate: float = math.nan
    off_normal_residual: float = math.nan
    degree: int = 0
    averages: tuple = ()
    identity_devs: tuple = ()               # (shift21, shift22, wronskian)
    gram_det: float = math.nan
    lower_bound_ok: bool = False
    epsilon_m: float = math.nan
    width_bounded: bool = False             # width <= |epsilon_m|
    width_slack: float = math.nan
    shift_differs: bool = False
    rho_edge: float = math.nan              # frac(m alpha) / 2, from the label
    rho_shifted: float = math.nan           # measured at E + eps_m
    collapsed: bool = False
    flags: tuple = ()
    rotation_form: dict = None       # deep-averaging results when run_averaging is set

    def to_dict(self):
        d = asdict(self)
        d["approximant"] = list(self.approximant)
        return d


def _stage(name, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a numerical breakdown (a package error, an
    ArithmeticError, or a ValueError, numpy's LinAlgError included) raised as
    StageError(name); anything else, a programming error, passes unwrapped."""
    try:
        return fn(*args, **kwargs)
    except (QPGapsError, ArithmeticError, ValueError) as exc:
        raise StageError(name, exc) from exc


def analyze_gap(lam, f, freq, m, config=None):
    """Full dossier for the gap with label m at the configured convergent.
    ConfigError when no convergent has q <= q_target."""
    cfg = config or PipelineConfig()
    if cfg.edge not in ("upper", "lower"):
        raise ValueError(f"edge must be 'upper' or 'lower', got {cfg.edge!r}")
    pq = freq.largest_convergent(cfg.q_target)
    bs = _stage("spectrum", spectrum.band_structure, lam, f, pq,
                theta_samples=cfg.theta_samples)
    matches = [r for r in _stage("label", bs.gaps) if r.label == m]
    if not matches:
        raise StageError("label", ValueError(f"no gap with label {m} at q={pq[1]}"))
    rec = matches[0]
    dossier = GapDossier(
        label=m, approximant=pq, e_minus=rec.e_minus, e_plus=rec.e_plus,
        width=rec.width,
    )
    flags = []

    sol = _stage("bloch", duality.find_bloch_resonant, lam, f, freq, (rec.e_minus, rec.e_plus),
                 m, pq, cfg.edge, duality.DUAL_START_N)
    _stage("bloch", duality.snap_to_resonance, sol, lam, f, freq)
    dossier.edge_energy = sol.energy
    dossier.theta = sol.theta
    dossier.n_tilde = sol.n_tilde
    dossier.duality_residual = sol.duality_residual
    dossier.label_over_resonance = abs(m) / max(abs(sol.n_tilde), 1)
    if sol.truncation_capped:
        flags.append("dual-truncation-cap")
    if abs(sol.n_tilde) != abs(m):
        # the wave belongs to another gap's resonance
        flags.append("resonance-label-mismatch")

    wave = _stage("wave", duality.assemble_wave, sol, lam, f, freq)
    dossier.wave_residual = wave.residual

    red = _stage("reduce", reducibility.reduce_at_edge, sol.energy, wave, freq, lam, f)
    dossier.sign = red.parabolic.sign
    dossier.mu = red.parabolic.mu
    dossier.mu_iterate = red.mu_iterate
    dossier.off_normal_residual = red.off_normal_residual
    dossier.degree = red.degree
    mu_eff = red.parabolic.sign * red.parabolic.mu
    pattern_ok = red.parabolic.collapsed or (mu_eff < 0 if cfg.edge == "lower" else mu_eff > 0)
    if not pattern_ok:
        flags.append("edge-sign-pattern")

    if red.parabolic.collapsed:
        dossier.collapsed = True
        dossier.epsilon_m = 0.0
        dossier.flags = tuple(flags)
        return dossier

    ident = _stage("identities", reducibility.average_identities, red, freq)
    dossier.averages = ident.averages
    dossier.identity_devs = (ident.shift_dev_21, ident.shift_dev_22, ident.wronskian_dev)
    dossier.gram_det = ident.gram_det
    dossier.lower_bound_ok = ident.lower_bound_ok

    pert = _stage("perturbation", reducibility.perturbation_matrix, red, lam, f,
                  sol.energy, freq)

    # the step self-orients: mu_eff > 0 at an upper edge gives eps < 0, and the
    # mirrored pattern at a lower edge gives eps > 0
    eps_m = _stage("epsilon", reducibility.gap_edge_epsilon, ident.averages, red.parabolic)
    dossier.epsilon_m = eps_m
    dossier.width_bounded = dossier.width <= abs(eps_m)
    dossier.width_slack = abs(eps_m) - dossier.width

    # the step crosses the gap when it lands past the pair's other edge,
    # beyond that edge's residual bound: spectral data, no orbit needed
    dossier.shift_differs = sol.partner.crossing_margin(sol.energy, eps_m) > 0.0

    if cfg.run_averaging:
        try:
            dossier.rotation_form = _stage(
                "averaging", rotation_form_at_edge, red, pert, eps_m, freq)
        except StageError as exc:
            # inadmissible step size (|eps_m| too large at small labels) is an
            # expected outcome, recorded rather than fatal
            if not isinstance(exc.cause, ArithmeticError):
                raise
            flags.append("averaging-inadmissible")

    # rho is constant on the gap's closure, and the label fixes it there:
    # 2 rho = m alpha (mod 1) (`spectrum._label_from_ids`); only E + eps_m takes an orbit
    cap = (cocycle.ROTATION_MAX_ITERATIONS if dossier.rotation_form is not None
           else reducibility.SHIFT_MAX_ITERATIONS)
    (shifted,) = _stage("shift", cocycle.rotation_numbers, lam, f, freq, [sol.energy + eps_m],
                        max_iterations=cap)
    dossier.rho_edge, dossier.rho_shifted = (m * freq.value) % 1.0 / 2.0, shifted.value
    if dossier.rotation_form is not None:
        dossier.rotation_form["rho_shift_measured"] = abs(shifted.value - dossier.rho_edge)
    dossier.flags = tuple(flags)
    return dossier


def rotation_form_at_edge(reduction, pert, eps_m, freq):
    """Drive the double averaging step at the certified energy step and
    normalize the constant part to the rotation form.

    Returns the summary: the trace-free generator D of the constant part
    (`rotation_form_generator`), its positive determinant, its upper-right
    entry (negative at an upper edge, positive at a lower one), the
    third-order remainder, and the rotation-form
    prediction sqrt(det)/(2 pi); `analyze_gap` fills in the measured
    rotation-number shift at E + eps_m.
    """
    ds = reducibility.double_step(reduction.parabolic, pert, eps_m, freq)
    D = reducibility.rotation_form_generator(reduction.parabolic, ds.const_final)
    # a lower-edge step (eps_m > 0) crosses the gap upward, so its generator
    # turns the other way: the mirror -D is the one in rotation orientation
    _, sqrt_det = reducibility.elliptic_normalize(-D if eps_m > 0 else D)
    rem = reducibility.remainder_sup(reduction.parabolic, ds.const_final,
                                     ds.pert_final, eps_m, D)
    predicted = sqrt_det / (2.0 * math.pi)
    return {
        "upper_right": float(D[0, 1]),
        "det": float(np.linalg.det(D)),
        "sqrt_det": float(sqrt_det),
        "remainder_times_eps3": float(abs(eps_m) ** 3 * rem),
        "rho_prime_predicted": float(predicted),
        "reports": [r.to_dict() for r in ds.reports],
    }


@dataclass
class DecayCampaign:
    convergents: tuple
    widths: dict                      # |m| -> {q: width}
    stable_widths: dict               # |m| -> width at the finest convergent
    stable: dict                      # |m| -> bool (met the stability rule)
    fit: object = None                # spectrum.DecayFit or None
    monotone_from: int = None         # smallest m0 with widths decreasing from there on

    def table_rows(self):
        qs = [q for _, q in self.convergents]
        rows = []
        for m in sorted(self.widths):
            rows.append([m] + [self.widths[m].get(q, math.nan) for q in qs]
                        + [self.stable.get(m, False)])
        return qs, rows

    def to_dict(self):
        return {
            "convergents": [list(pq) for pq in self.convergents],
            "widths": {str(m): {str(q): w for q, w in per.items()}
                       for m, per in self.widths.items()},
            "stable": {str(m): bool(v) for m, v in self.stable.items()},
            "gamma": None if self.fit is None else self.fit.gamma,
            "fit_residual": None if self.fit is None else self.fit.residual,
            "fit_rms_residual": None if self.fit is None else self.fit.rms_residual,
            "monotone_from": self.monotone_from,
        }


def _decay_convergent_worker(payload):
    """Labeled gaps of one convergent (top-level: pool-picklable)."""
    lam, f, pq, theta_samples = payload
    return spectrum.band_structure(lam, f, tuple(pq), theta_samples=theta_samples).gaps()


def decay_campaign(lam, f, freq, m_values, config=None, jobs=1):
    """Gap widths per label across convergents, with the exponential fit.

    The convergents used are the last four, at most, with 2 max|m| + 2 <=
    q <= q_target; fewer than two is a ConfigError.  Widths enter the fit
    once stable (relative change < 10% or absolute
    change < 1e-13 between the last two convergents); unstable labels are
    kept in the table but dropped from the fit.  jobs > 1 fans the
    per-convergent work over processes; results are merged in convergent
    order, so the output does not depend on the worker count.
    """
    cfg = config or PipelineConfig()
    m_set = sorted({abs(int(m)) for m in m_values if m != 0})
    if not m_set:
        raise ConfigError("decay campaign needs at least one nonzero label")
    pqs = [pq for pq in freq.convergents
           if 2 * max(m_set) + 2 <= pq[1] <= cfg.q_target]
    if len(pqs) < 2:
        raise ConfigError(f"need at least 2 usable convergents with "
                          f"{2 * max(m_set) + 2} <= q <= {cfg.q_target}, have {len(pqs)}")
    pqs = pqs[-4:]

    payloads = [(lam, f, pq, cfg.theta_samples) for pq in pqs]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        importlib.import_module("scipy.linalg")   # once here: forked workers inherit it
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_pq = list(pool.map(_decay_convergent_worker, payloads))
    else:
        per_pq = [_decay_convergent_worker(p) for p in payloads]

    widths = {m: {} for m in m_set}
    for pq, records in zip(pqs, per_pq):
        for r in records:
            if abs(r.label) in m_set:
                prev = widths[abs(r.label)].get(pq[1], 0.0)
                widths[abs(r.label)][pq[1]] = max(prev, r.width)

    q_last, q_prev = pqs[-1][1], pqs[-2][1]
    stable, stable_widths = {}, {}
    for m in m_set:
        w1, w0 = widths[m].get(q_last), widths[m].get(q_prev)
        if w1 is None or w0 is None:
            stable[m] = False
            continue
        rel = abs(w1 - w0) / max(w1, 1e-300)
        stable[m] = rel < WIDTH_STABLE_REL or abs(w1 - w0) < WIDTH_STABLE_ABS
        stable_widths[m] = w1

    fit_widths = {m: w for m, w in stable_widths.items() if stable[m]}
    fit = spectrum.gap_decay_fit(fit_widths) if len(fit_widths) >= 4 else None

    ms = sorted(stable_widths)
    k = len(ms) - 1                  # widths fall strictly from ms[k] on
    while k > 0 and stable_widths[ms[k - 1]] > stable_widths[ms[k]]:
        k -= 1
    monotone_from = ms[k] if k < len(ms) - 1 else None
    return DecayCampaign(convergents=tuple(pqs), widths=widths,
                         stable_widths=stable_widths, stable=stable, fit=fit,
                         monotone_from=monotone_from)


@dataclass
class HomogeneityCampaign:
    approximant: tuple
    rows: tuple          # (sigma, min_ratio, argmin_E, gap_sum_at_argmin, gap_sum_over_sigma)

    def to_dict(self):
        return {
            "approximant": list(self.approximant),
            "rows": [
                {"sigma": s, "min_ratio": r, "argmin_E": e,
                 "gap_sum": gs, "gap_sum_over_sigma": go}
                for (s, r, e, gs, go) in self.rows
            ],
        }


def homogeneity_campaign(lam, f, freq, sigmas, config=None):
    """Window-measure ratios at the finest convergent, plus the summed width
    of gaps meeting the extremal window (the bookkeeping the homogeneity
    argument runs on).  ConfigError when no convergent has q <= q_target."""
    cfg = config or PipelineConfig()
    pq = freq.largest_convergent(cfg.q_target)
    bs = spectrum.band_structure(lam, f, pq, theta_samples=cfg.theta_samples)
    rows = []
    for s in sigmas:
        res = spectrum.homogeneity_scan(bs, s)
        gap_sum = spectrum.window_gap_sum(bs, res.argmin_energy, s)
        rows.append((s, res.min_ratio, res.argmin_energy, gap_sum, gap_sum / s))
    return HomogeneityCampaign(approximant=pq, rows=tuple(rows))


def claims_report(dossiers):
    """Pass/fail map with measured slack for every checked inequality."""
    claims = []

    def add(name, passed, measured, bound):
        claims.append({"claim": name, "passed": bool(passed),
                       "measured": measured, "bound": bound})

    for d in dossiers:
        tag = f"m={d.label}"
        if d.collapsed:
            add(f"{tag}: collapsed gap short-circuit", True, 0.0, 0.0)
            continue
        add(f"{tag}: width <= |epsilon_m|", d.width_bounded, d.width, abs(d.epsilon_m))
        add(f"{tag}: rotation number moves at E+eps", d.shift_differs,
            abs(d.rho_shifted - d.rho_edge), 0.0)
        pattern_ok = "edge-sign-pattern" not in d.flags    # sign * mu > 0 at an upper edge
        edge = "upper" if (d.sign * d.mu > 0.0) == pattern_ok else "lower"
        add(f"{tag}: mu sign pattern at {edge} edge", pattern_ok, d.sign * d.mu, 0.0)
        add(f"{tag}: average Gram determinant positive", d.gram_det > 0.0,
            d.gram_det, 0.0)
        if d.rotation_form is not None:
            rf = d.rotation_form
            add(f"{tag}: rotation form predicts the shift",
                abs(rf["rho_prime_predicted"] - rf["rho_shift_measured"])
                <= 1e-3 * rf["rho_prime_predicted"] + 1e-9,
                rf["rho_shift_measured"], rf["rho_prime_predicted"])
    return {"claims": claims,
            "passed": sum(1 for c in claims if c["passed"]),
            "total": len(claims)}
