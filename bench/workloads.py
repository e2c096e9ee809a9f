"""The three benchmark workloads, their checked outputs and the output checks.

Inputs are fixed by the paper's desk-scale setting: golden-mean frequency,
lambda = 0.25, the almost-Mathieu potential, q_target = 250.  The workload
seed only feeds the energy-pair draw of one extra ``holder_check`` call
(``seeded_ops``), which runs once after the measured passes.  A draw's cost
and memory depend on how close its energies fall to band edges: seeded
over 0-29, the 64- plus 128-pair draws took 2.2-4.7 s, and one seed in four
reached a 2^18-step orbit that raised peak memory from 90 to 117 MB (even a
16-pair draw did so for seeds 202 and 204).  So the timed 64- and 128-pair
calls keep criterion 9's seed 9.

* ``dossier``  - the certified gap dossier, the paper's headline path
  (duality, fourier, reducibility and long-orbit cocycle; almost no spectrum).
* ``labeling`` - gap tables and campaigns (dense spectrum, ~470 short orbits
  at distinct energies; no duality or reducibility).
* ``cli``      - fresh-interpreter CLI commands, the only workload that pays
  the import on every launch and the only user of the cache and of
  ``estimate_beta``.

Checked outputs are compared with ``reference.json`` at the precision the
repository prints each field to (criterion lines, CLI summaries); see
``PRECISION``.
"""

import json
import math
import os
import re

LAM = 0.25
Q_TARGET = 250
REFERENCE_SEED = 9
DOSSIERS = (("m1", 1, False), ("m3_avg", 3, True), ("m7", 7, False))
GAP_QS = (233, 610, 987)
SIGMAS = (1e-2, 3e-3, 1e-3)
HOLDER_PAIRS = (64, 128)
SEEDED_PAIRS = 16
HOLDER_MAX = 1.0        # rho is 1/2-Hoelder; seeds 0-29 give quotients <= 0.14

CLI_COMMANDS = (
    ("spectrum_free", ["spectrum", "--lam", "0", "--q", "89"]),
    ("gaps_cold", ["gaps", "--q", "233", "--cache-dir", "cache"]),
    ("gaps_warm", ["gaps", "--q", "233", "--cache-dir", "cache"]),
    ("spectrum_warm", ["spectrum", "--q", "233", "--cache-dir", "cache"]),
    ("decay_jobs1", ["decay", "--m-max", "8", "--jobs", "1"]),
    ("decay_jobs2", ["decay", "--m-max", "8", "--jobs", "2"]),
    ("homogeneity", ["homogeneity"]),
    ("dual", ["dual", "--energy", "-0.5"]),
    ("beta", ["beta", "--alpha", "sqrt2m1"]),
    ("reduce", ["reduce", "--m", "1"]),
    ("cache_verify", ["cache", "verify", "--cache-dir", "cache"]),
)

# Format each float is checked at: one unit in its last printed digit.
PRECISION = {
    "width": ".4e", "mu": ".4e", "eps_m": ".4e",    # dossier (criterion 7 prints ~5 digits)
    "bands": ".10f", "edges": ".10f",               # energies resolved to 1e-12
    "rho_resid": ".3e",                             # criterion 5 prints .3e
    "gamma": ".6f",                                 # `qpgaps decay` prints 6 decimals
    "min_ratio": ".8f",                             # criterion 8 prints .8f
    "max_quotient": ".4f",                          # criterion 9 prints .4f
}


def workload_inputs():
    from qpgaps import arithmetic, cocycle
    return arithmetic.golden_mean(40), cocycle.amo_potential()


# ---------------------------------------------------------------- library ops

def _dossier_op(freq, f, m, averaging):
    from qpgaps import pipeline

    def op():
        cfg = pipeline.PipelineConfig(q_target=Q_TARGET, run_averaging=averaging)
        d = pipeline.analyze_gap(LAM, f, freq, m, cfg)
        claims = pipeline.claims_report([d])
        return {
            "label": d.label, "approximant": list(d.approximant), "width": d.width,
            "mu": d.mu, "eps_m": d.epsilon_m, "sign": d.sign, "degree": d.degree,
            "n_tilde": None if d.n_tilde is None else int(d.n_tilde),
            "width_bounded": bool(d.width_bounded), "shift_differs": bool(d.shift_differs),
            "flags": list(d.flags), "claims_passed": claims["passed"],
            "claims_total": claims["total"],
        }
    return op


def _gaps_op(freq, f, q):
    from qpgaps import spectrum

    def op():
        pq = next(c for c in freq.convergents if c[1] == q)
        bs = spectrum.band_structure(LAM, f, pq, e_resolution=1e-12)
        recs = spectrum.label_gaps(bs, freq)
        return {
            "bands": [list(b) for b in bs.bands],
            "labels": [r.label for r in recs],
            "edges": [[r.e_minus, r.e_plus] for r in recs],
            "flagged": sum(1 for r in recs if r.flagged),
            "rho_resid": {str(r.label): None if math.isnan(r.rho_resid) else r.rho_resid
                          for r in recs},
            "flagged_labels": [r.label for r in recs if r.flagged],
        }
    return op


def _decay_op(freq, f):
    from qpgaps import pipeline

    def op():
        camp = pipeline.decay_campaign(LAM, f, freq, range(1, 9),
                                       pipeline.PipelineConfig(q_target=Q_TARGET))
        return {"gamma": camp.fit.gamma, "monotone_from": camp.monotone_from,
                "stable": [bool(camp.stable[m]) for m in sorted(camp.stable)]}
    return op


def _homogeneity_op(freq, f):
    from qpgaps import pipeline

    def op():
        camp = pipeline.homogeneity_campaign(LAM, f, freq, SIGMAS,
                                             pipeline.PipelineConfig(q_target=Q_TARGET))
        return {"min_ratio": [row[1] for row in camp.rows]}
    return op


def _holder_op(freq, f, pairs, seed):
    from qpgaps import spectrum

    def op():
        rep = spectrum.holder_check(LAM, f, freq, e_pairs=pairs, seed=seed,
                                    rho_target_err=1e-7)
        return {"seed": seed, "max_quotient": rep.max_quotient,
                "pairs_used": rep.pairs_used}
    return op


def library_ops(workload, freq, f):
    """[(operation name, zero-argument callable returning checked outputs)]."""
    if workload == "dossier":
        return [(name, _dossier_op(freq, f, m, avg)) for name, m, avg in DOSSIERS]
    ops = [(f"gaps_q{q}", _gaps_op(freq, f, q)) for q in GAP_QS]
    ops += [("decay", _decay_op(freq, f)), ("homogeneity", _homogeneity_op(freq, f))]
    ops += [(f"holder_{n}", _holder_op(freq, f, n, REFERENCE_SEED)) for n in HOLDER_PAIRS]
    return ops


def seeded_ops(workload, freq, f, seed):
    """The operations whose inputs come from the workload seed (checked, not timed)."""
    if workload != "labeling":
        return []
    return [("holder_seeded", _holder_op(freq, f, SEEDED_PAIRS, seed))]


def warm_up(workload, freq, f):
    """One small untimed call through every layer the workload uses."""
    from qpgaps import pipeline, spectrum
    if workload == "dossier":
        pipeline.analyze_gap(LAM, f, freq, 1, pipeline.PipelineConfig(q_target=34))
    elif workload == "labeling":
        cfg = pipeline.PipelineConfig(q_target=34)
        spectrum.label_gaps(spectrum.band_structure(LAM, f, (21, 34)), freq)
        pipeline.decay_campaign(LAM, f, freq, range(1, 3), cfg)
        pipeline.homogeneity_campaign(LAM, f, freq, SIGMAS[:1], cfg)
        spectrum.holder_check(LAM, f, freq, e_pairs=1, rho_target_err=1e-7)


# ---------------------------------------------------------------- checks

def _unit(ref, spec):
    digits = int(spec[1:-1])
    if spec.endswith("f") or ref == 0.0:
        return 10.0 ** -digits
    return 10.0 ** (math.floor(math.log10(abs(ref))) - digits)


def _close(ref, got, spec):
    return got is not None and abs(got - ref) <= _unit(ref, spec)


def _floats_close(ref, got, spec):
    ref_flat, got_flat = _flatten(ref), _flatten(got)
    return len(ref_flat) == len(got_flat) and all(
        _close(r, g, spec) for r, g in zip(ref_flat, got_flat))


def _flatten(x):
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _flatten(item)]
    return [x]


def check_library(op_name, ref, got):
    """List of problems with one operation's outputs ([] when they match)."""
    if op_name == "holder_seeded" and got["seed"] != ref["seed"]:
        return _check_holder_unreferenced(got)
    problems = []
    for key, ref_val in ref.items():
        got_val = got.get(key)
        if op_name.startswith("gaps_") and key == "flagged":
            ok = got_val <= ref_val
        elif key == "rho_resid":
            # criterion 5: the reference's flagged residuals may only improve
            ok = all(got_val.get(lab) is not None
                     and got_val[lab] <= ref_val[lab] + _unit(ref_val[lab], ".3e")
                     for lab in map(str, ref["flagged_labels"]))
        elif key == "flagged_labels":
            ok = set(got_val) <= set(ref_val)
        elif key in PRECISION and ref_val is not None:
            ok = _floats_close(ref_val, got_val, PRECISION[key])
        else:
            ok = got_val == ref_val
        if not ok:
            problems.append(f"{op_name}.{key}: got {_short(got_val)}, reference {_short(ref_val)}")
    return problems


def _check_holder_unreferenced(got):
    """A draw without a recorded reference: the invariants every draw keeps."""
    q = got["max_quotient"]
    if got["pairs_used"] == SEEDED_PAIRS and 0.0 < q <= HOLDER_MAX:
        return []
    return [f"holder_seeded: pairs_used {got['pairs_used']}, max quotient {q!r}"]


def _short(value, limit=160):
    text = json.dumps(value, default=str)
    return text if len(text) <= limit else text[:limit] + "..."


# ---------------------------------------------------------------- cli outputs

# keys whose value the check treats specially, in JSON files and CSV columns
NOT_WORSE = {"rho_resid"}           # criterion 5 residuals may only improve
MAY_CLEAR = {"flagged"}             # a flagged gap may become unflagged
# the homogeneity minimiser: every window ratio is 1 - O(1e-13), so argmin_E
# (and the gap sum taken there) moves with last-bit changes of the band edges
UNCHECKED = {"argmin_E", "gap_sum", "gap_sum_over_sigma"}
REL_TOL, ABS_TOL = 1e-6, 1e-10
_NUM = re.compile(r"^-?(\d+\.\d*|\d*\.\d+|\d+)([eE][-+]?\d+)?$|^-?(nan|inf)$")


def read_outputs(out_dir):
    """{file name: text} for every file a command wrote."""
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name)) as fh:
                files[name] = fh.read()
    return files


def check_cli(cmd, ref, got):
    """Problems with one command's exit code and output files."""
    if got["rc"] != 0:
        return [f"{cmd}: exit code {got['rc']}, stderr {got.get('stderr', '')!r}"]
    if sorted(got["files"]) != sorted(ref["files"]):
        return [f"{cmd}: wrote {sorted(got['files'])}, reference {sorted(ref['files'])}"]
    problems = []
    for name, ref_text in ref["files"].items():
        text = got["files"][name]
        if name.endswith(".json"):
            bad = _json_diff(json.loads(ref_text), json.loads(text), name)
        elif name.endswith(".jsonl"):
            ref_lines, lines = ref_text.splitlines(), text.splitlines()
            bad = [] if len(ref_lines) == len(lines) else [f"{name}: line count"]
            for i, (r, g) in enumerate(zip(ref_lines, lines)):
                bad += _json_diff(json.loads(r), json.loads(g), f"{name}:{i + 1}")
        else:
            bad = _csv_diff(ref_text, text, name)
        problems += [f"{cmd}: {b}" for b in bad[:5]]
    return problems


def _is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _value_ok(key, ref, got):
    if key in UNCHECKED:
        return True
    if key in MAY_CLEAR and ref is True:
        return isinstance(got, bool)
    if key in NOT_WORSE:
        if ref is None or (isinstance(ref, float) and math.isnan(ref)):
            return True                 # not measured at the reference
        return _is_num(got) and got <= ref * (1 + REL_TOL) + ABS_TOL
    if isinstance(ref, float):
        if not _is_num(got):
            return False
        if math.isnan(ref) or math.isnan(got):
            return math.isnan(ref) and math.isnan(got)
        return abs(got - ref) <= REL_TOL * abs(ref) + ABS_TOL
    return got == ref and type(got) is type(ref)


def _json_diff(ref, got, where, key=None):
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            return [f"{where}: keys differ"]
        return [d for k in ref for d in _json_diff(ref[k], got[k], f"{where}.{k}", k)]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{where}: length differs"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in _json_diff(r, g, f"{where}[{i}]", key)]
    return [] if _value_ok(key, ref, got) else [f"{where}: got {got!r}, reference {ref!r}"]


def _cell(text):
    if _NUM.match(text):
        return float(text) if any(c in text for c in ".eEni") else int(text)
    return {"True": True, "False": False}.get(text, text)


def _csv_diff(ref_text, text, name):
    ref_lines, lines = ref_text.splitlines(), text.splitlines()
    if len(ref_lines) != len(lines):
        return [f"{name}: {len(lines)} lines, reference {len(ref_lines)}"]
    header = []
    problems = []
    for i, (r, g) in enumerate(zip(ref_lines, lines)):
        if r.startswith("#"):
            if r != g:
                problems.append(f"{name}:{i + 1}: {g!r} != {r!r}")
            continue
        rc, gc = r.split(","), g.split(",")
        if not any(_NUM.match(c) for c in rc):
            header = rc
            if r != g:
                problems.append(f"{name}:{i + 1}: header {g!r} != {r!r}")
            continue
        if len(rc) != len(gc):
            problems.append(f"{name}:{i + 1}: column count")
            continue
        for j, (rv, gv) in enumerate(zip(rc, gc)):
            key = header[j] if j < len(header) else None
            if not _value_ok(key, _cell(rv), _cell(gv)):
                problems.append(f"{name}:{i + 1}:{key}: got {gv}, reference {rv}")
    return problems
