"""Command-line frontend: spectra, gap tables, campaigns, reductions, caching.

Configuration comes from an optional `key = value` file plus flags (flags
win).  Every output file embeds the config hash and the tool version, and
identical configs reproduce byte-identical outputs at any worker count.
Exit codes: 0 success, 2 config error, 3 numerical failure (each one is a
StageError from `pipeline.stage`, and stderr names its stage), 4 cache
corruption.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__, cache, duality, pipeline, spectrum
from .arithmetic import estimate_beta, expand_cf, golden_mean, sqrt2_minus_1, synth_liouville
from .cocycle import amo_potential
from .errors import CacheCorruptionError, ConfigError, QPGapsError, StageError
from .fourier import FourierMap


def _read_text(path, what):
    """Contents of a file named on the command line; ConfigError when it
    cannot be read as text."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def parse_config_file(path):
    out = {}
    for i, line in enumerate(_read_text(path, "config file").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{i}: expected 'key = value'")
        k, v = (t.strip() for t in line.split("=", 1))
        key = k.replace("-", "_")
        if key in out:
            raise ConfigError(f"{path}:{i}: repeated key '{k}'")
        out[key] = v
    return out


def resolve_frequency(spec):
    """Built-in aliases: golden, sqrt2m1,
    liouville:beta=<x>[:seed=<s>][:levels=<n>], or a number; expansions run
    to depth 40."""
    if spec == "golden":
        return golden_mean(40)
    if spec == "sqrt2m1":
        return sqrt2_minus_1(40)
    if spec.startswith("liouville:"):
        pairs = [part.partition("=")[::2] for part in spec.split(":")[1:]]
        kv = dict(pairs)
        unknown = sorted(set(kv) - {"beta", "seed", "levels"})
        if unknown:
            raise ConfigError(f"bad liouville alias '{spec}': unknown key(s) "
                              f"{', '.join(unknown)}")
        if len(kv) < len(pairs):
            repeated = sorted({k for k, _ in pairs if sum(k == j for j, _ in pairs) > 1})
            raise ConfigError(f"bad liouville alias '{spec}': repeated key(s) "
                              f"{', '.join(repeated)}")
        try:
            return synth_liouville(float(kv["beta"]), int(kv.get("levels", 3)),
                                   int(kv.get("seed", 0)))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad liouville alias '{spec}': {exc}") from exc
    try:
        return expand_cf(float(spec), 40)
    except QPGapsError as exc:
        raise ConfigError(f"cannot expand '{spec}': {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad frequency '{spec}': {exc}") from exc


def resolve_potential(spec):
    if spec in ("amo", "cos"):
        return amo_potential() if spec == "amo" else FourierMap.cosine()
    if spec.startswith("file:"):
        path = spec[5:]
        text = _read_text(path, "potential file")
        try:
            f = FourierMap.from_text(text)
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"potential file {path}: {exc}") from exc
        if f.value_shape or f.period != 1 or not f.is_real():
            raise ConfigError(f"potential file {path} must hold a scalar, 1-periodic map "
                              f"real on the axis (shape {f.value_shape or 'scalar'}, "
                              f"period {f.period}, real {f.is_real()})")
        return f
    raise ConfigError(f"unknown potential '{spec}' (use amo, cos, or file:PATH)")


def _read_options(args, keys):
    """Config-file values with flag overrides; flags not given fall back.
    A file key that names no option of the subcommand is a ConfigError."""
    file_cfg = parse_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - {key for key, _, _ in keys if hasattr(args, key)})
    if unknown:
        raise ConfigError(f"{args.config}: no option reads key(s) {', '.join(unknown)}")
    merged = {}
    for key, cast, default in keys:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
        elif key in file_cfg:
            try:
                merged[key] = cast(file_cfg[key])
            except ValueError as exc:
                raise ConfigError(f"config key '{key}': {exc}") from exc
        else:
            merged[key] = default
    return merged


def _write(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _stamp(config_hash):
    return f"# qpgaps {__version__} config_hash={config_hash}\n"


def _json_out(payload, config_hash, config=None):
    payload = dict(payload)
    payload["tool_version"] = __version__
    payload["config_hash"] = config_hash
    if config is not None:
        payload["config"] = config
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _band_structure_cached(lam, f, pq, theta_samples, cache_dir):
    if cache_dir:
        key = cache.band_structure_key(lam, f, pq, theta_samples)
        hit = cache.load_band_structure(cache_dir, key)
        if hit is not None:
            return hit
    bs = pipeline.stage("spectrum", spectrum.band_structure, lam, f, pq,
                        theta_samples=theta_samples)
    if cache_dir:
        cache.store_band_structure(cache_dir, key, bs)
    return bs


COMMON = [
    ("lam", float, 0.25),
    ("freq", str, "golden"),
    ("potential", str, "amo"),
    ("q", int, 250),
    ("theta_samples", int, None),
    ("jobs", int, 1),
]


def _common_setup(args):
    opts = _read_options(args, COMMON + [("out", str, "out")])
    if not math.isfinite(opts["lam"]):
        raise ConfigError(f"coupling must be finite, got {opts['lam']!r}")
    if opts["theta_samples"] is not None and opts["theta_samples"] < 1:
        raise ConfigError(f"theta samples must be positive, got {opts['theta_samples']}")
    if opts["jobs"] < 1:
        raise ConfigError(f"jobs must be positive, got {opts['jobs']}")
    freq = resolve_frequency(opts["freq"])
    f = resolve_potential(opts["potential"])
    cfg_dict = {k: v for k, v in opts.items() if k not in ("jobs", "out")}
    cfg_dict["command"] = args.command
    h = cache.content_hash(cfg_dict)
    return opts, freq, f, h, cfg_dict


def cmd_spectrum(args):
    opts, freq, f, h, run_cfg = _common_setup(args)
    pq = freq.largest_convergent(opts["q"])
    bs = _band_structure_cached(opts["lam"], f, pq, opts["theta_samples"], args.cache_dir)
    out = os.path.join(opts["out"], "bands.csv")
    _write(out, _stamp(h) + spectrum.bands_to_csv(bs))
    if args.emit_plot_data:
        rows = "\n".join(f"{a!r} {b!r}" for a, b in bs.bands)
        _write(os.path.join(opts["out"], "bands.dat"), _stamp(h) + rows + "\n")
    print(f"wrote {out} ({len(bs.bands)} bands, q={pq[1]})")
    return 0


def cmd_gaps(args):
    opts, freq, f, h, run_cfg = _common_setup(args)
    pq = freq.largest_convergent(opts["q"])
    bs = _band_structure_cached(opts["lam"], f, pq, opts["theta_samples"], args.cache_dir)
    records = pipeline.stage("label", spectrum.label_gaps, bs, freq)
    if args.precision == "extended":
        records = [
            pipeline.stage("extended", spectrum.refine_gap_extended, bs, r)
            if 0.0 < r.width < 1e-8 else r
            for r in records
        ]
    _write(os.path.join(opts["out"], "gaps.csv"), _stamp(h) + spectrum.gaps_to_csv(records))
    _write(os.path.join(opts["out"], "gaps.jsonl"), spectrum.gaps_to_jsonl(records))
    flagged = sum(1 for r in records if r.flagged)
    print(f"wrote gaps.csv / gaps.jsonl ({len(records)} gaps, {flagged} flagged)")
    return 0


def cmd_decay(args):
    opts, freq, f, h, run_cfg = _common_setup(args)
    cfg = pipeline.PipelineConfig(q_target=opts["q"], theta_samples=opts["theta_samples"])
    camp = pipeline.decay_campaign(opts["lam"], f, freq, range(1, args.m_max + 1), cfg,
                                   jobs=opts["jobs"])
    qs, rows = camp.table_rows()
    lines = ["m," + ",".join(f"w_q{q}" for q in qs) + ",stable"]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _write(os.path.join(opts["out"], "decay.csv"), _stamp(h) + "\n".join(lines) + "\n")
    _write(os.path.join(opts["out"], "decay.json"), _json_out(camp.to_dict(), h, run_cfg))
    if args.emit_plot_data:
        pts = [
            f"{m} {math.log(w)!r}"
            for m, w in sorted(camp.stable_widths.items()) if w > 0
        ]
        _write(os.path.join(opts["out"], "decay_logwidth.dat"), _stamp(h) + "\n".join(pts) + "\n")
    if camp.fit is not None and camp.fit.floored:
        print("warning: some widths sit at the double-precision floor; "
              "the fit range is truncated", file=sys.stderr)
    gamma = None if camp.fit is None else round(camp.fit.gamma, 6)
    print(f"wrote decay.csv / decay.json (gamma={gamma})")
    return 0


def cmd_homogeneity(args):
    opts, freq, f, h, run_cfg = _common_setup(args)
    try:
        sigmas = [float(s) for s in args.sigmas.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--sigmas: {exc}") from exc
    if not all(0.0 < s < math.inf for s in sigmas):
        raise ConfigError(f"--sigmas must all be positive and finite, got {args.sigmas}")
    cfg = pipeline.PipelineConfig(q_target=opts["q"], theta_samples=opts["theta_samples"])
    camp = pipeline.homogeneity_campaign(opts["lam"], f, freq, sigmas, cfg)
    lines = ["sigma,min_ratio,argmin_E,gap_sum,gap_sum_over_sigma"]
    for s, r, e, gs, go in camp.rows:
        lines.append(f"{s!r},{r!r},{e!r},{gs!r},{go!r}")
    _write(os.path.join(opts["out"], "homogeneity.csv"), _stamp(h) + "\n".join(lines) + "\n")
    _write(os.path.join(opts["out"], "homogeneity.json"), _json_out(camp.to_dict(), h, run_cfg))
    if args.emit_plot_data:
        pts = [f"{s!r} {r!r}" for s, r, *_ in camp.rows]
        _write(os.path.join(opts["out"], "homogeneity_ratio.dat"), _stamp(h) + "\n".join(pts) + "\n")
    print(f"wrote homogeneity.csv / homogeneity.json ({len(camp.rows)} sigmas)")
    return 0


def cmd_reduce(args):
    opts, freq, f, h, run_cfg = _common_setup(args)
    cfg = pipeline.PipelineConfig(q_target=opts["q"], theta_samples=opts["theta_samples"],
                                  run_averaging=args.with_averaging)
    dossier = pipeline.analyze_gap(opts["lam"], f, freq, args.m, cfg)
    _write(os.path.join(opts["out"], f"dossier_m{args.m}.json"), _json_out(dossier.to_dict(), h, run_cfg))
    claims = pipeline.claims_report([dossier])
    _write(os.path.join(opts["out"], "claims.json"), _json_out(claims, h))
    print(f"wrote dossier_m{args.m}.json (width<=|eps|: {dossier.width_bounded}, "
          f"shift: {dossier.shift_differs}); claims {claims['passed']}/{claims['total']}")
    return 0


def cmd_dual(args):
    opts, freq, f, h, run_cfg = _common_setup(args)
    if args.energy is None or not math.isfinite(args.energy):
        raise ConfigError(f"dual needs a finite --energy, got {args.energy}")
    sol = pipeline.stage("bloch", duality.find_bloch, opts["lam"], f, freq, args.energy)
    pipeline.stage("resonance", duality.detect_resonance, sol, freq)
    _write(os.path.join(opts["out"], "bloch.json"), _json_out(sol.to_dict(), h, run_cfg))
    print(f"wrote bloch.json (E={sol.energy!r}, theta={sol.theta!r}, "
          f"n_tilde={sol.n_tilde})")
    return 0


def cmd_beta(args):
    opts = _read_options(args, [("alpha", str, "golden"), ("kmax", int, 10000),
                                ("out", str, "out")])
    if opts["kmax"] < 1:
        raise ConfigError(f"kmax must be positive, got {opts['kmax']}")
    freq = resolve_frequency(opts["alpha"])
    est = pipeline.stage("beta", estimate_beta, freq, opts["kmax"])
    h = cache.content_hash({"command": "beta", "alpha": opts["alpha"], "kmax": opts["kmax"]})
    payload = {
        "alpha": freq.value,
        "beta": est.beta,
        "k_lo": est.k_lo,
        "k_max": est.k_max,
        "monotone_growth": est.monotone_growth,
        "witnesses": [[int(k), float(r)] for k, r in est.witnesses],
        "record": freq.to_record(est.beta),
    }
    _write(os.path.join(opts["out"], "beta.json"), _json_out(payload, h))
    print(f"beta({opts['alpha']}) = {est.beta:.6g} over k in [{est.k_lo}, {est.k_max}]")
    return 0


def cmd_cache(args):
    cache_dir = args.cache_dir or "cache"
    if args.action == "stats":
        st = cache.cache_stats(cache_dir)
        print(f"{st['entries']} entries, {st['bytes']} bytes in {cache_dir}")
    elif args.action == "verify":
        n = cache.cache_verify(cache_dir)
        print(f"{n} entries verified in {cache_dir}")
    elif args.action == "clear":
        n = cache.cache_clear(cache_dir)
        print(f"removed {n} entries from {cache_dir}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="qpgaps",
                                description="spectral gaps of quasi-periodic operators")
    p.add_argument("--version", action="version", version=f"qpgaps {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--lam", "--lambda", dest="lam", type=float, default=None,
                        help="coupling constant")
        sp.add_argument("--freq", type=str, default=None,
                        help="golden | sqrt2m1 | liouville:beta=X:seed=S | number")
        sp.add_argument("--potential", type=str, default=None,
                        help="amo | cos | file:PATH")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--config", type=str, default=None, help="key = value file")

    for name, fn in (("spectrum", cmd_spectrum), ("gaps", cmd_gaps),
                     ("decay", cmd_decay), ("homogeneity", cmd_homogeneity),
                     ("reduce", cmd_reduce), ("dual", cmd_dual)):
        sp = sub.add_parser(name)
        add_common(sp)
        sp.set_defaults(fn=fn)
        if name != "dual":
            sp.add_argument("--q", type=int, default=None,
                            help="largest convergent denominator to use")
            sp.add_argument("--theta-samples", dest="theta_samples", type=int, default=None)
    for name in ("spectrum", "gaps"):
        sub.choices[name].add_argument("--cache-dir", dest="cache_dir", type=str,
                                       default=None)
    for name in ("spectrum", "decay", "homogeneity"):
        sub.choices[name].add_argument("--emit-plot-data", action="store_true")
    sub.choices["gaps"].add_argument("--precision", choices=("double", "extended"),
                                     default="double")
    sub.choices["decay"].add_argument("--jobs", type=int, default=None,
                                      help="worker count (output independent of it)")
    sub.choices["decay"].add_argument("--m-max", dest="m_max", type=int, default=8)
    sub.choices["homogeneity"].add_argument("--sigmas", type=str, default="1e-2,3e-3,1e-3",
                                            help="comma-separated window half-widths")
    sub.choices["reduce"].add_argument("--m", type=int, default=1, help="gap label")
    sub.choices["reduce"].add_argument("--with-averaging", dest="with_averaging",
                                       action="store_true",
                                       help="drive the double averaging step at eps_m")
    sub.choices["dual"].add_argument("--energy", type=float, default=None)

    sp = sub.add_parser("beta")
    sp.add_argument("--alpha", type=str, default=None)
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--config", type=str, default=None)
    sp.set_defaults(fn=cmd_beta)

    sp = sub.add_parser("cache")
    sp.add_argument("action", choices=("stats", "verify", "clear"))
    sp.add_argument("--cache-dir", dest="cache_dir", type=str, default=None)
    sp.set_defaults(fn=cmd_cache)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"numerical-stage error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 3
    except CacheCorruptionError as exc:
        print(f"cache corruption: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
