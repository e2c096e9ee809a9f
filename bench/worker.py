"""One workload process: set up, print ``ready``, run timed passes, print a JSON line.

Started by ``run.py`` with the checkout's ``src`` on PYTHONPATH and one BLAS
/ OpenMP thread.  Each pass runs the workload's fixed operation list one
operation after another (a closed loop with one client); passes repeat for about
``--seconds`` (see ``measure``).  With ``--trace 1`` the first pass runs
untraced, the layer wrappers are installed, and the remaining passes are
traced.  A ``calibrate.Sampler`` times a fixed kernel between operations, so
that the run's seconds can also be given at the reference machine speed.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COMMAND_TIMEOUT_S = 120


def load_reference():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- library workloads

def library_pass(ops, tracer=None, tag="", sampler=None):
    """Run every operation once; returns ({op: seconds}, {op: outputs})."""
    outputs, times = {}, {}
    for name, op in ops:
        if tracer is not None:
            tracer.op = f"{tag}{name}"
        t = time.perf_counter()
        try:
            outputs[name] = op()
        except Exception as exc:        # a raising operation is a failed operation
            outputs[name] = exc
        times[name] = time.perf_counter() - t
        if sampler is not None:
            sampler.after(times[name])
    return times, outputs


def check_library_pass(ref, outputs):
    """{op: [problems]} for one pass."""
    problems = {}
    for name, out in outputs.items():
        if isinstance(out, Exception):
            problems[name] = [f"{name}: raised {type(out).__name__}: {out}"]
        else:
            problems[name] = workloads.check_library(name, ref[name], out)
    return problems


def run_library(args, freq, f):
    ref = load_reference()[args.workload]
    ops = workloads.library_ops(args.workload, freq, f)
    state = {}
    sampler = calibrate.Sampler()
    sampler.sample()

    def one_pass(traced, index):
        if traced and "tracer" not in state:
            state["tracer"] = tracing.Tracer().install()
        times, outputs = library_pass(ops, state.get("tracer"), f"{index}:", sampler)
        return times, check_library_pass(ref, outputs)

    runs, rss_mb = measure(args, one_pass)
    result = _summarize(args, runs, rss_mb, sampler, state.get("tracer"))
    # after the measured passes: a long orbit in the seeded draw would move the
    # peak memory and the pass time with the seed
    _, outputs = library_pass(workloads.seeded_ops(args.workload, freq, f, args.seed))
    for msgs in check_library_pass(ref, outputs).values():
        result["attempted"] += 1
        result["failed"] += bool(msgs)
        result["problems"] += msgs
    result["seeded_outputs"] = {k: repr(v) if isinstance(v, Exception) else v
                                for k, v in outputs.items()}
    return result


def measure(args, one_pass):
    """Repeat passes until the next one would end further past --seconds than
    stopping now; with --trace 1 the first pass is untraced, the rest traced.
    Returns ({"untraced": [...], "traced": [...]}, peak RSS after the first pass):
    the allocator keeps growing over later passes (355 MB after one dossier
    pass, 383 MB after two), and the pass count depends on machine speed."""
    runs = {"untraced": [], "traced": []}
    rss_mb = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and bool(runs["untraced"])
        passes = len(runs["untraced"]) + len(runs["traced"])
        runs["traced" if traced else "untraced"].append(one_pass(traced, passes))
        rss_mb = rss_mb or peak_rss_mb(args.workload)
        if args.trace and not runs["traced"]:
            continue
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds - 0.5 * elapsed / (passes + 1):
            return runs, rss_mb


def peak_rss_mb(workload):
    """Peak RSS so far: of this process, or of the largest CLI command process."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------- cli workload

def cli_pass(pass_dir, traced, sampler=None):
    """Run the CLI command list in a fresh directory; returns per-command results."""
    os.makedirs(pass_dir)
    launcher = os.path.join(BENCH, "cli_launch.py")
    results = {}
    for name, argv in workloads.CLI_COMMANDS:
        out_dir = f"out_{name}"
        argv = argv if argv[0] == "cache" else argv + ["--out", out_dir]
        dump = os.path.join(pass_dir, f"trace_{name}.json")
        cmd = ([sys.executable, launcher, dump, *argv] if traced
               else [sys.executable, "-m", "qpgaps.cli", *argv])
        t = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=pass_dir, capture_output=True,
                                  text=True, timeout=COMMAND_TIMEOUT_S)
            rc, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            rc, stderr = "timeout", ""
        seconds = time.perf_counter() - t
        if sampler is not None:
            sampler.after(seconds)
        results[name] = {
            "s": seconds, "rc": rc, "stderr": stderr[-400:],
            "files": workloads.read_outputs(os.path.join(pass_dir, out_dir)),
        }
        if traced and os.path.exists(dump):
            with open(dump) as fh:
                results[name]["trace"] = json.load(fh)
    return results


def check_cli_pass(ref, results, first_decay):
    problems = {name: workloads.check_cli(name, ref[name], got)
                for name, got in results.items()}
    decay = [results[n]["files"].get("decay.json") for n in ("decay_jobs1", "decay_jobs2")]
    if decay[0] != decay[1]:
        problems["decay_jobs2"].append("decay.json differs between --jobs 1 and --jobs 2")
    if first_decay is not None and decay[0] != first_decay:
        problems["decay_jobs1"].append("decay.json differs from the run's first pass")
    return problems


def run_cli(args):
    ref = load_reference()["cli"]
    run_dir = os.path.join(OUT, f"cli-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    traces, first = [], {}
    sampler = calibrate.Sampler()
    sampler.sample()

    def one_pass(traced, index):
        results = cli_pass(os.path.join(run_dir, f"pass{index}"), traced, sampler)
        first.setdefault("decay", results["decay_jobs1"]["files"].get("decay.json"))
        traces.extend(r["trace"] for r in results.values() if "trace" in r)
        return ({n: r["s"] for n, r in results.items()},
                check_cli_pass(ref, results, first["decay"]))

    try:
        runs, rss_mb = measure(args, one_pass)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return _summarize(args, runs, rss_mb, sampler, None, traces)


# ---------------------------------------------------------------- results

def _summarize(args, runs, rss_mb, sampler, tracer, cli_traces=()):
    """A pass takes the sum of its operations' seconds (the kernel samples between
    them are left out); ``wall_s`` and ``op_s`` are at the reference speed."""
    timed = runs["untraced"]
    measured = runs["untraced"] + runs["traced"]
    ref_s = sampler.to_reference
    attempted = sum(len(p) for _, p in measured)
    failures = [msg for _, p in measured for msgs in p.values() for msg in msgs]
    failed = sum(1 for _, p in measured for msgs in p.values() if msgs)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": attempted,
        "failed": failed,
        "problems": failures[:20],
        "wall_s": [ref_s(sum(t.values())) for t, _ in timed],
        "raw_wall_s": [sum(t.values()) for t, _ in timed],
        "speed_samples_s": sampler.samples,
        "op_s": {name: [ref_s(t[name]) for t, _ in timed] for name in timed[0][0]},
        "peak_rss_mb": rss_mb,
        "versions": _versions(),
    }
    if args.trace:
        result["traced_wall_s"] = [ref_s(sum(t.values())) for t, _ in runs["traced"]]
        result["layers"] = _layer_metrics(args, runs, sampler, tracer, cli_traces)
    return result


def _layer_metrics(args, runs, sampler, tracer, cli_traces):
    """Per-layer metrics of the traced passes; the spans go to .bench_out/."""
    passes = len(runs["traced"])
    if tracer is not None:
        spans, counts = tracer.spans, tracer.counts
    else:
        spans, counts = tracing.merge(cli_traces)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans,
                   "counts": counts}, fh)
    metrics = tracing.layer_metrics(spans, counts, passes)
    imports = [tr["import_s"] for tr in cli_traces]
    metrics["cli.import.s"] = (statistics.median(imports) if imports else 0.0, "s")
    for name, _ in workloads.CLI_COMMANDS:
        per_pass = [t[name] for t, _ in runs["traced"]] if args.workload == "cli" else [0.0]
        metrics[f"cli.{name}.s"] = (statistics.median(per_pass), "s")
    walls = {k: [sum(t.values()) for t, _ in runs[k]] for k in runs}
    metrics["trace.overhead_s"] = (sampler.to_reference(
        statistics.median(walls["traced"]) - statistics.median(walls["untraced"])), "s")
    share = tracing.top_level_seconds(spans) / sum(walls["traced"])
    metrics["trace.top_level_share"] = (share, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _versions():
    import mpmath
    import numpy
    import scipy
    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "mpmath": mpmath.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        out["blas"] = "unknown"
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=("dossier", "labeling", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    if args.workload == "cli":
        import qpgaps.cli  # noqa: F401  set-up of a CLI launch is its import
    else:
        for layer in tracing.LAYERS:
            __import__(f"qpgaps.{layer}")
        freq, f = workloads.workload_inputs()
        workloads.warm_up(args.workload, freq, f)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = run_cli(args) if args.workload == "cli" else run_library(args, freq, f)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
