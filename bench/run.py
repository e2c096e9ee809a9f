"""qpgaps benchmark: three workloads, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload dossier|labeling|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
``--trace 0`` prints ``wall_s`` (median seconds of one pass over the
workload's operation list, after set-up), ``setup_s`` (median seconds from a
fresh interpreter to inputs ready, over several launches) and ``peak_rss_mb``.
``wall_s`` and ``setup_s`` are seconds at the reference machine speed: a run's
seconds are scaled by the mean time of a fixed kernel timed between its
operations or launches (see ``calibrate.py``); the raw seconds are in the report.
Failed operations are counted in ``failed`` out of ``attempted`` (their ratio
is the fail ratio).  ``--trace 1`` prints the per-layer metrics of a separate
traced run.  The last stdout line is the JSON result; the full report goes
to ``.bench_out/``.  The exit code is 1 when any output check fails, 2 when
the benchmark cannot run.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREADS)          # before numpy loads: the speed samples use one thread

import calibrate  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("dossier", "labeling", "cli")
SETUP_LAUNCHES = 5
RUN_BUDGET_S = 170.0
THREADS_WHY = ("with the thread variables unset, a fresh process showed intermittent "
               "0.82-1.06 s stalls on its first eigvalsh at q >= 89 (0.05 s normally)")

# single cProfile / perf_counter runs on 2 unpinned cores, kept for comparison
ROADMAP_BASELINES_S = {
    ("dossier", "m7"): (9.7, "analyze_gap m=7"),
    ("dossier", "m3_avg"): (5.5, "qpgaps reduce --m 3 --with-averaging (CLI)"),
    ("cli", "reduce"): (2.0, "qpgaps reduce --m 1"),
    ("cli", "gaps_cold"): (0.9, "qpgaps gaps --q 233"),
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def launch(args, setup_only, deadline):
    """Start a worker; returns (seconds to its ready line, its final stdout line)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    # own process group, so a timeout also stops the CLI commands it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    killer = threading.Timer(max(deadline - t0, 1.0), kill_group)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read().strip().splitlines()
        rc = proc.wait()
    finally:
        killer.cancel()
        kill_group()
        proc.wait()
    if first.strip() != "ready" or rc != 0 or not (setup_only or rest):
        raise BenchError(f"worker exited with {rc} (timeout or crash) before finishing")
    return ready_s, (None if setup_only else rest[-1])


def summary(values):
    """Median plus the highest percentile with at least ten samples above it."""
    values = sorted(values)
    n = len(values)
    high = None
    for p in (99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            high = {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
            break
    return {"median": statistics.median(values), "n": n, "p_high": high, "values": values}


def machine_note(versions):
    def grep(path, key):
        try:
            with open(path) as fh:
                return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith(key)),
                            "unknown")
        except OSError:
            return "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": grep("/proc/cpuinfo", "model name"),
        "mem_total": grep("/proc/meminfo", "MemTotal"),
        "platform": platform.platform(),
        **versions,
        "thread_env": THREADS,
        "threads_why": THREADS_WHY,
        "pinning": "none: no process is pinned to CPUs",
    }


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "qpgaps", "__init__.py")):
        raise BenchError(f"no qpgaps sources under {os.path.join(ROOT, 'src')}")
    deadline = time.perf_counter() + RUN_BUDGET_S
    setup, raw_setup = [], []
    if not args.trace:
        # sampled between launches only: a sample beside a launch would slow it
        sampler = calibrate.Sampler()
        sampler.sample()
        for _ in range(SETUP_LAUNCHES):
            raw_setup.append(launch(args, True, min(time.perf_counter() + 60.0, deadline))[0])
            sampler.sample()
        setup = [sampler.to_reference(s) for s in raw_setup]
    ready_s, line = launch(args, False, deadline)
    res = json.loads(line)

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    ops = {name: summary(ts) for name, ts in res["op_s"].items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics,
        "attempted": res["attempted"], "failed": res["failed"],
        "fail_ratio": res["failed"] / res["attempted"],
        "problems": res["problems"],
        "seeded_outputs": res.get("seeded_outputs", {}),
        "wall_s": summary(res["wall_s"]), "setup_s": summary(setup) if setup else None,
        "raw_s": {"wall_s": summary(res["raw_wall_s"]),
                  "setup_s": summary(raw_setup) if raw_setup else None,
                  "measured_launch_ready_s": ready_s},
        "reference_speed": {"kernel_s": calibrate.REF_S,
                            "setup_samples_s": summary(sampler.samples) if setup else None,
                            "worker_samples_s": summary(res["speed_samples_s"])},
        "operations_s": ops,
        "roadmap_baselines_s": {
            op: {"roadmap": base, "what": what, "measured_median": ops[op]["median"]}
            for (w, op), (base, what) in ROADMAP_BASELINES_S.items() if w == args.workload
        },
        "machine": machine_note(res["versions"]),
    }
    if args.trace:
        report["traced_wall_s"] = res["traced_wall_s"]
        if args.workload == "cli":
            report["untraced"] = "worker processes of decay --jobs 2 (spans not collected)"
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:9s} {'fail_ratio':48s} {res['failed'] / res['attempted']:14.6g} ratio"
          f" ({res['failed']}/{res['attempted']} operations; report {path})")
    for msg in res["problems"]:
        print(f"FAILED CHECK: {msg}")
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=9,
                   help="feeds holder_check's energy-pair draw (9: criterion 9's draw)")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    try:
        return run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
