"""Self-test of the benchmark's tracing (about 70 s on 2 cores).

    python3 bench/selftest.py

1. Tracing is transparent: the dossier and labeling operation lists give
   identical checked outputs with and without the wrappers, and every CLI
   command exits and writes the same bytes through the traced launcher.
2. Every wrapper fires on the workload meant to call it, so a refactor that
   moves or renames a binding fails here instead of reporting zero calls.
3. The per-layer metric names the traced run prints are the ``per_layer``
   names of BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import sys

import run

os.environ.update(run.child_env())          # before numpy loads: one BLAS thread
sys.path.insert(0, os.environ["PYTHONPATH"])

import calibrate  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main():
    problems = []
    freq, f = workloads.workload_inputs()
    ops = {w: workloads.library_ops(w, freq, f) for w in ("dossier", "labeling")}
    plain = {w: worker.library_pass(ops[w])[1] for w in ops}
    tracer = tracing.Tracer().install()
    calls = {}
    for w in ops:
        tracer.spans = []
        traced = worker.library_pass(ops[w], tracer)[1]
        problems += [f"{w}.{op}: traced output differs" for op in plain[w]
                     if traced[op] != plain[w][op]]
        calls[w] = tracing.span_totals(tracer.spans)

    base = os.path.join(worker.OUT, "selftest-cli")
    shutil.rmtree(base, ignore_errors=True)
    try:
        plain_cli = worker.cli_pass(os.path.join(base, "plain"), traced=False)
        traced_cli = worker.cli_pass(os.path.join(base, "traced"), traced=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for name, res in plain_cli.items():
        other = traced_cli[name]
        if (res["rc"], res["files"]) != (other["rc"], other["files"]) or res["rc"] != 0:
            problems.append(f"cli.{name}: traced run exits {other['rc']} or writes other "
                            f"bytes than the plain run (exit {res['rc']})")
    spans, _ = tracing.merge([r["trace"] for r in traced_cli.values() if "trace" in r])
    calls["cli"] = tracing.span_totals(spans)

    for name, home, attr, _, workload in tracing.TARGETS:
        if calls[workload].get(name, {}).get("calls", 0) == 0:
            problems.append(f"{name} ({home}.{attr}) never fired on {workload}")

    one_pass = {"untraced": [({"op": 1.0}, {})], "traced": [({"op": 1.0}, {})]}
    sampler = calibrate.Sampler()
    sampler.samples = [calibrate.REF_S]
    fake_args = argparse.Namespace(workload="selftest", seed=0)
    printed = set(worker._layer_metrics(fake_args, one_pass, sampler, tracer, ()))
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    if printed != declared:
        problems.append(f"per-layer names: printed but not declared {sorted(printed - declared)}, "
                        f"declared but not printed {sorted(declared - printed)}")

    for p in problems:
        print(f"SELFTEST FAIL: {p}")
    print(f"selftest: {len(tracing.TARGETS)} wrappers, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
