"""Record every workload operation's checked outputs into bench/reference.json.

    python3 bench/record_reference.py

Runs each operation once, untimed, with the reference seed.  The committed
file was recorded from the commit that introduced the benchmark; re-record
only when an output is meant to change, and say why in the change.
"""

import json
import os
import shutil
import sys

import run

os.environ.update(run.child_env())          # before numpy loads: one BLAS thread
sys.path.insert(0, os.environ["PYTHONPATH"])

import worker  # noqa: E402
import workloads  # noqa: E402


def main():
    freq, f = workloads.workload_inputs()
    ref = {}
    for name in ("dossier", "labeling"):
        ops = (workloads.library_ops(name, freq, f)
               + workloads.seeded_ops(name, freq, f, workloads.REFERENCE_SEED))
        _, _, outputs = worker.library_pass(ops)
        bad = [op for op, out in outputs.items() if isinstance(out, Exception)]
        if bad:
            sys.exit(f"operations raised: {bad}")
        ref[name] = outputs
    pass_dir = os.path.join(worker.OUT, "reference-cli")
    shutil.rmtree(pass_dir, ignore_errors=True)
    try:
        results = worker.cli_pass(pass_dir, traced=False)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    bad = {name: r["stderr"] for name, r in results.items() if r["rc"] != 0}
    if bad:
        sys.exit(f"commands failed: {bad}")
    ref["cli"] = {name: {"rc": 0, "files": r["files"]} for name, r in results.items()}
    with open(os.path.join(worker.BENCH, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
