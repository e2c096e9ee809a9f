"""The benchmark's dossier and labeling operations reproduce
bench/reference.json, so a change that moves a checked dossier, gap label,
gap width or campaign output fails here as well as in the benchmark's own
output check."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from qpgaps import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.fixture(scope="module")
def reference():
    return json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("name, m, averaging", workloads.DOSSIERS,
                         ids=[name for name, _, _ in workloads.DOSSIERS])
def test_dossier_workload_matches_the_reference(name, m, averaging, reference):
    freq, f = workloads.workload_inputs()
    got = workloads._dossier_op(freq, f, m, averaging)()
    assert workloads.check_library(name, reference["dossier"][name], got) == []


def test_labeling_workload_matches_the_reference(reference):
    freq, f = workloads.workload_inputs()
    problems = [problem for name, op in workloads.library_ops("labeling", freq, f)
                for problem in workloads.check_library(name, reference["labeling"][name], op())]
    assert problems == []


@pytest.mark.parametrize("name", ["dual", "reduce"])
def test_cli_workload_outputs_match_the_reference(name, reference, tmp_path):
    """The cli workload's `dual` and `reduce` commands, run in process, write
    the files bench/reference.json holds, as its own check reads them."""
    argv = dict(workloads.CLI_COMMANDS)[name]
    got = {"rc": cli.main(argv + ["--out", str(tmp_path)]),
           "files": workloads.read_outputs(str(tmp_path))}
    assert workloads.check_cli(name, reference["cli"][name], got) == []


def test_trace_harness_installs():
    """Every traced name still resolves: Tracer.install fails loudly on a
    target that src/ no longer defines, which otherwise only a traced bench
    run shows.  Run in a fresh interpreter that writes no bytecode into bench/."""
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", "import tracing; tracing.Tracer().install()"],
                          cwd=BENCH, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
