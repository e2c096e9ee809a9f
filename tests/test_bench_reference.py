"""The benchmark's dossier, labeling and cli operations reproduce
bench/reference.json, so a change that moves a checked dossier, gap label,
gap width, campaign output or CLI output file fails here as well as in the
benchmark's own output check."""

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


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """{name: exit code and files} of the cli workload's commands, run in
    process and in bench order in one working directory, so that the cache
    `gaps_cold` writes is the one `gaps_warm`, `spectrum_warm` and
    `cache_verify` read.  Each command but `cache` writes to out_<name>, as
    the bench worker runs them."""
    got = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("cli"))
        for name, argv in workloads.CLI_COMMANDS:
            out_dir = f"out_{name}"
            argv = argv if argv[0] == "cache" else argv + ["--out", out_dir]
            got[name] = {"rc": cli.main(argv), "files": workloads.read_outputs(out_dir)}
    return got


@pytest.mark.parametrize("name", [name for name, _ in workloads.CLI_COMMANDS])
def test_cli_workload_outputs_match_the_reference(name, reference, cli_outputs):
    """Each cli workload command writes the files bench/reference.json holds,
    as its own check reads them."""
    assert workloads.check_cli(name, reference["cli"][name], cli_outputs[name]) == []


def test_cli_workload_decay_does_not_depend_on_jobs(cli_outputs):
    decay = [cli_outputs[name]["files"]["decay.json"] for name in ("decay_jobs1", "decay_jobs2")]
    assert decay[0] == decay[1]


def test_trace_harness_installs():
    """Every traced name still resolves: Tracer.install fails loudly on a
    target that src/ no longer defines, which otherwise only a traced bench
    run shows.  Run in a fresh interpreter that writes no bytecode into bench/."""
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", "import tracing; tracing.Tracer().install()"],
                          cwd=BENCH, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
