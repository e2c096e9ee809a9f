import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qpgaps import cache, cli, reducibility
from qpgaps.cocycle import amo_potential
from qpgaps.duality import DUAL_START_N, BlochSolution
from qpgaps.errors import CacheCorruptionError, ConfigError
from qpgaps.fourier import FourierMap
from qpgaps.spectrum import BandStructure


def run(argv):
    return cli.main(argv)


def read(path):
    with open(path) as fh:
        return fh.read()


def test_beta_subcommand(tmp_path):
    out = tmp_path / "o"
    rc = run(["beta", "--alpha", "sqrt2m1", "--kmax", "10000", "--out", str(out)])
    assert rc == 0
    payload = json.loads(read(out / "beta.json"))
    assert payload["beta"] <= 0.01
    assert "config_hash" in payload and "tool_version" in payload


def test_beta_launch_does_not_load_scipy_linalg(tmp_path):
    """The eigen-solvers import scipy.linalg on first use, so a CLI launch
    that solves nothing does not pay for it."""
    script = ("import sys\nfrom qpgaps import cli\n"
              f"assert cli.main(['beta', '--alpha', 'sqrt2m1', '--out', {str(tmp_path)!r}]) == 0\n"
              "print('scipy.linalg' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_dual_writes_the_bloch_solution(tmp_path):
    out = tmp_path / "o"
    assert run(["dual", "--energy", "-0.5", "--out", str(out)]) == 0
    payload = json.loads(read(out / "bloch.json"))
    keys = BlochSolution(0.0, 0.0, np.ones(1), 0).to_dict().keys()
    assert keys <= payload.keys() and payload["trunc"] >= DUAL_START_N
    assert abs(payload["E"] + 0.5) < 1e-9
    assert 0.0 <= payload["theta"] < 1.0
    assert payload["n_tilde"] is None


def test_dual_in_a_gap_reports_its_resonance(tmp_path):
    """0.77 lies in the m = -1 gap at lam = 0.25: the dual phase is resonant."""
    out = tmp_path / "o"
    assert run(["dual", "--energy", "0.77", "--out", str(out)]) == 0
    assert abs(json.loads(read(out / "bloch.json"))["n_tilde"]) == 1


def test_spectrum_free_single_band(tmp_path):
    out = tmp_path / "o"
    rc = run(["spectrum", "--lam", "0", "--freq", "golden", "--q", "89",
              "--out", str(out)])
    assert rc == 0
    lines = read(out / "bands.csv").splitlines()
    assert lines[0].startswith("# qpgaps")
    rows = [l for l in lines if l and not l.startswith(("#", "band"))]
    assert len(rows) == 1
    _, lo, hi = rows[0].split(",")
    assert abs(float(lo) + 2.0) < 1e-9 and abs(float(hi) - 2.0) < 1e-9


def test_gaps_and_cache_roundtrip(tmp_path):
    out = tmp_path / "o"
    cdir = tmp_path / "cache"
    args = ["gaps", "--lam", "0.25", "--freq", "golden", "--q", "55",
            "--out", str(out), "--cache-dir", str(cdir)]
    assert run(args) == 0
    first = read(out / "gaps.csv")
    assert run(args) == 0                       # second run hits the cache
    assert read(out / "gaps.csv") == first
    assert run(["cache", "stats", "--cache-dir", str(cdir)]) == 0
    assert run(["cache", "verify", "--cache-dir", str(cdir)]) == 0


def test_cache_corruption_detected_and_recovered(tmp_path):
    out = tmp_path / "o"
    cdir = tmp_path / "cache"
    args = ["spectrum", "--lam", "0.25", "--freq", "golden", "--q", "34",
            "--out", str(out), "--cache-dir", str(cdir)]
    assert run(args) == 0
    entries = [n for n in os.listdir(cdir) if n.endswith(".json")]
    with open(cdir / entries[0], "w") as fh:
        fh.write("{ not json")
    assert run(["cache", "verify", "--cache-dir", str(cdir)]) == 4
    # advisory cache: damaged entry means recompute, not failure
    assert run(args) == 0


def test_cache_changed_digit_detected(tmp_path):
    cdir = tmp_path / "cache"
    assert run(["spectrum", "--lam", "0.25", "--freq", "golden", "--q", "34",
                "--out", str(tmp_path / "o"), "--cache-dir", str(cdir)]) == 0
    (name,) = [n for n in os.listdir(cdir) if n.endswith(".json")]
    key = name[:-5]
    assert cache.load_band_structure(cdir, key) is not None
    text = read(cdir / name)
    edge = repr(json.loads(text)["bands"][0][1])
    changed = edge[:-1] + ("1" if edge[-1] != "1" else "2")
    with open(cdir / name, "w") as fh:
        fh.write(text.replace(edge, changed, 1))
    assert json.loads(read(cdir / name))["bands"][0][1] == float(changed)
    assert cache.load_band_structure(cdir, key) is None
    with pytest.raises(CacheCorruptionError, match="checksum"):
        cache.cache_verify(cdir)
    assert run(["cache", "verify", "--cache-dir", str(cdir)]) == 4


def test_cache_writers_use_distinct_temp_files(tmp_path, monkeypatch):
    bs = BandStructure(approximant=(1, 1), lam=0.0, potential=amo_potential(),
                       bands=((-2.0, 2.0),), theta_grid=1)
    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    for _ in range(2):
        cache.store_band_structure(str(tmp_path), "k", bs)
    assert len(set(replaced)) == 2
    assert all(os.path.dirname(t) == str(tmp_path) for t in replaced)
    assert os.listdir(tmp_path) == ["k.json"]
    assert cache.load_band_structure(str(tmp_path), "k", strict=True).bands == bs.bands


def test_decay_deterministic_across_jobs(tmp_path):
    outs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"o{jobs}"
        rc = run(["decay", "--lam", "0.25", "--freq", "golden", "--q", "100",
                  "--m-max", "4", "--jobs", jobs, "--out", str(out),
                  "--emit-plot-data"])
        assert rc == 0
        outs[jobs] = {
            name: read(out / name)
            for name in ("decay.csv", "decay.json", "decay_logwidth.dat")
        }
    assert outs["1"] == outs["2"]


def test_homogeneity_outputs(tmp_path):
    out = tmp_path / "o"
    rc = run(["homogeneity", "--lam", "0", "--freq", "golden", "--q", "89",
              "--sigmas", "1e-2,1e-3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(read(out / "homogeneity.json"))
    for row in payload["rows"]:
        assert abs(row["min_ratio"] - 1.0) < 1e-6


@pytest.mark.parametrize("argv, table, columns, plot", [
    (["spectrum", "--q", "34"], "bands.csv", (1, 2), "bands.dat"),
    (["homogeneity", "--q", "34", "--sigmas", "1e-2,1e-3"], "homogeneity.csv", (0, 1),
     "homogeneity_ratio.dat")], ids=["spectrum", "homogeneity"])
def test_emit_plot_data_writes_two_table_columns(tmp_path, argv, table, columns, plot):
    out = tmp_path / "o"
    assert run(argv + ["--lam", "0.25", "--emit-plot-data", "--out", str(out)]) == 0
    stamp, *rows = read(out / plot).splitlines()
    lines = read(out / table).splitlines()
    csv_rows = [line for line in lines if not line.startswith("#")][1:]
    assert stamp == lines[0] and len(rows) == len(csv_rows) > 1
    assert rows == [" ".join(row.split(",")[c] for c in columns) for row in csv_rows]


def test_numerical_stage_error_exits_3(tmp_path, capsys):
    assert run(["reduce", "--m", "40", "--q", "34", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("numerical-stage error [label]")


def test_small_divisor_breach_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(reducibility, "DIVISOR_CUTOFF", 10.0)
    assert run(["reduce", "--m", "1", "--q", "34", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("numerical-stage error [reduce]: small-divisor")


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("lam = 0.25\nq = 55   # comment\nfreq = golden\n")
    out = tmp_path / "o"
    rc = run(["spectrum", "--config", str(cfgfile), "--lam", "0",
              "--out", str(out)])
    assert rc == 0
    rows = [l for l in read(out / "bands.csv").splitlines()
            if l and not l.startswith(("#", "band"))]
    assert len(rows) == 1                     # lam 0 overrode the file


@pytest.mark.parametrize("text", ["lam = 0.1\nlam = 0.2\n",
                                  "theta-samples = 4\ntheta_samples = 8\n"],
                         ids=["lam twice", "theta-samples spelled two ways"])
def test_config_file_repeated_key_is_rejected(tmp_path, capsys, text):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    rc = run(["spectrum", "--q", "21", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "repeated key" in err


def test_config_error_exit_code(tmp_path):
    rc = run(["spectrum", "--freq", "0.5", "--out", str(tmp_path / "o")])
    assert rc == 2
    rc = run(["spectrum", "--potential", "bogus", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_bad_config_file_exit_code(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("this is not a key value line\n")
    rc = run(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_liouville_alias(tmp_path):
    out = tmp_path / "o"
    rc = run(["beta", "--alpha", "liouville:beta=0.3:seed=7", "--kmax", "60",
              "--out", str(out)])
    assert rc == 0
    payload = json.loads(read(out / "beta.json"))
    assert abs(payload["beta"] - 0.3) < 0.03


def test_reduce_subcommand_writes_dossier_and_claims(tmp_path):
    out = tmp_path / "o"
    rc = run(["reduce", "--lam", "0.25", "--freq", "golden", "--q", "100",
              "--m", "1", "--out", str(out)])
    assert rc == 0
    dossier = json.loads(read(out / "dossier_m1.json"))
    assert dossier["width_bounded"] is True
    claims = json.loads(read(out / "claims.json"))
    assert claims["passed"] == claims["total"]


def test_reduce_with_averaging_records_an_inadmissible_step(tmp_path):
    out = tmp_path / "o"
    assert run(["reduce", "--m", "5", "--with-averaging", "--out", str(out)]) == 0
    dossier = json.loads(read(out / "dossier_m5.json"))
    assert dossier["rotation_form"] is None
    assert "averaging-inadmissible" in dossier["flags"]
    claims = json.loads(read(out / "claims.json"))
    assert claims["passed"] == claims["total"] == 4


def test_identical_config_hash_identical_bytes(tmp_path):
    texts = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        rc = run(["gaps", "--lam", "0.25", "--freq", "golden", "--q", "34",
                  "--out", str(out)])
        assert rc == 0
        texts.append(read(out / "gaps.csv") + read(out / "gaps.jsonl"))
    assert texts[0] == texts[1]


def test_gaps_extended_precision_flag(tmp_path):
    out = tmp_path / "o"
    rc = run(["gaps", "--lam", "0.25", "--freq", "golden", "--q", "21",
              "--precision", "extended", "--out", str(out)])
    assert rc == 0
    assert (out / "gaps.csv").exists()


@pytest.mark.parametrize("argv", [["spectrum", "--q", "0"], ["gaps", "--q", "0"],
                                  ["homogeneity", "--q", "0"], ["decay", "--q", "3"],
                                  ["reduce", "--q", "0"]],
                         ids=lambda argv: argv[0])
def test_too_small_q_is_a_config_error(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("argv", [["decay", "--m-max", "0"], ["decay", "--m-max", "-2"],
                                  ["homogeneity", "--sigmas", "0"],
                                  ["homogeneity", "--sigmas", "abc"],
                                  ["homogeneity", "--sigmas", "1e-2,inf"],
                                  ["dual", "--energy", "nan"],
                                  ["beta", "--kmax", "0"],
                                  ["spectrum", "--lam", "nan", "--q", "21"],
                                  ["spectrum", "--theta-samples", "0"],
                                  ["gaps", "--theta-samples", "-3"],
                                  ["decay", "--theta-samples", "0"],
                                  ["homogeneity", "--theta-samples", "-3"],
                                  ["decay", "--jobs", "0"],
                                  ["decay", "--jobs", "-1"],
                                  ["beta", "--alpha", "liouville:beta=0.2:levels=2"],
                                  ["beta", "--alpha", "liouville:beta=-1"],
                                  ["beta", "--alpha", "liouville:beta=nan"],
                                  ["beta", "--alpha", "liouville:beta=0.2:seed=3:sed=4"],
                                  ["beta", "--alpha", "liouville:beta=0.2:seed=3:seed=4"],
                                  ["spectrum", "--config", "{tmp}/missing.cfg"],
                                  ["spectrum", "--potential", "file:{tmp}"]],
                         ids=lambda argv: " ".join(argv))
def test_invalid_input_is_a_config_error(tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("argv", [["reduce", "--jobs", "2"], ["dual", "--cache-dir", "c"],
                                  ["decay", "--precision", "extended"],
                                  pytest.param(["dual", "--energy", "-0.5", "--q", "5"],
                                               id="dual --q"),
                                  pytest.param(["dual", "--energy", "-0.5",
                                                "--theta-samples", "7"],
                                               id="dual --theta-samples"),
                                  pytest.param(["dual", "--energy", "-0.5", "--trunc", "128"],
                                               id="dual --trunc")],
                         ids=lambda argv: argv[0])
def test_flag_on_a_subcommand_that_ignores_it_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err



@pytest.mark.parametrize("command, key", [("spectrum", "lamda"), ("reduce", "jobs"),
                                          ("dual", "q")])
def test_config_file_key_no_option_reads_is_rejected(tmp_path, capsys, command, key):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"lam = 0.25\n{key} = 5\n")
    rc = run([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"key(s) {key}" in err


def _potential_file(tmp_path, text):
    path = tmp_path / "potential.txt"
    path.write_text(text)
    return f"file:{path}"


@pytest.mark.parametrize("text", [FourierMap.from_coeff_dict({1: 1.0}).to_text(),
                                  FourierMap.from_coeff_dict({2: 1.0, -2: 1.0},
                                                             period=2).to_text(),
                                  FourierMap.identity().to_text(),
                                  "# period=3\n-1 0x1p+0 0x0p+0\n1 0x1p+0 0x0p+0\n",
                                  "1 zz\n"],
                         ids=["not real", "period 2", "not scalar", "period 3", "malformed"])
@pytest.mark.parametrize("argv", [["spectrum", "--q", "21"], ["gaps", "--q", "21"],
                                  ["dual", "--energy", "-0.5"]], ids=lambda argv: argv[0])
def test_potential_file_outside_the_contract_is_a_config_error(tmp_path, capsys, text,
                                                               argv):
    spec = _potential_file(tmp_path, text)
    assert run(argv + ["--potential", spec, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error")


def test_real_potential_file_is_accepted(tmp_path):
    sine = FourierMap.from_coeff_dict({1: -0.5j, -1: 0.5j})
    spec = _potential_file(tmp_path, sine.to_text())
    assert cli.resolve_potential(spec).coeff(1) == -0.5j
    rc = run(["spectrum", "--q", "21", "--potential", spec, "--out", str(tmp_path / "o")])
    assert rc == 0


def test_output_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    """`reduce --m 3 --with-averaging` and `gaps --q 233`, each run in a
    fresh interpreter under one and then two BLAS and OpenMP threads, write
    byte-identical files."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    commands = (["reduce", "--m", "3", "--with-averaging"], ["gaps", "--q", "233"])
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        root = tmp_path / threads
        for argv in commands:
            subprocess.run([sys.executable, "-m", "qpgaps.cli", *argv,
                            "--out", str(root / argv[0])],
                           env=env, capture_output=True, timeout=300, check=True)
        written.append({p.relative_to(root): p.read_bytes()
                        for p in sorted(root.rglob("*")) if p.is_file()})
    assert {p.parts[0] for p in written[0]} == {"reduce", "gaps"}
    assert written[0] == written[1]
