"""Experiment runner: configs, manifests, reproducibility, file formats."""

import dataclasses
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kmflow import cli
from kmflow import io as kio
from kmflow import meanfield as mf
from kmflow.cli import ExperimentConfig, _perturbed_family, main, render, run
from kmflow.measures import VonMises, initial_family, wrap_angle
from oracles import peak_traced

ER_HALF = {"kind": "constant", "p": 0.5}
SMALL_WORLD = {"kind": "small_world", "p": 0.1, "h": 0.25}


def _read(path: Path) -> str:
    return Path(path).read_text()


def test_unknown_config_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "simulate", "bogus": 1})


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig.from_dict({"experiment": "frobnicate"}).validate()


def test_capacity_limit_enforced():
    with pytest.raises(ValueError, match="capacity"):
        ExperimentConfig.from_dict({
            "experiment": "meanfield_particles", "graphon": ER_HALF,
            "n": 2048, "m": 1024,
        }).validate()


def test_simulate_writes_trajectory(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "simulate", "graphon": ER_HALF, "n": 4,
        "T": 0.2, "dt": 0.05, "seeds": [1], "output_dir": str(tmp_path),
    })
    assert run(cfg) == 0
    lines = _read(tmp_path / "results.csv").splitlines()
    assert lines[0] == "t,u_1,u_2,u_3,u_4,r,psi"
    assert len(lines) == 6  # header + 5 recorded states
    manifest = json.loads(_read(tmp_path / "manifest.json"))
    assert manifest["experiment"] == "simulate"


def test_byte_identical_reruns(tmp_path):
    raw = {
        "experiment": "simulate", "graphon": ER_HALF, "n": 6,
        "T": 0.3, "dt": 0.05, "seeds": [9], "sampled": True,
    }
    outputs = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig.from_dict(dict(raw, output_dir=str(tmp_path / sub)))
        run(cfg)
        outputs.append((tmp_path / sub / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_manifest_round_trip(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "meanfield_particles", "graphon": ER_HALF, "n": 2,
        "m": 8, "T": 0.2, "dt": 0.05,
        "rho0": {"kind": "von_mises", "kappa": 1.0, "mu0": 1.0},
        "output_dir": str(tmp_path / "first"),
    })
    run(cfg)
    manifest = json.loads(_read(tmp_path / "first" / "manifest.json"))
    manifest["output_dir"] = str(tmp_path / "second")
    run(ExperimentConfig.from_dict(manifest))
    assert (tmp_path / "first" / "results.csv").read_bytes() == \
        (tmp_path / "second" / "results.csv").read_bytes()


def test_cli_main_inline_flags(tmp_path):
    code = main([
        "sample_graph", "--graphon", json.dumps(ER_HALF), "--n", "8",
        "--seeds", "3", "--render-pgm", "--output-dir", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "graph.pgm").exists()
    header = (tmp_path / "graph.pgm").read_bytes()[:9]
    assert header == b"P5\n8 8\n25"


def test_cli_subcommand_config_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "simulate"}))
    code = main(["sample_graph", "--config", str(cfg_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_render_identity_matrix(tmp_path):
    matrix = tmp_path / "matrix.csv"
    kio.write_matrix_csv(matrix, np.eye(2))
    out = tmp_path / "picture.pgm"
    render(matrix, out)
    data = out.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    # diagonal black (0), off-diagonal white (255)
    assert list(data[-4:]) == [0, 255, 255, 0]


def test_render_empty_file_fails(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["render", str(empty), str(tmp_path / "out.pgm")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_render_malformed_csv_fails(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("n=2\n1,0\n0\n")
    with pytest.raises(ValueError):
        render(bad, tmp_path / "out.pgm")


@pytest.mark.parametrize("text, message", [
    ("n=2\n1,0\n0,abc\n", "line 3 needs 2 numeric entries (got '0,abc')"),
    ("n=x\n1\n", "line 1 is not an 'n=<n>' header with n >= 1 (got 'n=x')"),
    ("1,0\n0,1\n", "line 1 is not an 'n=<n>' header with n >= 1 (got '1,0')"),
    ("", "line 1 is not an 'n=<n>' header with n >= 1 (got '')"),
    ("n=2\n1,0\n0\n", "line 3 needs 2 numeric entries (got '0')"),
    ("n=2\n1,0\n", "declares n=2 but holds 1 rows"),
    ("n=2\n1,0.5\n0,1\n", "weights must be symmetric"),
    ("n=2\n1,0\n0,1\n0,1\n", "declares n=2 but holds 3 rows"),
    ("n=8193\n", "dense storage supports up to 8192 nodes, got 8193"),
], ids=["bad-entry", "bad-header", "no-header", "empty", "short-row", "short", "asymmetric",
        "long", "over-capacity"])
def test_render_errors_name_file_and_line(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["render", str(bad), str(tmp_path / "out.pgm")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "out.pgm").exists()


def test_matrix_csv_read_holds_one_matrix(tmp_path):
    n = 1024
    matrix = np.random.default_rng(0).uniform(-1.0, 1.0, (n, n))
    kio.write_matrix_csv(tmp_path / "m.csv", matrix)
    read, peak = peak_traced(lambda: kio.read_matrix_csv(tmp_path / "m.csv"))
    assert np.array_equal(read, matrix)
    assert peak < 1.25 * n * n * 8


def test_sampled_er_pixel_density(tmp_path):
    code = main([
        "sample_graph", "--graphon", json.dumps(ER_HALF), "--n", "128",
        "--seeds", "5", "--render-pgm", "--output-dir", str(tmp_path),
    ])
    assert code == 0
    data = (tmp_path / "graph.pgm").read_bytes()
    pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8)
    black = np.mean(pixels == 0)
    assert abs(black - 0.5) < 0.05


def test_sample_graph_without_picture_removes_an_earlier_one(tmp_path):
    argv = ["sample_graph", "--graphon", json.dumps(ER_HALF), "--n", "8",
            "--output-dir", str(tmp_path)]
    assert main([*argv, "--seeds", "7", "--render-pgm"]) == 0
    assert (tmp_path / "graph.pgm").exists()
    assert main([*argv, "--seeds", "8"]) == 0
    assert not (tmp_path / "graph.pgm").exists()
    assert json.loads(_read(tmp_path / "manifest.json"))["render_pgm"] is False


# sha256 of results.csv and graph.pgm from sample_graph at n = 512, seed 7,
# recorded when every sampled graph held float64 weights
SPLIT_SAMPLE_SHA256 = {
    "small_world": ("2d18886fdb209cfa6e4161f58c517d298a5695ca80aab561001008b08bf44aa8",
                    "3d8316b5125a8515c1caa3ed5c824ed196fd7e74dc7f4eb2b803d8feba3ba81b"),
    "nearest_neighbor": ("c28947bc3f6933fc6e849958680b72a56a2d8cbaf9d07cf69d8eca41642e8a96",
                         "4944ad5688955f6d8909301e2794ed6486eda9b43400a1bd3c189d659b1ffee9"),
}


@pytest.mark.parametrize("graphon", [{"kind": "small_world", "p": 0.1, "h": 0.25},
                                     {"kind": "nearest_neighbor", "h": 0.2}])
def test_split_sample_graph_files_are_pinned(tmp_path, graphon):
    # at n = 512 both graphs split, so their weights are bool
    assert main(["sample_graph", "--graphon", json.dumps(graphon), "--n", "512",
                 "--seeds", "7", "--render-pgm", "--output-dir", str(tmp_path)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("results.csv", "graph.pgm"))
    assert digests == SPLIT_SAMPLE_SHA256[graphon["kind"]]


def test_distance_identical_files(tmp_path, capsys):
    cfg = ExperimentConfig.from_dict({
        "experiment": "meanfield_particles", "graphon": ER_HALF, "n": 2,
        "m": 4, "T": 0.1, "dt": 0.05, "output_dir": str(tmp_path),
    })
    run(cfg)
    fam_csv = tmp_path / "results.csv"
    code = main(["distance", str(fam_csv), str(fam_csv),
                 "--output-dir", str(tmp_path / "dist")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"
    lines = _read(tmp_path / "dist" / "results.csv").splitlines()
    assert lines == ["dbar", "0"]


def test_convergence_main_emits_rows(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "convergence_main", "graphon": ER_HALF,
        "n": [2], "m": [4, 8], "T": 0.3, "dt": 0.05,
        "rho0": {"kind": "von_mises", "kappa": 2.0, "mu0": 3.0},
        "output_dir": str(tmp_path),
    })
    run(cfg)
    lines = _read(tmp_path / "results.csv").splitlines()
    assert lines[0] == "n,m,sup_dbar"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(2, 4), (2, 8)]
    sups = [float(r[2]) for r in rows]
    assert sups[0] >= sups[1]


def test_convergence_main_reference_validation(tmp_path):
    with pytest.raises(ValueError, match="reference"):
        run(ExperimentConfig.from_dict({
            "experiment": "convergence_main", "graphon": ER_HALF,
            "n": [4], "m": [4], "ref_n": 4, "ref_m": 16,
            "output_dir": str(tmp_path),
        }))


def test_convergence_ave_emits_rows(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "convergence_ave", "graphon": ER_HALF,
        "n": [8, 16], "seeds": [0, 1], "T": 0.3, "dt": 0.05,
        "output_dir": str(tmp_path),
    })
    run(cfg)
    lines = _read(tmp_path / "results.csv").splitlines()
    assert lines[0] == "n,seed,sup_norm_1n"
    assert len(lines) == 5


@pytest.mark.parametrize("K, warns", [(4, True), (20, False)])
def test_convergence_ave_warns_once_when_a_gap_exceeds_pi(tmp_path, capsys, K, warns):
    # n = 2, seed 0: the frequencies differ by 3.87, so at K = 4 the sampled
    # pair (weight 1) locks while the deterministic one (weight 1/2) drifts
    # apart; at K = 20 both lock and the gap stays below pi
    code = main(["convergence_ave", "--graphon", json.dumps(ER_HALF), "--n", "2",
                 "--seeds", "0,0", "--omega",
                 '{"kind": "normal", "mean": 0, "sd": 2, "seed": 0}', "--K", str(K),
                 "--T", "5", "--dt", "0.05", "--output-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: a pairwise phase difference exceeded pi; the unwrapped comparison "
        "is chart-dependent\n" if warns else "")


def test_stability_initial_cli(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "stability_initial", "graphon": ER_HALF,
        "n": 2, "m": 8, "T": 0.5, "dt": 0.05, "perturbation": 0.1,
        "seeds": [0, 1], "output_dir": str(tmp_path),
        "rho0": {"kind": "von_mises", "kappa": 1.0, "mu0": 2.0},
    })
    run(cfg)
    lines = _read(tmp_path / "results.csv").splitlines()
    assert lines[0] == "trial,measured,bound,status"
    assert all(line.endswith("pass") for line in lines[1:])


def test_stability_kernel_cli(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "stability_kernel", "graphon": ER_HALF,
        "graphon_b": {"kind": "constant", "p": 0.6},
        "n": 2, "m": 8, "T": 0.5, "dt": 0.05, "output_dir": str(tmp_path),
        "rho0": {"kind": "von_mises", "kappa": 1.0, "mu0": 2.0},
    })
    run(cfg)
    lines = _read(tmp_path / "results.csv").splitlines()
    assert lines[1].endswith("pass")


def test_picard_cli_writes_report(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "picard", "graphon": ER_HALF, "n": 2, "m": 8,
        "T": 0.5, "dt": 0.05,
        "rho0": {"kind": "two_cluster", "theta1": 0.3, "theta2": 2.0, "w": 0.5},
        "output_dir": str(tmp_path),
    })
    run(cfg)
    report = json.loads(_read(tmp_path / "iteration_report.json"))
    assert report["converged"]
    assert len(report["d_alpha"]) == report["iterations"]


def test_fourier_picard_replays_and_matches_its_custom_run(tmp_path):
    # the two-harmonic D as JSON: its manifest replays byte for byte, and the
    # run matches the library run of the same D as a callable
    coupling = {"kind": "fourier", "cos": [0.0, 0.0, 0.0], "sin": [0.5, 0.25]}
    raw = {"experiment": "picard", "graphon": SMALL_WORLD, "n": 4, "m": 8, "T": 0.5,
           "dt": 0.05, "rho0": {"kind": "von_mises", "kappa": 2.0, "mu0": 1.0},
           "coupling": coupling, "output_dir": str(tmp_path / "first")}
    run(ExperimentConfig.from_dict(raw))
    manifest = json.loads(_read(tmp_path / "first" / "manifest.json"))
    assert manifest["coupling"] == coupling
    manifest["output_dir"] = str(tmp_path / "second")
    run(ExperimentConfig.from_dict(manifest))
    for name in ("results.csv", "iteration_report.json"):
        assert (tmp_path / "first" / name).read_bytes() == \
            (tmp_path / "second" / name).read_bytes()
    custom = cli.CouplingFunction.custom(lambda u: 0.5 * np.sin(u) + 0.25 * np.sin(2.0 * u))
    spec = mf.VelocityFieldSpec(cli.Graphon.from_dict(SMALL_WORLD).cell_average(4), custom)
    traj, _ = mf.picard_solve(spec, initial_family(VonMises(2.0, 1.0), 4, 8), 0.5, 0.05)
    rows = np.loadtxt(tmp_path / "first" / "results.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(rows[:, 1] - traj.final_family.positions.ravel())) <= 1e-12


@pytest.mark.parametrize("coupling, message", [
    ({"kind": "fourier", "cos": [0.0]}, "lacks the field 'sin'"),
    ({"kind": "fourier", "cos": [0.0], "sin": [], "alpha": 1},
     "coupling kind 'fourier' takes no field 'alpha'"),
    ({"kind": "fourier", "cos": 0.5, "sin": []},
     "coupling field 'cos' must be a list of numbers (got 0.5)"),
    ({"kind": "fourier", "cos": [0.0, "0.5"], "sin": [0.0]},
     "coupling field 'cos' entry must be a finite number (got '0.5')"),
    ({"kind": "fourier", "cos": [0.0, 0.0], "sin": [1.5]},
     "coupling fields 'cos' and 'sin' must satisfy |D| <= 1"),
], ids=["missing", "unknown", "not-a-list", "not-a-number", "amplitude"])
def test_bad_fourier_fields_rejected_by_name(tmp_path, capsys, coupling, message):
    code = main(["picard", "--graphon", json.dumps(ER_HALF), "--n", "2", "--T", "0.1",
                 "--coupling", json.dumps(coupling), "--output-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0] and "'coupling' spec" in err[0]
    assert list(tmp_path.iterdir()) == []


def test_meanfield_fv_cli(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "meanfield_fv", "graphon": ER_HALF, "n": 2, "g": 32,
        "T": 0.2, "dt": 0.05, "output_dir": str(tmp_path),
        "rho0": {"kind": "von_mises", "kappa": 1.0, "mu0": 1.0},
    })
    run(cfg)
    lines = _read(tmp_path / "results.csv").splitlines()
    assert lines[0] == "cell,u_index,value"
    assert len(lines) == 1 + 2 * 32


def test_console_entry_point(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "kmflow.cli", "sample_graph",
         "--graphon", json.dumps(ER_HALF), "--n", "4", "--seeds", "1",
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "results.csv").exists()


def test_nonfinite_von_mises_rejected_by_cli(tmp_path, capsys):
    for literal, got in (("NaN", "nan"), ("Infinity", "inf")):
        code = main(["meanfield_particles", "--graphon", json.dumps(ER_HALF),
                     "--n", "2", "--m", "4", "--T", "0.1", "--dt", "0.05",
                     "--rho0", '{"kind": "von_mises", "kappa": %s}' % literal,
                     "--output-dir", str(tmp_path)])
        assert code == 1
        assert (f"error: concentration kappa must be a finite number in [0, 1e+06] "
                f"(got {got})") in capsys.readouterr().err


def test_failed_run_leaves_no_manifest(tmp_path, capsys):
    out = tmp_path / "d"
    code = main(["meanfield_particles", "--graphon", '{"kind": "constant", "p": 0.5}',
                 "--n", "2", "--m", "4",
                 "--rho0", '{"kind": "von_mises", "kappa": NaN}',
                 "--output-dir", str(out)])
    assert code == 1
    assert ("error: concentration kappa must be a finite number in [0, 1e+06] (got nan)"
            in capsys.readouterr().err)
    assert not (out / "manifest.json").exists()


_RERUN_ARGV = ["meanfield_particles", "--graphon", json.dumps(ER_HALF), "--n", "2",
               "--m", "4", "--T", "0.1", "--dt", "0.05"]


_FAMILY_CSV = "cell,position,mass\n0,1.5,0.5\n0,2.5,0.5\n"
NEGATIVE = {"kind": "constant", "p": -0.5}
_NEGATIVE_MESSAGE = "sampling requires probability range: cell averages must be >= 0"
STEP_3 = {"kind": "step", "values": [[0.5, 0.2, 0.1], [0.2, 0.5, 0.2], [0.1, 0.2, 0.5]]}
_ER = ["--graphon", json.dumps(ER_HALF)]
_SHORT = ["--T", "0.1", "--dt", "0.05"]
_SIMULATE = ["simulate", *_ER, "--n", "2", *_SHORT]


# Each bad config must be rejected by validate, before the output directory is
# touched, with one error line naming its key, flag or file.
@pytest.mark.parametrize("argv, config, message", [
    pytest.param(_RERUN_ARGV + ["--rho0", '{"kind": "von_mises", "kappa": NaN}'], None,
                 "concentration kappa must be a finite number in [0, 1e+06] (got nan)",
                 id="rho0-nan-kappa"),
    pytest.param(["simulate", *_ER, "--n", "3,4", *_SHORT], None,
                 "simulate takes a single 'n' (got [3, 4])", id="simulate-n-list"),
    pytest.param(["simulate", *_ER, *_SHORT], None,
                 "experiment 'simulate' needs the 'n' key", id="simulate-no-n"),
    pytest.param(_RERUN_ARGV, {"init_mode": "iid"}, "init_mode 'iid' needs an 'init_seed'",
                 id="iid-without-seed"),
    pytest.param(["picard", *_ER, "--n", "2", "--m", "4", *_SHORT, "--init-seed", "3"], None,
                 "'init_seed' needs init_mode 'iid' (got init_seed 3 with init_mode "
                 "'quantile')", id="quantile-with-seed"),
    pytest.param(["simulate", "--graphon", json.dumps(ER_HALF), "--n", "4", "--seeds",
                  "3,4,5", "--T", "0.01"], None,
                 "simulate takes a single 'seeds' entry (got [3, 4, 5])",
                 id="simulate-seed-list"),
    pytest.param(["sample_graph", *_ER, "--n", "2", "--seeds", "1,2"], None,
                 "sample_graph takes a single 'seeds' entry (got [1, 2])",
                 id="sample-graph-seed-list"),
    pytest.param(["stability_initial", *_ER, "--n", "2", "--m", "4", *_SHORT, "--seeds", "1",
                  "--perturbation-seed", "9"], None,
                 "'perturbation_seed' is not used with 'seeds' (got perturbation_seed 9 "
                 "with seeds [1])", id="stability-initial-both-seeds"),
    pytest.param(_RERUN_ARGV, {"init_mode": 5}, "'init_mode' must be 'quantile' or 'iid' "
                 "(got 5)", id="init-mode-number"),
    pytest.param(["convergence_main", *_ER, "--n", "2", "--m", "4", *_SHORT], {"ref_n": 3},
                 "the reference must satisfy ref_n >= 2*max(n) = 4", id="ref-n-low"),
    pytest.param(["convergence_main", *_ER, "--n", "1024", "--m", "256", *_SHORT], None,
                 "capacity exceeded: ref_n = 2048 (at most 8192), ref_n*ref_m = 2097152 "
                 "(at most 1048576)",
                 id="reference-over-capacity"),
    pytest.param(["distance", "{tmp}/family.csv"], None,
                 "'inputs' must name two family CSV files", id="distance-one-file"),
    pytest.param(_SIMULATE, {"sampled": "no"},
                 "'sampled' must be true or false (got 'no')", id="sampled-string"),
    pytest.param(["sample_graph", *_ER, "--n", "2"], {"render_pgm": "false"},
                 "'render_pgm' must be true or false (got 'false')", id="render-pgm-string"),
    pytest.param(_SIMULATE + ["--omega", '{"kind": "normal", "mean": 0, "sd": 1, '
                              '"seed": 1.5}'], None,
                 "omega field 'seed' must be an integer in [0, 2**64) (got 1.5)",
                 id="omega-float-seed"),
    pytest.param(_SIMULATE + ["--omega", '{"kind": "constant", "value": NaN}'], None,
                 "omega field 'value' must be a finite number (got nan)",
                 id="omega-nan-value"),
    pytest.param(_RERUN_ARGV + ["--graphon", '{"kind": "constant", "p": null}'], None,
                 "constant kernel value p must be a finite number in [-1, 1] (got None)",
                 id="graphon-p-null"),
    pytest.param(_RERUN_ARGV + ["--graphon", '{"kind": "small_world", "p": "0.1", '
                                '"h": 0.2}'], None,
                 "small-world parameter p must be a finite number in (0, 0.5) (got '0.1')",
                 id="graphon-p-string"),
    pytest.param(_RERUN_ARGV + ["--graphon", '{"kind": "constant", "p": true}'], None,
                 "constant kernel value p must be a finite number in [-1, 1] (got True)",
                 id="graphon-p-bool"),
    pytest.param(_RERUN_ARGV + ["--config", "{tmp}/list.json"], None,
                 "config file {tmp}/list.json must hold a JSON object (got list)",
                 id="config-not-object"),
    pytest.param(_RERUN_ARGV + ["--graphon", "{bad"], None, "--graphon is not JSON: ",
                 id="graphon-flag-not-json"),
    pytest.param(["distance", "{tmp}/family.csv", "{tmp}/short.csv"], None,
                 "{tmp}/short.csv: line 3 is not a 'cell,position,mass' row (got '0,2.5')",
                 id="distance-short-row"),
    pytest.param(["distance", "{tmp}/family.csv", "{tmp}/nan.csv"], None,
                 "{tmp}/nan.csv: line 2 holds a non-finite position (got '0,nan,1')",
                 id="distance-nan-position"),
    *(pytest.param(["distance", "{tmp}/family.csv", "{tmp}/" + name], None,
                   "{tmp}/" + name + ": line 2 needs an integer cell and numeric "
                   f"position and mass (got '{row}')", id="distance-" + name[:-4])
      for name, row in [("bad-position.csv", "0,abc,1"), ("bad-cell.csv", "x,1.0,1"),
                        ("bad-mass.csv", "0,1.0,y")]),
    pytest.param(["sample_graph", "--graphon", json.dumps(NEGATIVE), "--n", "4"], None,
                 _NEGATIVE_MESSAGE, id="sample-graph-negative-kernel"),
    pytest.param(["simulate", "--graphon", json.dumps(NEGATIVE), "--n", "4", "--sampled",
                  *_SHORT], None, _NEGATIVE_MESSAGE, id="simulate-sampled-negative-kernel"),
    pytest.param(["convergence_ave", "--graphon", json.dumps(NEGATIVE), "--n", "2,4",
                  *_SHORT], None, _NEGATIVE_MESSAGE, id="convergence-ave-negative-kernel"),
    pytest.param(["stability_kernel", *_ER, "--graphon-b", json.dumps(ER_HALF),
                  "--n", "2", "--m", "4", *_SHORT], {"kernel_resolution": 10000},
                 "dense storage supports up to 8192 nodes, got 10000",
                 id="stability-kernel-resolution"),
    # 8191 is rounded up to a multiple of the step kernel's 3 cells
    pytest.param(["stability_kernel", *_ER, "--graphon-b", json.dumps(STEP_3),
                  "--n", "2", "--m", "4", *_SHORT], {"kernel_resolution": 8191},
                 "dense storage supports up to 8192 nodes, got 8193",
                 id="stability-kernel-rounded-resolution"),
    *(pytest.param(_RERUN_ARGV + ["--coupling", f'{{"kind": "sine_shift", "alpha": {alpha}}}'],
                   None, f"coupling field 'alpha' must be a finite number (got {got})",
                   id=f"sine-shift-alpha-{name}")
      for name, alpha, got in [("nan", "NaN", "nan"), ("inf", "Infinity", "inf"),
                               ("bool", "true", "True"), ("string", '"0.3"', "'0.3'")]),
    pytest.param(_RERUN_ARGV + ["--rho0", '{"kind": "von_mises", "kappa": true}'], None,
                 "concentration kappa must be a finite number in [0, 1e+06] (got True)",
                 id="rho0-bool-kappa"),
    pytest.param(_RERUN_ARGV + ["--rho0", '{"kind": "von_mises", "kappa": 1, '
                                '"mu0": "3.14"}'], None,
                 "von Mises mode mu0 must be a finite number (got '3.14')",
                 id="rho0-string-mu0"),
    pytest.param(_RERUN_ARGV + ["--rho0", '{"kind": "two_cluster", "theta1": NaN, '
                                '"theta2": 1, "w": 0.5}'], None,
                 "cluster position theta1 must be a finite number (got nan)",
                 id="rho0-nan-theta1"),
    # g = 8 keeps dt = 0.05 within the CFL bound, which is checked first
    pytest.param(["meanfield_fv", *_ER, "--n", "2", "--g", "8", *_SHORT, "--rho0",
                  '{"kind": "two_cluster", "theta1": 0.5, "theta2": 2.5, "w": 0.3}'], None,
                 "two-cluster distribution has no density in the 'rho0' spec",
                 id="meanfield-fv-two-cluster"),
    pytest.param(_RERUN_ARGV + ["--coupling", '{"kind": "sine", "alpha": 0.5}'], None,
                 "coupling kind 'sine' takes no field 'alpha' in the 'coupling' spec",
                 id="coupling-extra-field"),
    pytest.param(_RERUN_ARGV + ["--graphon", '{"kind": "constant", "p": 0.5, "typo": 3}'],
                 None, "graphon kind 'constant' takes no field 'typo' in the 'graphon' spec",
                 id="graphon-extra-field"),
    pytest.param(_SIMULATE + ["--omega", '{"kind": "zero", "sd": 1}'], None,
                 "omega kind 'zero' takes no field 'sd' in the 'omega' spec",
                 id="omega-extra-field"),
    # 0.9 * du = 0.9 * 2*pi/1024; found before the (4, 1024) start field is built
    pytest.param(["meanfield_fv", *_ER, "--n", "4", "--g", "1024", "--dt", "0.01"], None,
                 "CFL violation: dt = 0.01 exceeds 0.9 * du = 0.00552233",
                 id="meanfield-fv-cfl"),
])
def test_rejected_rerun_keeps_earlier_outputs(tmp_path, capsys, argv, config, message):
    out = tmp_path / "d"
    assert main(_RERUN_ARGV + ["--output-dir", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["drift.csv", "manifest.json", "results.csv"]
    (tmp_path / "family.csv").write_text(_FAMILY_CSV)
    (tmp_path / "short.csv").write_text(_FAMILY_CSV.replace("0,2.5,0.5", "0,2.5"))
    (tmp_path / "nan.csv").write_text("cell,position,mass\n0,nan,1\n")
    for name, row in [("bad-position.csv", "0,abc,1"), ("bad-cell.csv", "x,1.0,1"),
                      ("bad-mass.csv", "0,1.0,y")]:
        (tmp_path / name).write_text(f"cell,position,mass\n{row}\n")
    (tmp_path / "list.json").write_text("[1, 2]")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    assert main(argv + ["--output-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: " + message.replace("{tmp}", str(tmp_path)))
    # rejected in validate: the earlier run and its manifest are untouched
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_rerun_removes_earlier_manifest(tmp_path, capsys, monkeypatch):
    out = tmp_path / "d"
    argv = _RERUN_ARGV + ["--output-dir", str(out)]
    assert main(argv) == 0
    assert (out / "manifest.json").exists()

    def failing_runner(cfg, **inputs):
        raise RuntimeError("solver failed")

    entry = cli.EXPERIMENTS["meanfield_particles"]
    monkeypatch.setitem(cli.EXPERIMENTS, "meanfield_particles",
                        entry._replace(run=failing_runner))
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: solver failed\n"
    # no manifest vouches for the earlier outputs, the optional drift.csv is
    # gone with it, and no temporary file is left
    assert sorted(p.name for p in out.iterdir()) == ["results.csv"]


_PICARD_ARGV = ["picard", *_ER, "--n", "2", "--m", "4", *_SHORT]


@pytest.mark.parametrize("first, second, stale", [
    (_PICARD_ARGV, _RERUN_ARGV, "iteration_report.json"),
    (_RERUN_ARGV, _PICARD_ARGV, "drift.csv"),
], ids=["picard-then-particles", "particles-then-picard"])
def test_a_run_removes_another_experiments_outputs(tmp_path, first, second, stale):
    assert main(first + ["--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / stale).exists()
    assert main(second + ["--output-dir", str(tmp_path)]) == 0
    assert not (tmp_path / stale).exists()
    assert json.loads(_read(tmp_path / "manifest.json"))["experiment"] == second[0]


@pytest.mark.parametrize("experiment, flags, message", [
    ("meanfield_particles", ["--coupling", '{"kind": "sine_shift"}'],
     "error: the 'coupling' spec {'kind': 'sine_shift'} lacks the field 'alpha'"),
    ("picard", ["--coupling", "[1]"], "error: the 'coupling' spec must be a JSON object"),
    ("meanfield_fv", ["--rho0", '{"kind": "von_mises"}'],
     "error: the 'rho0' spec {'kind': 'von_mises'} lacks the field 'kappa'"),
    ("convergence_main", ["--rho0", '{"kind": "cauchy"}'],
     "error: unknown density kind: 'cauchy' in the 'rho0' spec"),
    ("simulate", ["--omega", '{"kind": "normal", "mean": 0, "sd": 1}'],
     "error: the 'omega' spec {'kind': 'normal', 'mean': 0, 'sd': 1} lacks the field 'seed'"),
    ("convergence_ave", ["--graphon", '{"kind": "constant", "p": 2}'],
     "in the 'graphon' spec {'kind': 'constant', 'p': 2}"),
    ("stability_kernel", ["--graphon-b", '{"kind": "small_world", "p": 0.1}'],
     "error: the 'graphon_b' spec {'kind': 'small_world', 'p': 0.1} lacks the field 'h'"),
    ("stability_kernel", [], "error: experiment 'stability_kernel' needs the 'graphon_b' key"),
    ("simulate", ["--omega", '{"kind": "normal", "mean": 0, "sd": -1, "seed": 0}'],
     "error: omega field 'sd' must be a finite number >= 0 (got -1) in the 'omega' spec"),
    ("convergence_ave", ["--omega", '{"kind": "normal", "mean": "0", "sd": 1, "seed": 0}'],
     "error: omega field 'mean' must be a finite number (got '0') in the 'omega' spec"),
    ("simulate", ["--omega", '{"kind": "constant", "value": Infinity}'],
     "error: omega field 'value' must be a finite number (got inf) in the 'omega' spec"),
    ("simulate", ["--omega", '{"kind": "normal", "mean": 0, "sd": 1, "seed": -1}'],
     "error: omega field 'seed' must be an integer in [0, 2**64) (got -1)"),
    ("meanfield_fv", ["--graphon", '{"kind": "nearest_neighbor", "h": NaN}'],
     "error: band half-width h must be a finite number in (0, 0.5) (got nan)"),
    ("stability_kernel", ["--graphon-b", '{"kind": "small_world", "p": 0.1, "h": false}'],
     "error: small-world band half-width h must be a finite number in (0, 0.5) "
     "(got False)"),
    ("simulate", ["--coupling", '{"kind": "sine_shift", "alpha": NaN}'],
     "error: coupling field 'alpha' must be a finite number (got nan) in the 'coupling' spec"),
    ("picard", ["--coupling", '{"kind": "sine_shift", "alpha": -Infinity}'],
     "error: coupling field 'alpha' must be a finite number (got -inf)"),
    ("convergence_main", ["--coupling", '{"kind": "sine_shift", "alpha": true}'],
     "error: coupling field 'alpha' must be a finite number (got True)"),
    ("stability_initial", ["--coupling", '{"kind": "sine_shift", "alpha": "0.3"}'],
     "error: coupling field 'alpha' must be a finite number (got '0.3')"),
    ("simulate", ["--coupling", '{"kind": "sine", "alpha": 0.5}'],
     "error: coupling kind 'sine' takes no field 'alpha' in the 'coupling' spec"),
    ("meanfield_fv", ["--graphon", '{"kind": "small_world", "p": 0.1, "h": 0.2, "typo": 3}'],
     "error: graphon kind 'small_world' takes no field 'typo' in the 'graphon' spec"),
    ("stability_kernel", ["--graphon-b", '{"kind": "constant", "p": 0.5, "q": 1}'],
     "error: graphon kind 'constant' takes no field 'q' in the 'graphon_b' spec"),
    ("convergence_ave", ["--omega", '{"kind": "zero", "sd": 1}'],
     "error: omega kind 'zero' takes no field 'sd' in the 'omega' spec"),
    ("simulate", ["--omega", '{"sd": 1}'],
     "error: omega kind 'zero' takes no field 'sd' in the 'omega' spec"),
    ("picard", ["--rho0", '{"kind": "uniform", "kappa": 1}'],
     "error: density kind 'uniform' takes no field 'kappa' in the 'rho0' spec"),
    ("meanfield_particles", ["--rho0", '{"kind": "von_mises", "kappa": true, "mu0": 1}'],
     "error: concentration kappa must be a finite number in [0, 1e+06] (got True) "
     "in the 'rho0' spec"),
    ("convergence_main", ["--rho0", '{"kind": "von_mises_twist", "kappa": "2"}'],
     "error: concentration kappa must be a finite number in [0, 1e+06] (got '2')"),
    ("stability_initial", ["--rho0", '{"kind": "two_cluster", "theta1": 1, '
                           '"theta2": "2", "w": 0.5}'],
     "error: cluster position theta2 must be a finite number (got '2')"),
    # an explicit id keeps this case's name when its message is reworded
    pytest.param("picard", ["--rho0", '{"kind": "two_cluster", "theta1": 1, "theta2": 2, '
                            '"w": true}'],
                 "error: cluster weight w must be a finite number in (0, 1) (got True)",
                 id="picard-flags27-error: cluster weight w must be a real number in (0, 1) "
                    "(got True)"),
    ("meanfield_fv", ["--rho0", '{"kind": "two_cluster", "theta1": 1, "theta2": 2, '
                      '"w": 0.5}'],
     "error: two-cluster distribution has no density in the 'rho0' spec"),
])
def test_bad_specs_rejected_with_key(tmp_path, capsys, experiment, flags, message):
    code = main([experiment, "--graphon", json.dumps(ER_HALF), "--n", "2", "--T", "0.1",
                 *flags, "--output-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert list(tmp_path.iterdir()) == []


def test_picard_over_capacity_rejected_before_the_run(tmp_path, capsys):
    # 101 frames x 2^19 atoms x 8 B = 404 MiB per stored Picard trajectory
    code = main(["picard", "--graphon", json.dumps(ER_HALF), "--n", "64", "--m", "8192",
                 "--output-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: capacity exceeded: 101 frames x 524288 atoms x 8 B = 404.0 MiB")
    assert list(tmp_path.iterdir()) == []


def test_meanfield_fv_over_capacity_rejected_before_the_start_field(tmp_path, capsys):
    # n*g = 2^20 + 2 phase cells; the (n, g) start field is never built
    code, peak = peak_traced(lambda: main([
        "meanfield_fv", "--graphon", json.dumps(ER_HALF), "--n", "2", "--g", "524289",
        "--T", "0", "--output-dir", str(tmp_path)]))
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: capacity exceeded: n*g = 2*524289 = 1048578 phase cells "
        "(at most 1048576)")
    assert peak < 2**20
    assert list(tmp_path.iterdir()) == []


def test_stability_initial_averages_the_kernel_once_per_trial(tmp_path, monkeypatch):
    averaged = []
    cell_average = cli.Graphon.cell_average

    def counting(self, n):
        averaged.append(n)
        return cell_average(self, n)

    monkeypatch.setattr(cli.Graphon, "cell_average", counting)
    assert main(["stability_initial", "--graphon", json.dumps(ER_HALF), "--n", "2",
                 "--m", "4", "--T", "0.1", "--dt", "0.05", "--seeds", "0,1,2",
                 "--output-dir", str(tmp_path)]) == 0
    assert averaged == [2, 2, 2]


def test_convergence_ave_samples_from_the_deterministic_graph(tmp_path, monkeypatch):
    # per n, validate checks the probabilities and the runner builds the
    # deterministic graph that every seed samples from
    averaged = []
    cell_average = cli.Graphon.cell_average

    def counting(self, n):
        averaged.append(n)
        return cell_average(self, n)

    monkeypatch.setattr(cli.Graphon, "cell_average", counting)
    assert main(["convergence_ave", "--graphon", json.dumps(ER_HALF), "--n", "16,32",
                 "--T", "0.1", "--dt", "0.05", "--seeds", "0,1,2",
                 "--output-dir", str(tmp_path)]) == 0
    assert averaged == [16, 32]


@pytest.mark.parametrize("kernel, sampled", [(NEGATIVE, []), (ER_HALF, ["--sampled"])])
def test_simulate_integrates_on_the_average_validate_builds(tmp_path, monkeypatch,
                                                             kernel, sampled):
    # one average per run; without --sampled a negative kernel still runs
    averaged = []
    cell_average = cli.Graphon.cell_average

    def counting(self, n):
        averaged.append(n)
        return cell_average(self, n)

    monkeypatch.setattr(cli.Graphon, "cell_average", counting)
    assert main(["simulate", "--graphon", json.dumps(kernel), "--n", "4", *sampled,
                 "--T", "0.1", "--dt", "0.05", "--output-dir", str(tmp_path)]) == 0
    assert averaged == [4]


@pytest.mark.parametrize("flag, value", [
    ("--n", ","), ("--n", "3,x"), ("--m", ",,"), ("--seeds", "1,two"),
])
def test_list_flags_without_numbers_rejected(tmp_path, capsys, flag, value):
    code = main(["simulate", "--graphon", json.dumps(ER_HALF), "--n", "3", "--T", "0.1",
                 flag, value, "--output-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {flag} takes an integer or a comma list of integers (got {value!r})\n")
    assert list(tmp_path.iterdir()) == []


VON_MISES = {"kind": "von_mises", "kappa": 2.0, "mu0": 1.0}
# Per config key: an experiment that reads it, a flag text (None for a flag
# that takes none) and the config value that text stands for, not the default.
_FLAG_CASES = {
    "graphon": ("picard", json.dumps(SMALL_WORLD), SMALL_WORLD),
    "graphon_b": ("stability_kernel", json.dumps(SMALL_WORLD), SMALL_WORLD),
    "coupling": ("picard", '{"kind": "sine_shift", "alpha": 0.3}',
                 {"kind": "sine_shift", "alpha": 0.3}),
    "rho0": ("picard", json.dumps(VON_MISES), VON_MISES),
    "omega": ("simulate", '{"kind": "constant", "value": 0.5}',
              {"kind": "constant", "value": 0.5}),
    "n": ("convergence_main", "2,4", [2, 4]),
    "m": ("meanfield_particles", "8", 8),
    "ref_n": ("convergence_main", "8", 8),
    "ref_m": ("convergence_main", "32", 32),
    "T": ("picard", "0.2", 0.2),
    "dt": ("picard", "0.025", 0.025),
    "K": ("simulate", "2.5", 2.5),
    "g": ("meanfield_fv", "16", 16),
    "alpha": ("picard", "2.5", 2.5),
    "tol": ("picard", "1e-3", 0.001),
    "max_iter": ("picard", "3", 3),
    "record_every": ("simulate", "2", 2),
    "seeds": ("simulate", "3", [3]),
    "sampled": ("simulate", None, True),
    "init_mode": ("picard", "iid", "iid"),
    "init_seed": ("picard", "3", 3),
    "perturbation": ("stability_initial", "0.05", 0.05),
    "perturbation_seed": ("stability_initial", "4", 4),
    "kernel_resolution": ("stability_kernel", "64", 64),
    "render_pgm": ("sample_graph", None, True),
    "output_dir": ("picard", "named", "named"),
}
# the settings every case starts from, each where its experiment reads it and
# it is not the case's key (an iid start needs a seed, and a seed an iid start)
_FLAG_BASE = {"graphon": ER_HALF, "graphon_b": ER_HALF, "n": 2, "m": 4, "T": 0.1,
              "dt": 0.05, "init_mode": "iid", "init_seed": 1}


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)
                                 if f.name not in ("experiment", "inputs")])
def test_every_config_key_is_a_flag(tmp_path, monkeypatch, key):
    experiment, text, value = _FLAG_CASES[key]
    if key == "output_dir":  # its case names a directory under tmp_path
        text = value = str(tmp_path / text)
    assert value != getattr(ExperimentConfig(experiment), key)
    entry = cli.EXPERIMENTS[experiment]
    monkeypatch.setitem(cli.EXPERIMENTS, experiment,
                        entry._replace(run=lambda cfg, **inputs: None))
    base = {k: v for k, v in _FLAG_BASE.items() if k in entry.reads and k != key}
    manifests = []
    for form, flags, config in [
        ("flag", ["--" + key.replace("_", "-"), *([] if text is None else [text])], base),
        ("config", [], {**base, key: value}),
    ]:
        out = Path(value) if key == "output_dir" else tmp_path / form
        if key != "output_dir":
            flags = [*flags, "--output-dir", str(out)]
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main([experiment, "--config", str(tmp_path / "config.json"), *flags]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
        assert manifests[-1].pop("output_dir") == str(out)
    assert manifests[0] == manifests[1]
    if key != "output_dir":
        assert manifests[0][key] == value


@pytest.mark.parametrize("flag, text, what", [
    ("--T", "x", "a number"), ("--dt", "", "a number"), ("--K", "1,5", "a number"),
    ("--g", "2.5", "an integer"), ("--max-iter", "ten", "an integer"),
    ("--init-seed", "1e3", "an integer"), ("--kernel-resolution", "0x10", "an integer"),
])
def test_bad_flag_text_is_an_error_naming_the_flag(tmp_path, capsys, flag, text, what):
    code = main(["picard", "--graphon", json.dumps(ER_HALF), "--n", "2", "--m", "4",
                 flag, text, "--output-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {flag} takes {what} (got {text!r})\n"
    assert list(tmp_path.iterdir()) == []


def test_every_config_key_is_checked_or_built():
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment"}
    assert keys - cli._CHECKS.keys() - cli._SPEC_KEYS.keys() == set()


def test_help_says_what_each_flag_takes(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["stability_kernel", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in ("experiment", "inputs"):
            continue
        assert f" --{f.name.replace('_', '-')} " in text
        if f.name in cli._CHECKS and f.type != "bool":
            assert cli._CHECKS[f.name][1] in text, f.name


def test_distance_reads_each_file_once(tmp_path, monkeypatch):
    reads = []
    read = cli._read_family_csv
    monkeypatch.setattr(cli, "_read_family_csv", lambda path: reads.append(path) or read(path))
    (tmp_path / "f.csv").write_text(_FAMILY_CSV)
    f = str(tmp_path / "f.csv")
    assert main(["distance", f, f, "--output-dir", str(tmp_path / "out")]) == 0
    assert reads == [f, f]


def test_simulate_failing_mid_stream_leaves_no_results(tmp_path, monkeypatch):
    real, calls = cli.order_parameter, []
    out = tmp_path / "out"

    def failing_order_parameter(u):
        # the third frame fails while the file is being written
        calls.append((out / ".results.csv.tmp").exists())
        if len(calls) == 3:
            raise RuntimeError("frame failed")
        return real(u)

    monkeypatch.setattr(cli, "order_parameter", failing_order_parameter)
    assert main(["simulate", "--graphon", json.dumps(ER_HALF), "--n", "4", "--T", "0.2",
                 "--dt", "0.05", "--output-dir", str(out)]) == 1
    assert calls == [True, True, True]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("record_every", ["1", "200"])
def test_simulate_memory_independent_of_recorded_frames(tmp_path, record_every):
    # 201 frames of 1024 phases: holding every row before writing takes ~20 MiB
    code, peak = peak_traced(lambda: main([
        "simulate", "--graphon", json.dumps(ER_HALF), "--n", "1024", "--T", "1",
        "--dt", "0.005", "--record-every", record_every, "--output-dir", str(tmp_path)]))
    assert code == 0
    assert peak < 2 * 2**20


def test_failed_write_keeps_old_file_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "results.csv"
    kio.write_csv(path, ["x"], [[1.0]])

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(kio.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        kio.write_csv(path, ["x"], [[2.0]])
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]
    assert _read(path) == "x\n1\n"


_BASE_FLAGS = {
    "meanfield_fv": ["--n", "2", "--g", "8", "--T", "0.1", "--dt", "0.05"],
    "picard": ["--n", "2", "--m", "4", "--T", "0.1", "--dt", "0.05"],
    "stability_initial": ["--n", "2", "--m", "4", "--T", "0.1", "--dt", "0.05"],
    "convergence_main": ["--n", "2", "--m", "4", "--T", "0.1", "--dt", "0.05"],
}


@pytest.mark.parametrize("experiment, flags, message", [
    ("meanfield_fv", ["--n", "0"], "'n' must be a positive integer or a list of them"),
    ("convergence_main", ["--m", "4,0"], "'m' must be a positive integer or a list"),
    ("meanfield_fv", ["--T", "nan"], "'T' must be a finite number >= 0 (got nan)"),
    ("meanfield_fv", ["--T", "-1"], "'T' must be a finite number >= 0"),
    ("meanfield_fv", ["--dt", "inf"], "'dt' must be a finite number > 0"),
    ("meanfield_fv", ["--dt", "0"], "'dt' must be a finite number > 0"),
    ("stability_initial", ["--perturbation", "-1"],
     "'perturbation' must be a finite number >= 0"),
    ("stability_initial", ["--perturbation", "nan"],
     "'perturbation' must be a finite number >= 0"),
    ("picard", ["--max-iter", "0"], "'max_iter' must be a positive integer"),
    ("picard", ["--alpha", "2"], "'alpha' must be a finite number > 2"),
    ("picard", ["--tol", "nan"], "'tol' must be a finite number > 0"),
    ("meanfield_fv", ["--T", "1e9", "--dt", "0.01"], "steps exceeds the limit of"),
])
def test_bad_numbers_rejected_with_key(tmp_path, capsys, experiment, flags, message):
    code = main([experiment, "--graphon", json.dumps(ER_HALF), *_BASE_FLAGS[experiment],
                 *flags, "--output-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("n", 2.5), ("n", [4, 0]), ("m", True), ("ref_n", 0), ("ref_m", -4),
    ("record_every", 0), ("kernel_resolution", 0), ("K", float("inf")),
    ("seeds", [-1]), ("init_seed", 2**64), ("perturbation_seed", "0"), ("output_dir", 5),
])
def test_bad_numeric_keys_named(key, value):
    raw = {"experiment": "convergence_main", "graphon": ER_HALF, "n": [2], "m": [4]}
    with pytest.raises(ValueError, match=f"^{key!r} must be "):
        ExperimentConfig.from_dict({**raw, key: value}).validate()


NORMAL_OMEGA = json.dumps({"kind": "normal", "mean": 0.0, "sd": 1.0, "seed": 0})


@pytest.mark.parametrize("experiment, key, flags", [
    ("meanfield_particles", "K", ["--K", "5"]),
    ("meanfield_particles", "omega", ["--omega", NORMAL_OMEGA]),
    ("meanfield_fv", "K", ["--K", "0.5"]),
    ("picard", "omega", ["--omega", '{"kind": "constant", "value": 1.0}']),
    ("convergence_main", "K", ["--K", "2"]),
    ("stability_initial", "omega", ["--omega", NORMAL_OMEGA]),
    ("stability_kernel", "K", ["--K", "3"]),
    ("meanfield_particles", "sampled", ["--sampled"]),
    ("meanfield_particles", "seeds", ["--seeds", "9"]),
    ("meanfield_particles", "g", ["--g", "7"]),
    ("meanfield_particles", "alpha", ["--alpha", "9"]),
])
def test_unread_settings_rejected(tmp_path, capsys, experiment, key, flags):
    code = main([experiment, "--graphon", json.dumps(ER_HALF), "--n", "2", "--m", "4",
                 "--T", "0.1", "--dt", "0.05", *flags, "--output-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {experiment} does not use {key!r}")
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("key, value", [("init_mode", "iid"), ("init_seed", 3)])
def test_convergence_main_rejects_init_settings(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "convergence_main", key: value}))
    code = main(["convergence_main", "--config", str(config), "--graphon",
                 json.dumps(ER_HALF), "--n", "2", "--m", "4", "--output-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: convergence_main does not use {key!r}")


@pytest.mark.parametrize("flags, message", [
    (["--g", "0"], "error: 'g' must be a positive integer (got 0)"),
    (["--g", "-3"], "error: 'g' must be a positive integer (got -3)"),
    (["--record-every", "3"], "error: meanfield_fv does not use 'record_every'"),
])
def test_meanfield_fv_rejects_bad_settings(tmp_path, capsys, flags, message):
    code = main(["meanfield_fv", "--graphon", json.dumps(ER_HALF), "--n", "2",
                 "--T", "0.1", "--dt", "0.01", *flags, "--output-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("g", [2.5, "8", True])
def test_phase_grid_size_must_be_an_integer(g):
    with pytest.raises(ValueError, match="'g' must be a positive integer"):
        ExperimentConfig.from_dict({"experiment": "meanfield_fv", "g": g}).validate()


@pytest.mark.parametrize("record_every", ["1", "10"])
def test_meanfield_particles_memory_independent_of_recorded_frames(tmp_path, record_every):
    # n*m = 2^14; the 101 frames of the run alone would take 12.6 MiB
    code, peak = peak_traced(lambda: main([
        "meanfield_particles", "--graphon", json.dumps(SMALL_WORLD), "--n", "16",
        "--m", "1024", "--T", "1", "--dt", "0.01", "--record-every", record_every,
        "--output-dir", str(tmp_path)]))
    assert code == 0
    assert peak < 6 * 2**20


def test_meanfield_fv_cli_keeps_only_endpoints(tmp_path, monkeypatch):
    kept = []
    solve = mf.solve_fv

    def recording_solve(*args, **kwargs):
        kept.append(solve(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(mf, "solve_fv", recording_solve)
    assert main(["meanfield_fv", "--graphon", json.dumps(ER_HALF), "--n", "2",
                 "--g", "16", "--T", "0.3", "--dt", "0.05",
                 "--output-dir", str(tmp_path)]) == 0
    assert [float(t) for t in kept[0].times] == [0.0, 0.3]


def test_meanfield_fv_streams_its_rows(tmp_path):
    # n*g = 2^18 phase cells: the field is 2 MiB, a list of its rows about 28 MiB
    code, peak = peak_traced(lambda: main([
        "meanfield_fv", "--graphon", json.dumps(SMALL_WORLD), "--n", "64", "--g", "4096",
        "--T", "0.002", "--dt", "0.001", "--output-dir", str(tmp_path)]))
    assert code == 0
    assert peak < 24 * 2**20
    with open(tmp_path / "results.csv") as rows:
        assert sum(1 for _ in rows) == 1 + 2**18


def _readme_examples() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("kmflow ")]


# sha256 of every output the README examples write, manifests aside.  They
# were recorded before the graph and mean-field coupling sums became one
# routine, which changed no output byte; a change that moves one must say so.
# drift.csv was re-pinned when equal-mass W1 became an integer count, which
# moved 21 of its 101 rows by at most 5.6e-17 (3.3e-16 relative).  ave/,
# mfp/drift.csv and mfp/results.csv were re-pinned when small Toeplitz graphs
# became dense and the mean field took its two moments through one (2, n)
# product: at most 2.8e-17 (ave, 5 of 15 rows; drift, 23 of 101 rows) and
# 4.4e-16 (results, 32 of 2048 rows).  stab/ was re-pinned when two band
# kernels were compared over their diagonals: its kernel L1 became exactly
# float(0.6) - float(0.5), moving the bound 2 ulps, 0.73890560989306509 ->
# 0.73890560989306486.
README_OUTPUT_SHA256 = {
    "out/ave/results.csv": "7f5f297b8e1582a0b367abed5349b1ebad2d229be6415e8468e617c40e43f8a2",
    "out/conv/results.csv": "1f0108e0980e1dd5833f764b2515da0e30cf039fcb95146fd862f6efbdec079e",
    "out/dist/results.csv": "e64bcf0ee63aa381586382827b75c6dbfc0c7f0317e40c7f463db945e9520ef8",
    "out/mfp/drift.csv": "64ae315b2e65b6f6e4b2404e967fe03f84c33ec46336f2d0fe797aba0c06fe9e",
    "out/mfp/results.csv": "24de030722b7ea23e81d50d4539108461019d12bf05daf6b489eb61b0fb51f53",
    "out/sim/results.csv": "e204b1169330596e7b542acfbab514adaedbfff043d1f6a452ad6c76dab336b7",
    "out/stab/results.csv": "52f129e4b527f065d9af34cbe74fa391a789d038bdb935f2d5a8553e6db70408",
    "out/sw/graph.pgm": "7bdd64a82e80b8ad10bc992fdce771e91178fbd4657ab23542da78e96e58268d",
    "out/sw/picture.pgm": "7bdd64a82e80b8ad10bc992fdce771e91178fbd4657ab23542da78e96e58268d",
    "out/sw/results.csv": "ba4750346b1368a049f26d8e2fe8afba1639fa0a7481a3a8987e4b7635f585fe",
}


def _numeric_drift(path: Path, reference: Path) -> str:
    """Largest difference between the numbers of two CSV files of one shape."""
    try:
        new, old = (np.array([line.split(",") for line in p.read_text().splitlines()[1:]],
                             dtype=float) for p in (path, reference))
    except (UnicodeDecodeError, ValueError):
        return "not an all-numeric CSV"
    if new.shape != old.shape:
        return f"shape {new.shape}, baseline {old.shape}"
    gap = np.abs(new - old)
    relative = gap / np.maximum(np.abs(old), np.finfo(float).tiny)
    return (f"largest drift {gap.max(initial=0.0):.3g} (relative "
            f"{relative.max(initial=0.0):.3g}) in {np.count_nonzero(gap.any(axis=-1))} "
            f"of {len(gap)} rows")


def _readme_mismatch(written: dict) -> str:
    """Each README output whose hash is not the pinned one.  When
    KMFLOW_README_BASELINE names a directory in which another tree ran the
    README examples, each such file also gets its largest numeric drift from
    the file of that run."""
    baseline = os.environ.get("KMFLOW_README_BASELINE")
    lines = [f"written in {Path.cwd()}"]
    for name in sorted(written.keys() | README_OUTPUT_SHA256.keys()):
        if written.get(name) == README_OUTPUT_SHA256.get(name):
            continue
        line = f"{name}: sha256 {written.get(name)}, pinned {README_OUTPUT_SHA256.get(name)}"
        if baseline and name in written and (Path(baseline) / name).is_file():
            line += "; " + _numeric_drift(Path(name), Path(baseline) / name)
        lines.append(line)
    return "\n".join(lines)


def test_readme_examples_replay_byte_for_byte(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert len(examples) == 8
    for argv in examples:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    written = {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in Path("out").rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    assert written == README_OUTPUT_SHA256, _readme_mismatch(written)
    manifests = sorted(Path("out").glob("*/manifest.json"))
    assert len(manifests) == 7
    for manifest in manifests:
        first = manifest.parent
        again = tmp_path / "replay" / first.name
        experiment = json.loads(manifest.read_text())["experiment"]
        assert main([experiment, "--config", str(manifest),
                     "--output-dir", str(again)]) == 0
        replayed = json.loads((again / "manifest.json").read_text())
        assert replayed == {**json.loads(manifest.read_text()),
                            "output_dir": str(again)}
        outputs = [p.name for p in again.iterdir() if p.name != "manifest.json"]
        assert "results.csv" in outputs
        for name in outputs:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_default_settings_still_accepted(tmp_path):
    # a manifest spells out every default, including the keys an experiment ignores
    cfg = ExperimentConfig.from_dict({
        "experiment": "picard", "graphon": ER_HALF, "n": 2, "m": 4, "T": 0.1,
        "dt": 0.05, "K": 1, "omega": {"kind": "zero"}, "init_mode": "quantile",
        "output_dir": str(tmp_path)})
    assert run(cfg) == 0
    replay = json.loads(_read(tmp_path / "manifest.json"))
    assert ExperimentConfig.from_dict(replay).K == 1


def test_perturbed_family_matches_per_cell_draws():
    # one (cells, atoms) draw gives the numbers of consecutive per-cell draws
    fam = initial_family(VonMises(1.0, 2.0), 3, 5)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    expected = [fam.positions[i] + rng.uniform(-0.1, 0.1, 5) for i in range(3)]
    got = _perturbed_family(fam, 0.1, 7)
    assert np.array_equal(got.positions, wrap_angle(np.array(expected)))
    assert got.masses is fam.masses


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, kmflow, kmflow.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
