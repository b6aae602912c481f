"""Experiment runner: configs, manifests, reproducibility, file formats."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kmflow import io as kio
from kmflow import meanfield as mf
from kmflow.cli import ExperimentConfig, _perturbed_family, main, render, run
from kmflow.measures import VonMises, initial_family, wrap_angle

ER_HALF = {"kind": "constant", "p": 0.5}


def _read(path: Path) -> str:
    return Path(path).read_text()


def test_unknown_config_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "simulate", "bogus": 1})


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig.from_dict({"experiment": "frobnicate"})


def test_capacity_limit_enforced():
    with pytest.raises(ValueError, match="capacity"):
        ExperimentConfig.from_dict({
            "experiment": "meanfield_particles", "graphon": ER_HALF,
            "n": 2048, "m": 1024,
        })


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
    for literal in ("NaN", "Infinity"):
        code = main(["meanfield_particles", "--graphon", json.dumps(ER_HALF),
                     "--n", "2", "--m", "4", "--T", "0.1", "--dt", "0.05",
                     "--rho0", '{"kind": "von_mises", "kappa": %s}' % literal,
                     "--output-dir", str(tmp_path)])
        assert code == 1
        assert "error: concentration kappa must be finite" in capsys.readouterr().err


def test_failed_run_leaves_no_manifest(tmp_path, capsys):
    out = tmp_path / "d"
    code = main(["meanfield_particles", "--graphon", '{"kind": "constant", "p": 0.5}',
                 "--n", "2", "--m", "4",
                 "--rho0", '{"kind": "von_mises", "kappa": NaN}',
                 "--output-dir", str(out)])
    assert code == 1
    assert "error: concentration kappa must be finite" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_failed_rerun_removes_earlier_manifest(tmp_path, capsys):
    out = tmp_path / "d"
    argv = ["meanfield_particles", "--graphon", json.dumps(ER_HALF), "--n", "2",
            "--m", "4", "--T", "0.1", "--dt", "0.05", "--output-dir", str(out)]
    assert main(argv) == 0
    assert (out / "manifest.json").exists()
    assert main(argv + ["--rho0", '{"kind": "von_mises", "kappa": NaN}']) == 1
    assert "error: concentration kappa must be finite" in capsys.readouterr().err
    # no manifest vouches for the earlier outputs, and no temporary file is left
    assert sorted(p.name for p in out.iterdir()) == ["drift.csv", "results.csv"]


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
    ("seeds", [-1]), ("init_seed", 2**64), ("perturbation_seed", "0"),
])
def test_bad_numeric_keys_named(key, value):
    raw = {"experiment": "convergence_main", "graphon": ER_HALF, "n": [2], "m": [4]}
    with pytest.raises(ValueError, match=f"^{key!r} must be "):
        ExperimentConfig.from_dict({**raw, key: value})


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
        ExperimentConfig.from_dict({"experiment": "meanfield_fv", "g": g})


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


def _readme_examples() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("kmflow ")]


# sha256 of every output the README examples write, manifests aside.  They
# were recorded before the graph and mean-field coupling sums became one
# routine, which changed no output byte; a change that moves one must say so.
README_OUTPUT_SHA256 = {
    "out/ave/results.csv": "c6a49688baa3e49d89eed33a61fb8328b4efe6f3fd5a5af758dc1f62de66461e",
    "out/conv/results.csv": "1f0108e0980e1dd5833f764b2515da0e30cf039fcb95146fd862f6efbdec079e",
    "out/dist/results.csv": "e64bcf0ee63aa381586382827b75c6dbfc0c7f0317e40c7f463db945e9520ef8",
    "out/mfp/drift.csv": "2c359e592d3c494d2b4623f767e303b100301dcdefdcd9c8073b245515a34d68",
    "out/mfp/results.csv": "ff92c962b6a789dfae9b006f73e640b5273a623b7b86fccf578d1674e0f6daab",
    "out/sim/results.csv": "e204b1169330596e7b542acfbab514adaedbfff043d1f6a452ad6c76dab336b7",
    "out/stab/results.csv": "aebd1ad16e1dc24fcfe21efe04d810b3e12a44af9640726ce3b831fddbe9c8c6",
    "out/sw/graph.pgm": "7bdd64a82e80b8ad10bc992fdce771e91178fbd4657ab23542da78e96e58268d",
    "out/sw/picture.pgm": "7bdd64a82e80b8ad10bc992fdce771e91178fbd4657ab23542da78e96e58268d",
    "out/sw/results.csv": "ba4750346b1368a049f26d8e2fe8afba1639fa0a7481a3a8987e4b7635f585fe",
}


def test_readme_examples_replay_byte_for_byte(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert len(examples) == 8
    for argv in examples:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    written = {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in Path("out").rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    assert written == README_OUTPUT_SHA256
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
