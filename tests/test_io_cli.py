import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import roprec
from roprec import cli, fileio, harness, linalg, measure
from roprec.harness import ExperimentConfig

rng = np.random.default_rng(31)


# ---------------------------------------------------------------------------
# file round trips


def test_matrix_round_trip(tmp_path):
    X = rng.standard_normal((4, 3))
    path = tmp_path / "x.txt"
    fileio.write_matrix(path, X)
    assert np.array_equal(fileio.read_matrix(path), X)


def test_matrix_truncated_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n1.0 2.0\n")
    with pytest.raises(fileio.ParseError) as exc:
        fileio.read_matrix(path)
    assert "line" in str(exc.value)


def test_ensemble_round_trip_preserves_apply(tmp_path):
    ens = measure.sample_gaussian_rop(4, 3, 6, seed=1)
    path = tmp_path / "ens.txt"
    fileio.write_ensemble(path, ens)
    back = fileio.read_ensemble(path)
    X = rng.standard_normal((4, 3))
    assert np.allclose(measure.apply_map(back, X), measure.apply_map(ens, X),
                       atol=1e-15)
    assert back.symmetric == ens.symmetric


def test_symmetric_ensemble_round_trip(tmp_path):
    ens = measure.sample_gaussian_rop(3, 3, 4, symmetric=True, seed=2)
    path = tmp_path / "sens.txt"
    fileio.write_ensemble(path, ens)
    back = fileio.read_ensemble(path)
    assert back.symmetric
    assert np.array_equal(back.betas, ens.betas)


def test_measurements_round_trip(tmp_path):
    b = rng.standard_normal(7)
    path = tmp_path / "b.txt"
    fileio.write_measurements(path, b)
    assert np.array_equal(fileio.read_measurements(path), b)


def test_measurements_bad_header(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("NOPE 3\n1\n2\n3\n")
    with pytest.raises(fileio.ParseError):
        fileio.read_measurements(path)


def test_config_parsing(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment\nm = 16\nmethod=nuclear\n\ntrials = 25\n")
    cfg = fileio.read_config(path)
    assert cfg == {"m": "16", "method": "nuclear", "trials": "25"}


def test_csv_deterministic_bytes(tmp_path):
    header = ["a", "b"]
    rows = [[1, 0.1 + 0.2], [2, 1e-17]]
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    fileio.write_csv(p1, header, rows)
    fileio.write_csv(p2, header, rows)
    assert p1.read_bytes() == p2.read_bytes()
    # repr floats round-trip through eval exactly
    text = p1.read_text().splitlines()
    assert float(text[1].split(",")[1]) == 0.1 + 0.2


# ---------------------------------------------------------------------------
# CLI


def test_cli_sample_measure_recover(tmp_path):
    ens_path = tmp_path / "ens.txt"
    assert cli.main(["sample", "--m", "6", "--n", "6", "--L", "80",
                     "--seed", "3", "--out", str(ens_path)]) == 0
    ens = fileio.read_ensemble(ens_path)
    g = np.random.default_rng(0)
    X0 = np.outer(g.standard_normal(6), g.standard_normal(6))
    X0 /= np.linalg.norm(X0)
    truth_path = tmp_path / "x0.txt"
    fileio.write_matrix(truth_path, X0)

    b_path = tmp_path / "b.txt"
    assert cli.main(["measure", "--ensemble", str(ens_path), "--matrix",
                     str(truth_path), "--out", str(b_path)]) == 0

    report_path = tmp_path / "report.json"
    est_path = tmp_path / "xhat.txt"
    assert cli.main(["recover", "--ensemble", str(ens_path), "--measurements",
                     str(b_path), "--method", "nuclear", "--truth",
                     str(truth_path), "--out", str(report_path),
                     "--matrix-out", str(est_path),
                     "--max-iterations", "300"]) == 0
    report = json.loads(report_path.read_text())
    assert report["relative_s2_error"] <= 1e-3
    Xhat = fileio.read_matrix(est_path)
    assert np.linalg.norm(Xhat - X0) <= 1e-3


def test_cli_certify(tmp_path):
    ens_path = tmp_path / "ens.txt"
    cli.main(["sample", "--m", "6", "--n", "6", "--L", "120",
              "--seed", "1", "--out", str(ens_path)])
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--ensemble", str(ens_path), "--r", "1",
                     "--k", "5", "--trials", "50", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["C1_hat"] <= cert["C2_hat"]
    assert "optimistic" in cert["caveat"]


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    assert cli.main(["certify", "--ensemble", str(bad), "--r", "1",
                     "--out", str(tmp_path / "o.json")]) == 2


def test_cli_phase_transition_deterministic(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["phase-transition", "--m", "4", "--n", "4", "--r", "1",
                         "--L", "30", "--trials", "2", "--seed", "5",
                         "--max-iterations", "200", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_csv_bytes_independent_of_blas_threads(tmp_path):
    if not linalg._openblas_pools():
        pytest.skip("no OpenBLAS thread-count symbols found in this process")
    src = os.path.dirname(os.path.dirname(os.path.abspath(roprec.__file__)))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"pt{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-m", "roprec.cli", "phase-transition", "--m", "20", "--n", "20",
             "--r", "2", "--L", "240", "--method", "schatten-p", "--p", "0.5",
             "--trials", "1", "--max-iterations", "200", "--seed", "1", "--out", str(out)],
            env=env, check=True, timeout=300)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_config_file_driving(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("m = 4\nn = 4\nranks = 1\nLs = 30\ntrials = 2\nseed = 7\n"
                   "max_iterations = 200\n")
    out = tmp_path / "pt.csv"
    assert cli.main(["phase-transition", "--config", str(cfg),
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("m,n,r,L,")
    assert len(lines) == 2


EXPERIMENTS = [("phase-transition", "phase_transition"), ("bound-check", "bound_check"),
               ("lad-robustness", "lad_robustness"), ("phaselift-demo", "phaselift_demo")]


@pytest.fixture
def run_configs(monkeypatch):
    """The ExperimentConfigs that experiment subcommands would run."""
    seen = []
    monkeypatch.setattr(harness, "run_experiment", seen.append)
    return seen


@pytest.mark.parametrize("key, text, flags, field, expected", [
    ("ranks", "2 3", ["--r", "4"], "ranks", (4,)),
    ("Ls", "30,40", ["--L", "50"], "Ls", (50,)),
    ("eta1_values", "0.01 0.02", ["--eta1", "0.05"], "eta1_values", (0.05,)),
    ("r", "2", ["--ranks", "1,3"], "ranks", (1, 3)),
    ("trials", "5", ["--trials", "2"], "trials", 2),
], ids=["r", "L", "eta1", "ranks", "trials"])
def test_cli_flag_beats_config_file(tmp_path, run_configs, key, text, flags, field, expected):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} = {text}\n")
    assert cli.main(["bound-check", "--config", str(cfg), *flags, "--out", "x.csv"]) == 0
    assert getattr(run_configs[0], field) == expected


def test_cli_config_keys_L_and_out(tmp_path, run_configs):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("L = 30\nmax-iterations = 7\nout = x.csv\n")
    assert cli.main(["phase-transition", "--config", str(cfg)]) == 0
    assert run_configs[0].Ls == (30,)
    assert run_configs[0].max_iterations == 7
    assert run_configs[0].out == "x.csv"


@pytest.mark.parametrize("key", ["trails", "rank"])
def test_cli_unknown_config_key_exits_2(tmp_path, run_configs, capsys, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} = 5\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["phase-transition", "--config", str(cfg), "--out", "x.csv"])
    assert exc.value.code == 2
    assert f"--{key}=5" in capsys.readouterr().err
    assert run_configs == []


@pytest.mark.parametrize("cmd, kind", EXPERIMENTS)
def test_cli_experiment_defaults_are_the_dataclass_defaults(monkeypatch, run_configs, cmd,
                                                            kind):
    assert cli.main([cmd, "--out", "x.csv"]) == 0
    assert run_configs.pop() == ExperimentConfig(kind=kind, out="x.csv")

    @dataclasses.dataclass
    class Shifted(ExperimentConfig):
        trials: int = 3
        max_iterations: int = 7

    monkeypatch.setattr(harness, "ExperimentConfig", Shifted)
    assert cli.main([cmd, "--out", "x.csv"]) == 0
    assert run_configs.pop() == Shifted(kind=kind, out="x.csv")


@pytest.mark.parametrize("cmd", ["sample", "measure", "recover", "certify",
                                 *(cmd for cmd, _ in EXPERIMENTS)])
def test_cli_help_exits_0(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: roprec " + cmd)


def test_cli_missing_input_file_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert cli.main(["recover", "--ensemble", missing, "--measurements", missing,
                     "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def noisy_recover_inputs(tmp_path_factory):
    # intersection noise lies in the lq ball and the Dantzig ball at once
    d = tmp_path_factory.mktemp("noisy")
    ens_path, truth_path, b_path = d / "ens.txt", d / "x0.txt", d / "b.txt"
    assert cli.main(["sample", "--m", "6", "--n", "6", "--L", "80",
                     "--seed", "0", "--out", str(ens_path)]) == 0
    g = np.random.default_rng(1)
    X0 = np.outer(g.standard_normal(6), g.standard_normal(6))
    fileio.write_matrix(truth_path, X0 / np.linalg.norm(X0))
    assert cli.main(["measure", "--ensemble", str(ens_path), "--matrix", str(truth_path),
                     "--noise-kind", "intersection", "--q", "1", "--eta1", "0.01",
                     "--eta2", "0.5", "--out", str(b_path)]) == 0
    return ens_path, b_path


@pytest.mark.parametrize("constraint, keys", [
    ("eq", {"equality"}), ("lq", {"lq"}), ("ds", {"dantzig"}), ("both", {"lq", "dantzig"}),
])
def test_cli_recover_constraint_mapping(tmp_path, noisy_recover_inputs, constraint, keys):
    ens_path, b_path = noisy_recover_inputs
    out = tmp_path / "r.json"
    assert cli.main(["recover", "--ensemble", str(ens_path), "--measurements", str(b_path),
                     "--constraint", constraint, "--eta1", "0.01", "--eta2", "0.5",
                     "--max-iterations", "200", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["constraint_slack"]) == keys


def test_cli_recover_rejects_sphere_constraint(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["recover", "--ensemble", "e.txt", "--measurements", "b.txt",
                  "--constraint", "sphere", "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2


def test_package_exports_resolve():
    import roprec
    for name in roprec.__all__:
        assert hasattr(roprec, name), name
