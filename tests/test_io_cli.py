import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import roprec
from roprec import certify, cli, fileio, harness, linalg, measure, solvers
from roprec.harness import ExperimentConfig
from roprec.measure import NoiseSpec

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
    assert np.array_equal(back.gammas, ens.gammas)


def test_symmetric_ensemble_with_other_gammas_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "sens.txt"
    path.write_text("ROP 2 2 2 1\nbeta: 1.0 0.0 gamma: 5.0 7.0\n"
                    "beta: 0.0 1.0 gamma: 0.0 1.0\n")
    with pytest.raises(fileio.ParseError, match="sens.txt"):
        fileio.read_ensemble(path)
    fileio.write_matrix(tmp_path / "x.txt", np.eye(2))
    assert cli.main(["measure", "--ensemble", str(path), "--matrix", str(tmp_path / "x.txt"),
                     "--out", str(tmp_path / "b.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "b.txt").exists()


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


def test_non_finite_ensemble_or_measurement_names_line(tmp_path, capsys):
    # float() reads 'nan' and 'inf'; the readers refuse them at the line
    ens_path, b_path = tmp_path / "ens.txt", tmp_path / "b.txt"
    ens_path.write_text("ROP 2 2 2 0\nbeta: 1.0 0.0 gamma: 5.0 7.0\n"
                        "beta: 0.0 nan gamma: 0.0 1.0\n")
    with pytest.raises(fileio.ParseError, match="ens.txt: line 3: non-finite"):
        fileio.read_ensemble(ens_path)
    b_path.write_text("MEAS 3\n1.0\n2.0\n-inf\n")
    with pytest.raises(fileio.ParseError, match="b.txt: line 4: non-finite"):
        fileio.read_measurements(b_path)
    fileio.write_ensemble(ens_path, measure.sample_gaussian_rop(2, 2, 3, seed=1))
    assert cli.main(["recover", "--ensemble", str(ens_path), "--measurements", str(b_path),
                     "--method", "nuclear", "--out", str(tmp_path / "rep.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "rep.json").exists()


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


@pytest.mark.parametrize("extra", [["--k", "2.5"],
                                   ["--q", "0.5", "--eta1", "-0.01"],
                                   ["--q", "1", "--eta1", "-0.01"]])
def test_cli_certify_bad_input_exits_2_without_a_report(tmp_path, capsys, extra):
    # k*r must be an integer, and eta1 must be >= 0 as in any lq noise set;
    # with eta1 = 0.01 in place of -0.01 the bound is computed at both q
    ens_path = tmp_path / "ens.txt"
    assert cli.main(["sample", "--m", "6", "--n", "6", "--L", "120",
                     "--seed", "1", "--out", str(ens_path)]) == 0
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--ensemble", str(ens_path), "--r", "1", "--k", "5",
                     "--p", "0.5", "--trials", "20", *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("k, tail, key", [
    (2, "0", "bound_lq_exact_rank"),
    # k = 2 meets the exact condition but not the general one, which the
    # general branch of the bound needs: no bound, and no ConditionViolated
    (2, "0.1", None),
    (10, "0.1", "bound_lq_general"),
])
def test_cli_certify_bound_branch(tmp_path, k, tail, key):
    ens_path, out = tmp_path / "ens.txt", tmp_path / "cert.json"
    assert cli.main(["sample", "--m", "12", "--n", "12", "--L", "150", "--seed", "1",
                     "--out", str(ens_path)]) == 0
    assert cli.main(["certify", "--ensemble", str(ens_path), "--r", "1", "--k", str(k),
                     "--p", "0.5", "--q", "1", "--eta1", "0.01", "--tail", tail,
                     "--trials", "200", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["exact_condition"] and cert["general_condition"] == (k == 10)
    bounds = {name for name in cert if name.startswith("bound_")}
    assert bounds == ({key} if key else set())
    if key:
        noise = NoiseSpec(kind="lq_bounded", q=1.0, eta1=0.01)
        assert cert[key] == certify.stability_bound_schatten(
            cert["C1_hat"], cert["C2_hat"], k, 0.5, 1.0, 150, 1, noise, tail_norm=float(tail))


@pytest.mark.parametrize("reader, text, where", [
    ("matrix", "", "line 1: empty matrix file"),
    ("matrix", "2 x\n", "line 1: expected 'm n' header"),
    ("matrix", "2 2\n1.0 2.0\n3.0\n", "line 3: expected 2 values, got 1"),
    ("matrix", "1 2\n1.0 x\n", "line 2: bad float"),
    ("ensemble", "ROP 2 2 x 0\n", "line 1: bad header fields"),
    ("ensemble", "ROP 2 2 3 0\nbeta: 1 2 gamma: 3 4\n",
     "line 3: expected 3 measurement lines, file truncated"),
    ("ensemble", "ROP 2 2 1 0\nbeta: 1 2 3 4\n",
     "line 2: expected 'beta: <2 floats> gamma: <2 floats>'"),
    ("ensemble", "ROP 2 2 1 0\nbeta: 1 x gamma: 3 4\n", "line 2: bad float"),
    ("measurements", "MEAS x\n", "line 1: bad header"),
    ("measurements", "MEAS 3\n1.0\n", "line 3: expected 3 values, file truncated"),
    ("measurements", "MEAS 2\n1.0\nx\n", "bad float in measurement body"),
    ("config", "m 4\n", "line 1: expected key=value"),
], ids=["matrix-empty", "matrix-header", "matrix-count", "matrix-float", "ensemble-header",
        "ensemble-truncated", "ensemble-line", "ensemble-float", "measurements-header",
        "measurements-truncated", "measurements-float", "config-no-equals"])
def test_cli_malformed_file_exits_2_naming_it(tmp_path, capsys, reader, text, where):
    bad, ens = tmp_path / "bad.txt", tmp_path / "ens.txt"
    bad.write_text(text)
    fileio.write_ensemble(ens, measure.sample_gaussian_rop(2, 2, 3, seed=0))
    fileio.write_matrix(tmp_path / "x.txt", np.eye(2))
    fileio.write_measurements(tmp_path / "b.txt", np.zeros(3))
    out = str(tmp_path / "out")
    argv = {
        "matrix": ["measure", "--ensemble", str(ens), "--matrix", str(bad), "--out", out],
        "ensemble": ["measure", "--ensemble", str(bad), "--matrix", str(tmp_path / "x.txt"),
                     "--out", out],
        "measurements": ["recover", "--ensemble", str(ens), "--measurements", str(bad),
                         "--out", out],
        "config": ["sample", "--config", str(bad), "--m", "2", "--n", "2", "--L", "3",
                   "--out", out],
    }[reader]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: {where}\n"


def test_cli_bound_check_rejects_k_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness.certify, "estimate_rub", no_trial)
    assert cli.main(["bound-check", "--m", "4", "--n", "4", "--r", "1", "--L", "30",
                     "--k", "2.5", "--eta1", "0.01", "--trials", "1",
                     "--out", str(tmp_path / "bc.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: k*r must be a positive integer") and err.count("\n") == 1


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


def test_cli_csv_bytes_independent_of_blas_threads(tmp_path, checkout_env):
    # IRLS (phase transition), the injective nuclear cell's one pivoted-QR
    # least-squares solve (scipy's LAPACK), ADMM over the lq ball (bound
    # check), PhaseLift's ADMM on the debiased map, LAD's ADMM over the
    # nuclear ball, least-q's descent at p = q = 0.5 (chaotic in its start,
    # so a thread-dependent rounding shows there first), and certify, whose
    # RUB estimate is the first pinned call of its process
    if not linalg._openblas_pools():
        pytest.skip("no OpenBLAS thread-count symbols found in this process")
    ens = tmp_path / "ens.txt"
    fileio.write_ensemble(ens, measure.sample_gaussian_rop(12, 12, 150, seed=1))
    runs = [
        ["phase-transition", "--m", "20", "--n", "20", "--r", "2", "--L", "240",
         "--method", "schatten-p", "--p", "0.5", "--max-iterations", "200", "--trials", "1"],
        ["phase-transition", "--m", "20", "--n", "20", "--r", "2", "--L", "480",
         "--method", "nuclear", "--trials", "1"],
        ["bound-check", "--m", "12", "--n", "12", "--r", "1", "--L", "150",
         "--eta1", "0.05", "--max-iterations", "400", "--trials", "1"],
        ["phaselift-demo", "--m", "16", "--L", "160", "--trials", "1"],
        ["lad-robustness", "--m", "8", "--n", "8", "--r", "1", "--L", "120", "--trials", "1"],
        ["phase-transition", "--m", "8", "--n", "8", "--r", "1", "--L", "120",
         "--method", "least-q", "--p", "0.5", "--q", "0.5", "--trials", "1"],
        ["certify", "--ensemble", str(ens), "--r", "1", "--k", "2", "--eta1", "0.01",
         "--trials", "200"],
    ]
    for argv in runs:
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{argv[0]}-{threads}.out"
            subprocess.run([sys.executable, "-m", "roprec.cli", *argv,
                            "--seed", "1", "--out", str(out)],
                           env=checkout_env(OPENBLAS_NUM_THREADS=threads),
                           check=True, timeout=300)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], argv


def test_scipy_not_imported_without_a_solve(tmp_path, checkout_env):
    # scipy takes most of the start-up time, and only the solvers need it:
    # importing the package, sampling, measuring and a usage error leave it
    # unloaded (the test process itself already holds scipy)
    script = """
import sys
import numpy as np
import roprec
assert "scipy" not in sys.modules, "import roprec"
from roprec import cli, fileio
assert "scipy" not in sys.modules, "import roprec.cli"
fileio.write_matrix("x.txt", np.outer(np.linspace(-1, 1, 6), np.ones(6)) / 6)
assert cli.main(["sample", "--m", "6", "--n", "6", "--L", "20", "--out", "ens.txt"]) == 0
assert "scipy" not in sys.modules, "sample"
assert cli.main(["measure", "--ensemble", "ens.txt", "--matrix", "x.txt",
                 "--noise-kind", "lq_bounded", "--q", "1", "--eta1", "0.01",
                 "--out", "b.txt"]) == 0
assert "scipy" not in sys.modules, "measure"
assert cli.main(["certify", "--ensemble", "ens.txt", "--r", "1", "--k", "2.5",
                 "--out", "c.json"]) == 2
assert "scipy" not in sys.modules, "certify usage error"
"""
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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


EXPERIMENTS = [(kind.replace("_", "-"), kind) for kind in harness.KINDS]


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


@pytest.mark.parametrize("text, flags, from_file, message", [
    ("trails = 5\n", [], True, "unrecognized arguments: --trails=5"),
    ("m = abc\n", [], True, "argument --m: invalid int value: 'abc'"),
    ("m = 4\n", ["--m", "abc"], False, "argument --m: invalid int value: 'abc'"),
    ("m = 4\n", ["--trails", "5"], False, "unrecognized arguments: --trails 5"),
], ids=["file-key", "file-value", "flag-value", "flag-key"])
def test_cli_parse_error_is_one_line(tmp_path, run_configs, capsys, text, flags, from_file,
                                     message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound-check", "--config", str(cfg), *flags, "--out", "x.csv"])
    assert exc.value.code == 2
    where = f"{cfg}: " if from_file else ""
    assert capsys.readouterr().err == f"error: {where}{message}\n"
    assert run_configs == []


def test_cli_parse_error_without_config_is_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--m", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == \
        "error: the following arguments are required: --n, --L, --out\n"


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


@pytest.mark.parametrize("cmd", cli._COMMANDS)
def test_cli_subcommand_parser_help_matches_full_parser(cmd, capsys):
    # a command line naming a subcommand builds that subparser alone
    helps = []
    for parser in (cli.build_parser(), cli.build_parser(cmd)):
        with pytest.raises(SystemExit):
            parser.parse_args([cmd, "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]


@pytest.mark.parametrize("cmd, flag, value", [
    ("bound-check", "--noise-kind", "dantzig"), ("bound-check", "--eta2", "0.5"),
    *((cmd, flag, value) for cmd in ("lad-robustness", "phaselift-demo")
      for flag, value in (("--noise-kind", "dantzig"), ("--eta2", "0.5"),
                          ("--eta1", "0.3"), ("--eta1-values", "0.3"))),
])
@pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
def test_cli_experiment_rejects_noise_flags_it_ignores(tmp_path, run_configs, capsys, cmd,
                                                       flag, value, from_file):
    # bound-check reads only its eta1 sweep; lad-robustness and phaselift-demo
    # read no noise setting
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{flag[2:]} = {value}\n" if from_file else "")
    argv = [cmd, "--config", str(cfg), "--out", "x.csv"] + ([] if from_file else [flag, value])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err
    assert run_configs == []


def test_cli_missing_input_file_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert cli.main(["recover", "--ensemble", missing, "--measurements", missing,
                     "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# exit codes: 0 done, 2 bad input, 3 a solve or size beyond roprec


def _recover_lq(tmp_path, m, L, extra=()):
    """Exit code of sample -> recover --constraint lq on zero measurements."""
    ens_path, b_path = tmp_path / "ens.txt", tmp_path / "b.txt"
    assert cli.main(["sample", "--m", str(m), "--n", str(m), "--L", str(L),
                     "--out", str(ens_path)]) == 0
    fileio.write_measurements(b_path, np.zeros(L))
    return cli.main(["recover", "--ensemble", str(ens_path), "--measurements", str(b_path),
                     "--constraint", "lq", "--eta1", "0.01", *extra,
                     "--out", str(tmp_path / "r.json")])


def test_cli_recover_70x70_lq_exits_0(tmp_path, capsys):
    # m*n = 4900 is past the explicit operator's cap; ADMM works on the 20 x 20 Gram
    assert _recover_lq(tmp_path, 70, 20, ["--max-iterations", "50"]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["constraint_slack"]["lq"] >= -1e-6


def test_cli_recover_over_the_gram_cap_exits_3(tmp_path, capsys):
    assert _recover_lq(tmp_path, 1, measure._GRAM_CAP + 1) == 3
    err = capsys.readouterr().err
    assert err.startswith("ResourceError: Gram of L=4097") and err.count("\n") == 1


def test_cli_solver_error_exits_3(tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise solvers.SolverError("no feasible point found")

    monkeypatch.setattr(harness, "recover", fail)
    ens_path, b_path = tmp_path / "ens.txt", tmp_path / "b.txt"
    assert cli.main(["sample", "--m", "3", "--n", "3", "--L", "5",
                     "--out", str(ens_path)]) == 0
    fileio.write_measurements(b_path, np.zeros(5))
    assert cli.main(["recover", "--ensemble", str(ens_path), "--measurements", str(b_path),
                     "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err == "SolverError: no feasible point found\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["lad-robustness", "--ranks", "1,2", "--Ls", "30,40"], "--ranks"),
    (["bound-check", "--Ls", "30,40", "--eta1", "0.01"], "--Ls"),
    (["lad-robustness", "--r", "1"], "--ratios"),
], ids=["lad-ranks-Ls", "bound-check-Ls", "lad-no-L"])
def test_cli_grid_an_experiment_cannot_run_exits_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--m", "4", "--n", "4", "--trials", "1",
                            "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"but {flag} gives" in err
    assert not out.exists()


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
