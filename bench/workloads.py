"""The benchmark workloads, as lists of roprec CLI invocations.

A workload turns the benchmark seed into input files and a fixed list of
steps, one ``roprec.cli.main`` invocation each.  One pass over the list is
a *cycle*; every cycle of a run repeats the same steps on the same inputs,
so every cycle must write byte-identical output files.

Each workload is a reduced version of acceptance cells from
``tests/test_acceptance.py`` and judges each trial by that cell's
criterion; the reductions and the reasons for them are in README.md.

This module imports only the standard library at load time: the runner
times the numpy and roprec imports as part of set-up.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os


class CheckError(Exception):
    """An output file is missing, malformed or inconsistent."""


@dataclasses.dataclass
class Step:
    """One CLI invocation and what the runner needs to judge it."""

    kind: str  # steps of one kind are timed together (median over samples)
    label: str  # unique within a workload
    argv: list
    outputs: list  # files the invocation writes
    solves: int  # solver runs the invocation performs
    check: object  # check(step) -> (successes, judged, detail); raises CheckError


def sub_seed(seed: int, label: str) -> int:
    """Deterministic 62-bit CLI seed for one labelled input of a run."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 2


def _write_truth(path: str, m: int, n: int, seed: int) -> None:
    """Rank-one m x n matrix of unit Frobenius norm, in roprec's matrix format."""
    import numpy as np

    rng = np.random.default_rng(seed)
    X = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    X /= np.linalg.norm(X)
    with open(path, "w") as fh:
        fh.write(f"{m} {n}\n")
        for row in X:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Output checks.  They parse what the CLI wrote with the standard library
# only, so a defect in roprec's own readers cannot hide a bad file.


def _rows(path: str, header: list, count: int) -> list:
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"{path}: {exc}") from exc
    if not table or table[0] != header:
        raise CheckError(f"{path}: header {table[:1]} != {header}")
    if len(table) - 1 != count:
        raise CheckError(f"{path}: {len(table) - 1} rows, expected {count}")
    return [dict(zip(header, row)) for row in table[1:]]


def _num(row: dict, key: str, finite: bool = True) -> float:
    value = float(row[key])
    if finite and not math.isfinite(value):
        raise CheckError(f"{key}={row[key]} is not finite")
    return value


def _json(path: str, keys: tuple) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: {exc}") from exc
    missing = [k for k in keys if k not in data]
    if missing:
        raise CheckError(f"{path}: missing keys {missing}")
    return data


def _header_line(path: str) -> list:
    try:
        with open(path) as fh:
            first = fh.readline().split()
            body = sum(1 for _ in fh)
    except OSError as exc:
        raise CheckError(f"{path}: {exc}") from exc
    return first + [body]


PT_HEADER = ["m", "n", "r", "L", "successes", "trials", "success_rate",
             "mean_error", "median_error", "mean_iterations", "trial_seed"]
BC_HEADER = ["eta1", "trial", "certified", "C1_hat", "C2_hat",
             "observed_error_q", "bound", "violated", "trial_seed"]
LAD_HEADER = ["trial", "corrupt_fraction", "corrupt_scale", "lad_error",
              "lsq_error", "trial_seed"]
PL_HEADER = ["trial", "L", "leading_eig_cosine", "frobenius_error",
             "converged", "trial_seed"]
RECOVER_KEYS = ("method", "objective", "iterations", "converged",
                "globally_optimal", "constraint_slack", "relative_s2_error")
CERTIFY_KEYS = ("C1_hat", "C2_hat", "mean_ratio", "trials", "exact_condition")


def check_phase_transition(step):
    """Criterion 03/04: the trial succeeds when its relative error <= 1e-3."""
    (row,) = _rows(step.outputs[0], PT_HEADER, 1)
    successes, count = int(row["successes"]), int(row["trials"])
    if count != 1 or successes not in (0, 1):
        raise CheckError(f"{step.label}: {successes}/{count} successes")
    if _num(row, "success_rate") != successes:
        raise CheckError(f"{step.label}: success_rate disagrees with counts")
    if _num(row, "mean_iterations") <= 0:
        raise CheckError(f"{step.label}: no iterations recorded")
    _num(row, "mean_error")
    return successes, 1, {"error": row["median_error"],
                          "iterations": row["mean_iterations"]}


def check_bound_check(count: int):
    """Criterion 06: among certified trials, observed error <= the bound."""

    def check(step):
        rows = _rows(step.outputs[0], BC_HEADER, count)
        held = certified = 0
        for row in rows:
            if _num(row, "C1_hat") > _num(row, "C2_hat"):
                raise CheckError(f"{step.label}: C1_hat > C2_hat")
            observed = _num(row, "observed_error_q")
            if row["certified"] == "1":
                certified += 1
                violated = observed > _num(row, "bound")
                if int(row["violated"]) != int(violated):
                    raise CheckError(f"{step.label}: violated flag disagrees with bound")
                held += not violated
            elif row["certified"] != "0" or row["violated"] != "0":
                raise CheckError(f"{step.label}: bad certified/violated flags")
        return held, certified, {"certified": certified}

    return check


def check_lad(step):
    """Criterion 09: LAD error <= 0.5 x least-squares error."""
    (row,) = _rows(step.outputs[0], LAD_HEADER, 1)
    lad, lsq = _num(row, "lad_error"), _num(row, "lsq_error")
    if lad < 0 or lsq < 0:
        raise CheckError(f"{step.label}: negative error")
    return int(lad <= 0.5 * lsq), 1, {"lad_error": lad, "lsq_error": lsq}


def check_phaselift(step):
    """Criterion 08: leading-eigenvector cosine >= 0.999."""
    (row,) = _rows(step.outputs[0], PL_HEADER, 1)
    cosine = _num(row, "leading_eig_cosine")
    if not 0.0 <= cosine <= 1.0 + 1e-9:
        raise CheckError(f"{step.label}: cosine {cosine} out of range")
    _num(row, "frobenius_error")
    return int(cosine >= 0.999), 1, {"cosine": cosine}


def check_header(expected: list, lines: int):
    """A sample/measure output: its header fields and body line count."""

    def check(step):
        got = _header_line(step.outputs[0])
        if got != expected + [lines]:
            raise CheckError(f"{step.label}: header/lines {got} != {expected + [lines]}")
        return 0, 0, {}

    return check


def check_certify(trials: int):
    def check(step):
        data = _json(step.outputs[0], CERTIFY_KEYS)
        if data["trials"] != trials or not (
                data["C1_hat"] <= data["mean_ratio"] <= data["C2_hat"]):
            raise CheckError(f"{step.label}: inconsistent RUB estimate")
        return 0, 0, {"exact_condition": data["exact_condition"],
                      "bound": data.get("bound_lq_exact_rank")}

    return check


def check_recover(m: int, n: int):
    def check(step):
        data = _json(step.outputs[0], RECOVER_KEYS)
        err = data["relative_s2_error"]
        if not (isinstance(err, float) and math.isfinite(err) and err >= 0):
            raise CheckError(f"{step.label}: relative_s2_error={err!r}")
        if data["iterations"] < 1:
            raise CheckError(f"{step.label}: no iterations")
        if _header_line(step.outputs[1]) != [str(m), str(n), m]:
            raise CheckError(f"{step.label}: estimate is not {m} x {n}")
        return 0, 0, {"relative_s2_error": err, "converged": data["converged"]}

    return check


# ---------------------------------------------------------------------------
# Workloads.  "full" is what the benchmark measures; "tiny" keeps the same
# steps at sizes small enough for the self-test and the warm-up cycle.
#
# Experiment steps run one trial (or one trial per eta) per invocation, each
# on its own seed.  A cycle thus holds many distinct problem instances, and
# the runner can take per-kind medians over many short samples: both the
# cost of an instance and a shared machine's speed vary from second to second.


EQUALITY_SIZES = {
    # nuclear at L=480 >= m*n=400, where the Cholesky of the IRLS Gram fails
    # on every iteration and _solve_psd falls back to lstsq (criterion 03).
    # Schatten-0.5 at L=240 = 3r(m+n), criterion 04's matched cell.
    "full": dict(m=20, r=2, L_nuc=480, L_sp=240, nuc_trials=1, sp_trials=3,
                 max_iterations=200),
    "tiny": dict(m=6, r=1, L_nuc=40, L_sp=24, nuc_trials=1, sp_trials=1,
                 max_iterations=60),
}


def build_equality(workdir: str, seed: int, size: str) -> list:
    s = EQUALITY_SIZES[size]
    common = ["--m", str(s["m"]), "--n", str(s["m"]), "--r", str(s["r"]),
              "--trials", "1", "--max-iterations", str(s["max_iterations"])]
    steps = []
    for kind, method, p, L, trials in (
            ("nuclear", "nuclear", "1", s["L_nuc"], s["nuc_trials"]),
            ("schatten-0.5", "schatten-p", "0.5", s["L_sp"], s["sp_trials"])):
        for t in range(trials):
            out = os.path.join(workdir, f"pt-{kind}-{t}.csv")
            steps.append(Step(
                kind=f"phase-transition {kind}", label=f"phase-transition {kind} {t}",
                argv=["phase-transition"] + common + [
                    "--L", str(L), "--method", method, "--p", p,
                    "--seed", str(sub_seed(seed, f"{kind}-{t}")), "--out", out],
                outputs=[out], solves=1, check=check_phase_transition))
    return steps


# The lq-constrained chain (sample, measure, certify, recover) runs on
# lq_m x lq_m ensembles with lq_m**2 >= L.  With L > m*n, as at m=12, L=150,
# the feasibility polish after ADMM cannot always reach the lq ball and the
# solve raises SolverError; that case is the known-defect probe below.
NOISY_SIZES = {
    "full": dict(m=12, L=150, k=10, bc_instances=6, rub_trials=200, bc_max_iterations=400,
                 lq_m=13, cert_trials=200, q1_instances=8, q05_instances=6,
                 q05_max_iterations=10, probe_instances=3, probe_max_iterations=200,
                 lad_m=8, lad_L=120, lad_trials=2, lad_max_iterations=1000,
                 pl_m=16, pl_L=160, pl_trials=2, pl_max_iterations=800),
    "tiny": dict(m=6, L=40, k=4, bc_instances=1, rub_trials=20, bc_max_iterations=50,
                 lq_m=7, cert_trials=20, q1_instances=1, q05_instances=1,
                 q05_max_iterations=3, probe_instances=1, probe_max_iterations=20,
                 lad_m=4, lad_L=30, lad_trials=1, lad_max_iterations=100,
                 pl_m=6, pl_L=40, pl_trials=1, pl_max_iterations=100),
}
NOISY_ETA1 = "0.01"
NOISY_BC_ETAS = (0.01, 0.05)


def _lq_chain(workdir: str, seed: int, m: int, L: int, i: int, prefix: str) -> tuple:
    """Truth matrix and `sample` step of one m x m noisy ensemble."""
    truth = os.path.join(workdir, f"{prefix}x0-{i}.txt")
    _write_truth(truth, m, m, sub_seed(seed, f"{prefix}truth-{i}"))
    ens = os.path.join(workdir, f"{prefix}ens-{i}.txt")
    sample = Step(
        kind="sample", label=f"{prefix}sample {i}",
        argv=["sample", "--m", str(m), "--n", str(m), "--L", str(L),
              "--seed", str(sub_seed(seed, f"{prefix}instance-{i}")), "--out", ens],
        outputs=[ens], solves=0,
        check=check_header(["ROP", str(m), str(m), str(L), "0"], L))
    return truth, ens, sample


def _measure(L: int, tag: str, ens: str, truth: str, q: str, iseed: str,
             meas: str) -> Step:
    return Step(kind="measure", label=f"measure {tag}",
                argv=["measure", "--ensemble", ens, "--matrix", truth,
                      "--noise-kind", "lq_bounded", "--q", q, "--eta1", NOISY_ETA1,
                      "--seed", iseed, "--out", meas],
                outputs=[meas], solves=0, check=check_header(["MEAS", str(L)], L))


def _recover(m: int, kind: str, tag: str, workdir: str, ens: str, meas: str,
             truth: str, q: str, max_it: int, iseed: str) -> Step:
    report = os.path.join(workdir, f"recover-{tag}.json")
    xhat = os.path.join(workdir, f"xhat-{tag}.txt")
    return Step(kind=kind, label=f"recover {tag}",
                argv=["recover", "--ensemble", ens, "--measurements", meas,
                      "--method", "schatten-p", "--p", "0.5", "--q", q,
                      "--constraint", "lq", "--eta1", NOISY_ETA1,
                      "--max-iterations", str(max_it), "--truth", truth,
                      "--seed", iseed, "--out", report, "--matrix-out", xhat],
                outputs=[report, xhat], solves=1, check=check_recover(m, m))


def build_noisy(workdir: str, seed: int, size: str) -> list:
    s = NOISY_SIZES[size]
    m, L = s["m"], s["L"]
    cfg = os.path.join(workdir, "bound-check.cfg")
    with open(cfg, "w") as fh:
        fh.write("# bound-check sweep, read through --config\n")
        fh.write(f"eta1_values = {' '.join(str(e) for e in NOISY_BC_ETAS)}\n")
        fh.write(f"rub_trials = {s['rub_trials']}\n")
        fh.write(f"k = {s['k']}\n")
    steps = []
    for i in range(s["bc_instances"]):
        out = os.path.join(workdir, f"bound-check-{i}.csv")
        steps.append(Step(
            kind="bound-check", label=f"bound-check {i}",
            argv=["bound-check", "--config", cfg, "--m", str(m), "--n", str(m),
                  "--r", "1", "--L", str(L), "--trials", "1", "--p", "1", "--q", "1",
                  "--max-iterations", str(s["bc_max_iterations"]),
                  "--seed", str(sub_seed(seed, f"bound-check-{i}")), "--out", out],
            outputs=[out], solves=len(NOISY_BC_ETAS),
            check=check_bound_check(len(NOISY_BC_ETAS))))

    for i in range(max(s["q1_instances"], s["q05_instances"])):
        iseed = str(sub_seed(seed, f"instance-{i}"))
        truth, ens, sample = _lq_chain(workdir, seed, s["lq_m"], L, i, "")
        steps.append(sample)
        # measure and certify at q=1 on the first q1_instances ensembles, and
        # the whole chain up to a p=q=0.5 recover on the first q05_instances.
        for q, count in (("0.5", s["q05_instances"]), ("1", s["q1_instances"])):
            if i >= count:
                continue
            tag = f"q{q}-{i}"
            meas = os.path.join(workdir, f"b-{tag}.txt")
            cert = os.path.join(workdir, f"cert-{tag}.json")
            steps += [
                _measure(L, tag, ens, truth, q, iseed, meas),
                Step(kind="certify", label=f"certify {tag}",
                     argv=["certify", "--ensemble", ens, "--r", "1", "--k", str(s["k"]),
                           "--p", "0.5", "--q", q, "--eta1", NOISY_ETA1,
                           "--trials", str(s["cert_trials"]), "--seed", iseed,
                           "--out", cert],
                     outputs=[cert], solves=0, check=check_certify(s["cert_trials"])),
            ]
            if q == "0.5":
                steps.append(_recover(s["lq_m"], "recover q0.5", tag, workdir, ens, meas,
                                      truth, q, s["q05_max_iterations"], iseed))
    return steps + robust_steps(workdir, seed, s)


def build_noisy_probe(workdir: str, seed: int, size: str) -> list:
    """The p=0.5, q=1 lq-constrained solve at m=n=12, L=150, run once per traced run.

    It raises SolverError on about two seeds in three: with L > m*n the
    feasibility polish cannot always reach the lq ball.  A measured
    workload must not fail, so this solve is not in the noisy cycle; the
    runner reports how many of these solves raised as
    known_defect.solver_errors instead.
    """
    s = NOISY_SIZES[size]
    steps = []
    for i in range(s["probe_instances"]):
        iseed = str(sub_seed(seed, f"probe-instance-{i}"))
        truth, ens, sample = _lq_chain(workdir, seed, s["m"], s["L"], i, "probe-")
        meas = os.path.join(workdir, f"b-probe-q1-{i}.txt")
        steps += [sample, _measure(s["L"], f"probe-q1-{i}", ens, truth, "1", iseed, meas),
                  _recover(s["m"], "recover q1", f"probe-q1-{i}", workdir, ens, meas, truth,
                           "1", s["probe_max_iterations"], iseed)]
    return steps


def robust_steps(workdir: str, seed: int, s: dict) -> list:
    """LAD and PhaseLift trials, each with 5% of measurements corrupted 10x."""
    corrupt = ["--corrupt-fraction", "0.05", "--corrupt-scale", "10"]
    steps = []
    for t in range(s["lad_trials"]):
        out = os.path.join(workdir, f"lad-{t}.csv")
        steps.append(Step(
            kind="lad-robustness", label=f"lad-robustness {t}",
            argv=["lad-robustness", "--m", str(s["lad_m"]), "--n", str(s["lad_m"]),
                  "--r", "1", "--L", str(s["lad_L"]), "--trials", "1",
                  "--max-iterations", str(s["lad_max_iterations"]), *corrupt,
                  "--seed", str(sub_seed(seed, f"lad-{t}")), "--out", out],
            outputs=[out], solves=1, check=check_lad))
    for t in range(s["pl_trials"]):
        out = os.path.join(workdir, f"phaselift-{t}.csv")
        steps.append(Step(
            kind="phaselift-demo", label=f"phaselift-demo {t}",
            argv=["phaselift-demo", "--m", str(s["pl_m"]), "--L", str(s["pl_L"]),
                  "--trials", "1", "--max-iterations", str(s["pl_max_iterations"]),
                  *corrupt, "--seed", str(sub_seed(seed, f"phaselift-{t}")), "--out", out],
            outputs=[out], solves=1, check=check_phaselift))
    return steps


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {"equality": build_equality, "noisy": build_noisy}
# Solves with a known defect, run outside the measured cycles (see
# build_noisy_probe); traced runs report how many of them raised.
PROBES = {"noisy": build_noisy_probe}
