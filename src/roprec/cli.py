"""Command-line front door.

Subcommands: sample, measure, recover, certify, phase-transition,
bound-check, lad-robustness, phaselift-demo.  Experiment subcommands read
a key=value config file with flag overrides and emit CSV; exit code is 0
on a completed run and 2, with a one-line message, on config, parse or
file errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import certify, fileio, harness, measure, solvers
from .measure import NoiseSpec
from .solvers import SolverConfig


def _noise_spec(args) -> NoiseSpec:
    return NoiseSpec(kind=args.noise_kind, q=args.q, eta1=args.eta1, eta2=args.eta2)


def _cmd_sample(args) -> int:
    ens = measure.sample_gaussian_rop(args.m, args.n, args.L,
                                      symmetric=args.symmetric, seed=args.seed)
    fileio.write_ensemble(args.out, ens)
    return 0


def _cmd_measure(args) -> int:
    ens = fileio.read_ensemble(args.ensemble)
    X = fileio.read_matrix(args.matrix)
    spec = _noise_spec(args)
    b = measure.apply_map(ens, X) + measure.generate_noise(spec, ens, args.seed)
    fileio.write_measurements(args.out, b)
    return 0


# --constraint names of the noise-set kinds.
_CONSTRAINTS = {"eq": "none", "lq": "lq_bounded", "ds": "dantzig", "both": "intersection"}


def _cmd_recover(args) -> int:
    ens = fileio.read_ensemble(args.ensemble)
    b = fileio.read_measurements(args.measurements)
    cfg = SolverConfig(p=args.p, q=args.q, seed=args.seed,
                       max_iterations=args.max_iterations)
    if args.method == "phaselift":
        report = solvers.phaselift_lad(ens, b, cfg)
    elif args.method == "least-q":
        report = solvers.least_q_minimize(ens, b, cfg)
    else:
        noise = NoiseSpec(kind=_CONSTRAINTS[args.constraint], q=args.q,
                          eta1=args.eta1, eta2=args.eta2)
        if args.method == "nuclear":
            report = solvers.nuclear_norm_baseline(ens, b, noise, cfg)
        else:
            report = solvers.schatten_p_minimize(ens, b, noise, cfg)
    payload = {
        "method": report.method,
        "objective": report.final_objective,
        "iterations": report.iterations_used,
        "converged": report.converged,
        "globally_optimal": report.globally_optimal,
        "constraint_slack": report.constraint_slack,
    }
    if args.truth:
        X0 = fileio.read_matrix(args.truth)
        payload["relative_s2_error"] = float(
            np.linalg.norm(report.estimate - X0) / max(np.linalg.norm(X0), 1e-300))
    fileio.write_report(args.out, payload)
    if args.matrix_out:
        fileio.write_matrix(args.matrix_out, report.estimate)
    return 0


def _cmd_certify(args) -> int:
    ens = fileio.read_ensemble(args.ensemble)
    order = int(round((args.k + 1) * args.r))
    est = certify.estimate_rub(ens, order, args.q, args.trials, seed=args.seed)
    exact = certify.check_exact_condition(est.C1_hat, est.C2_hat, args.k, args.p, args.q)
    general = certify.check_general_condition(est.C1_hat, est.C2_hat, args.k, args.p, args.q)
    dlb, dsub = certify.rip_from_rub(est.C1_hat, est.C2_hat)
    nsp = certify.nsp_from_rub(est.C1_hat, est.C2_hat, args.k, args.p, args.q,
                               ens.L, "lq", r=args.r)
    payload = {
        "caveat": "inner estimates: C1_hat >= C1*, C2_hat <= C2*; checks are optimistic",
        "C1_hat": est.C1_hat,
        "C2_hat": est.C2_hat,
        "mean_ratio": est.mean_ratio,
        "trials": est.trials,
        "rub_order": order,
        "exact_condition": bool(exact),
        "general_condition": bool(general.passed),
        "delta_lb": dlb,
        "delta_sub": dsub,
        "nsp_D1": nsp.D,
        "nsp_beta1": nsp.beta,
        "nsp_valid": nsp.valid,
    }
    if args.eta1 is not None and exact:
        payload["bound_lq_exact_rank"] = certify.stability_bound_schatten(
            est.C1_hat, est.C2_hat, args.k, args.p, args.q, ens.L, args.r,
            ("lq", args.eta1), tail_norm=args.tail)
    fileio.write_report(args.out, payload)
    return 0


def _experiment_cfg(args, kind: str) -> harness.ExperimentConfig:
    raw = fileio.read_config(args.config) if args.config else {}

    def get(key, cast, default):
        if getattr(args, key, None) is not None:
            return getattr(args, key)
        if key in raw:
            return cast(raw[key])
        return default

    def tup(text):
        return tuple(float(t) if "." in t or "e" in t else int(t)
                     for t in text.replace(",", " ").split())

    noise_kind = get("noise_kind", str, "none")
    noise = NoiseSpec(kind=noise_kind,
                      q=get("q", float, 1.0) if noise_kind in ("lq_bounded", "intersection") else None,
                      eta1=get("eta1", float, None),
                      eta2=get("eta2", float, None))
    return harness.ExperimentConfig(
        kind=kind,
        m=get("m", int, 16), n=get("n", int, 16),
        ranks=tup(raw["ranks"]) if "ranks" in raw else (get("r", int, 1),),
        ratios=tup(raw["ratios"]) if "ratios" in raw else (1, 2, 3, 4, 5, 6),
        Ls=tup(raw["Ls"]) if "Ls" in raw else (
            (args.L,) if getattr(args, "L", None) else None),
        trials=get("trials", int, 25),
        threshold=get("threshold", float, 1e-3),
        method=get("method", str, "nuclear"),
        p=get("p", float, 1.0), q=get("q", float, 1.0),
        noise=noise,
        eta1_values=tup(raw["eta1_values"]) if "eta1_values" in raw else (
            (args.eta1,) if getattr(args, "eta1", None) is not None else ()),
        rub_trials=get("rub_trials", int, 200),
        k=get("k", float, 10.0),
        corrupt_fraction=get("corrupt_fraction", float, 0.05),
        corrupt_scale=get("corrupt_scale", float, 10.0),
        seed=get("seed", int, 0),
        max_iterations=get("max_iterations", int, 600),
        out=args.out)


def _cmd_experiment(kind):
    def run(args) -> int:
        cfg = _experiment_cfg(args, kind)
        harness.run_experiment(cfg)
        return 0

    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roprec",
                                     description="Low-rank recovery from rank-one projections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a Gaussian ROP ensemble")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("measure", help="apply an ensemble to a matrix, plus noise")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--noise-kind", default="none",
                   choices=["none", "lq_bounded", "dantzig", "intersection"])
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--eta1", type=float, default=None)
    p.add_argument("--eta2", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("recover", help="solve a recovery program")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--method", default="schatten-p",
                   choices=["schatten-p", "least-q", "phaselift", "nuclear"])
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--constraint", default="eq", choices=sorted(_CONSTRAINTS))
    p.add_argument("--eta1", type=float, default=None)
    p.add_argument("--eta2", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=2000)
    p.add_argument("--truth", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--matrix-out", default=None)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("certify", help="estimate RUB constants and conditions")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--k", type=float, default=10.0)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--eta1", type=float, default=None)
    p.add_argument("--tail", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_certify)

    for name, kind in [("phase-transition", "phase_transition"),
                       ("bound-check", "bound_check"),
                       ("lad-robustness", "lad_robustness"),
                       ("phaselift-demo", "phaselift_demo")]:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--L", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--method", default=None)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--noise-kind", dest="noise_kind", default=None)
        p.add_argument("--eta1", type=float, default=None)
        p.add_argument("--eta2", type=float, default=None)
        p.add_argument("--k", type=float, default=None)
        p.add_argument("--rub-trials", dest="rub_trials", type=int, default=None)
        p.add_argument("--corrupt-fraction", dest="corrupt_fraction", type=float, default=None)
        p.add_argument("--corrupt-scale", dest="corrupt_scale", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_experiment(kind))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (fileio.ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
