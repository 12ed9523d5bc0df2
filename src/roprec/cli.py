"""Command-line front door.

Subcommands: sample, measure, recover, certify, and one experiment
subcommand per ``harness.KINDS`` entry (the kind spelt with ``-``).  The
experiment subcommands write CSV and take one flag per
``harness.ExperimentConfig`` field, spelt with ``_`` or ``-`` (grid fields
take space- or comma-separated lists), plus ``--r``, ``--L`` and
``--eta1`` for one-element grids and ``--noise-kind``/``--eta2`` for the
noise set, of the noise flags only those the kind reads; unset values
take the dataclass defaults.  ``--config FILE`` reads ``key = value``
lines as leading ``--key=value`` flags, so command-line flags win and an
unknown key is an error.  Exit code is 0 on a completed run; 2, with a
one-line ``error:`` message, on config, parse or file errors and on a
grid an experiment cannot run (a parse error names the config file when
a line of it is at fault); and 3, with one ``ClassName: message`` line,
when a solve or size is beyond roprec.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import certify, fileio, harness, linalg, measure, solvers
from .measure import NoiseSpec
from .solvers import SolverConfig


def _cmd_sample(args) -> int:
    ens = measure.sample_gaussian_rop(args.m, args.n, args.L,
                                      symmetric=args.symmetric, seed=args.seed)
    fileio.write_ensemble(args.out, ens)
    return 0


def _cmd_measure(args) -> int:
    ens = fileio.read_ensemble(args.ensemble)
    X = fileio.read_matrix(args.matrix)
    spec = NoiseSpec(kind=args.noise_kind, q=args.q, eta1=args.eta1, eta2=args.eta2)
    b = measure.apply_map(ens, X) + measure.generate_noise(spec, ens, args.seed)
    fileio.write_measurements(args.out, b)
    return 0


# --constraint names: aliases of the noise-set kinds (measure.NOISE_KINDS).
_CONSTRAINTS = {"eq": "none", "lq": "lq_bounded", "ds": "dantzig", "both": "intersection"}


def _cmd_recover(args) -> int:
    ens = fileio.read_ensemble(args.ensemble)
    b = fileio.read_measurements(args.measurements)
    noise = NoiseSpec(kind=_CONSTRAINTS[args.constraint], q=args.q,
                      eta1=args.eta1, eta2=args.eta2)
    cfg = SolverConfig(p=args.p, q=args.q, seed=args.seed,
                       max_iterations=args.max_iterations)
    report = harness.recover(args.method, ens, b, noise, cfg)
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
    order = certify.rub_order(args.k, args.r)
    noise = None if args.eta1 is None else NoiseSpec(kind="lq_bounded", q=args.q,
                                                     eta1=args.eta1)
    est = certify.estimate_rub(ens, order, args.q, args.trials, seed=args.seed)
    exact = certify.check_exact_condition(est.C1_hat, est.C2_hat, args.k, args.p, args.q)
    general = certify.check_general_condition(est.C1_hat, est.C2_hat, args.k, args.p, args.q)
    dlb, dsub = certify.rip_from_rub(est.C1_hat, est.C2_hat)
    nsp = certify.nsp_from_rub(est.C1_hat, est.C2_hat, args.k, args.p, args.q,
                               ens.L, "lq_bounded", r=args.r)
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
    # a tail takes the general branch of the bound, which needs the general
    # condition; the exact-rank branch needs the exact one
    if noise is not None and (general.passed if args.tail > 0 else exact):
        key = "bound_lq_general" if args.tail > 0 else "bound_lq_exact_rank"
        payload[key] = certify.stability_bound_schatten(
            est.C1_hat, est.C2_hat, args.k, args.p, args.q, ens.L, args.r,
            noise, tail_norm=args.tail)
    fileio.write_report(args.out, payload)
    return 0


def _grid(text: str) -> tuple:
    """Space- or comma-separated ints and floats."""
    return tuple(float(t) if "." in t or "e" in t else int(t)
                 for t in text.replace(",", " ").split())


def _one_int(text: str) -> tuple:
    return (int(text),)


class _Eta1(argparse.Action):
    """--eta1 sets the noise set's eta1 and a one-element eta1_values grid."""

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.eta1, namespace.eta1_values = value, (value,)


def _add_experiment_flags(p: argparse.ArgumentParser, kind: str) -> None:
    """One flag per ExperimentConfig field but the noise set, which has its own,
    and of the noise flags only those that ``kind`` reads, so the others are
    unrecognized arguments: --eta1 sets both noise fields, so a kind that
    reads either takes it and --eta1-values."""
    reads = harness.KINDS[kind].noise_fields
    for field in dataclasses.fields(harness.ExperimentConfig):
        if field.name in ("kind", "noise") or (field.name == "eta1_values" and not reads):
            continue
        if "tuple" in str(field.type):
            cast = _grid
        else:
            cast = str if field.default is None else type(field.default)
        names = dict.fromkeys([f"--{field.name.replace('_', '-')}", f"--{field.name}"])
        required = field.name == "out"
        p.add_argument(*names, dest=field.name, type=cast, required=required,
                       help=None if required else f"default: {field.default}")
    p.add_argument("--r", dest="ranks", type=_one_int, help="one-element ranks")
    p.add_argument("--L", dest="Ls", type=_one_int, help="one-element Ls")
    if reads:
        p.add_argument("--eta1", type=float, action=_Eta1,
                       help="noise eta1 and one-element eta1_values")
    if "noise" in reads:
        p.add_argument("--eta2", type=float)
        p.add_argument("--noise-kind", "--noise_kind", dest="noise_kind")
    p.add_argument("--config", help="key = value lines, read as leading --key=value flags")


def _experiment_cfg(args) -> harness.ExperimentConfig:
    """The ExperimentConfig of the values given; its own defaults fill the rest."""
    given = vars(args)
    names = {field.name for field in dataclasses.fields(harness.ExperimentConfig)}
    cfg = harness.ExperimentConfig(**{k: v for k, v in given.items() if k in names})
    noise = NoiseSpec(kind=given.get("noise_kind", cfg.noise.kind), q=cfg.q,
                      eta1=given.get("eta1"), eta2=given.get("eta2"))
    # only the lq constraint reads q; a set without it keeps q unset
    return dataclasses.replace(cfg, noise=noise if noise.has_lq
                               else dataclasses.replace(noise, q=None))


def _cmd_experiment(args) -> int:
    harness.run_experiment(_experiment_cfg(args))
    return 0


class _UsageError(Exception):
    """A command-line error; ``parse_args`` prints it on one line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# Subcommand names; the experiment subcommands are the KINDS spelt with "-".
_COMMANDS = ("sample", "measure", "recover", "certify",
             *(kind.replace("_", "-") for kind in harness.KINDS))


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The roprec parser; given a subcommand's name, with that subparser alone.

    A subparser's help and errors do not depend on its siblings, and each
    ``add_argument`` costs a help formatter, so one invocation builds only
    what it parses.
    """
    parser = _Parser(prog="roprec", description="Low-rank recovery from rank-one projections")
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = _COMMANDS if command is None else (command,)

    if "sample" in wanted:
        p = sub.add_parser("sample", help="draw a Gaussian ROP ensemble")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--L", type=int, required=True)
        p.add_argument("--symmetric", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_sample)

    if "measure" in wanted:
        p = sub.add_parser("measure", help="apply an ensemble to a matrix, plus noise")
        p.add_argument("--ensemble", required=True)
        p.add_argument("--matrix", required=True)
        p.add_argument("--noise-kind", default="none",
                       choices=measure.NOISE_KINDS)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--eta1", type=float, default=None)
        p.add_argument("--eta2", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_measure)

    if "recover" in wanted:
        p = sub.add_parser("recover", help="solve a recovery program")
        p.add_argument("--ensemble", required=True)
        p.add_argument("--measurements", required=True)
        p.add_argument("--method", default="schatten-p", choices=harness.METHODS)
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

    if "certify" in wanted:
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

    for kind in harness.KINDS:
        name = kind.replace("_", "-")
        if name not in wanted:
            continue
        p = sub.add_parser(name, help=f"run a {name} experiment", allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        _add_experiment_flags(p, kind)
        p.set_defaults(func=_cmd_experiment, kind=kind)

    return parser


def _parse(argv: list):
    """(namespace, None) when argv parses, else (None, argparse's message)."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        return build_parser(command).parse_args(argv), None
    except _UsageError as exc:
        return None, str(exc)


def parse_args(argv=None) -> argparse.Namespace:
    """Parse argv; --config FILE's lines go in as leading --key=value flags.

    A bad command line exits 2 with one ``error:`` line, which names the
    config file when the flags from the file are at fault.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    config = _Parser(add_help=False, allow_abbrev=False)
    config.add_argument("--config")
    try:
        path = config.parse_known_args(argv)[0].config
    except _UsageError as exc:
        path, error = None, str(exc)
    else:
        config_lines = fileio.read_config(path).items() if path else ()
        from_file = [f"--{key}={value}" for key, value in config_lines]
        args, error = _parse(argv[:1] + from_file + argv[1:])
        if error is None:
            return args
        if from_file and _parse(argv)[1] != error:
            error = f"{path}: {error}"
    print(f"error: {error}", file=sys.stderr)
    raise SystemExit(2)


# A solve or size roprec cannot handle; the line starts with the class name.
_SOLVE_FAILURES = (solvers.SolverError, measure.ResourceError, linalg.SvdError,
                   certify.ConditionViolated)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (fileio.ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _SOLVE_FAILURES as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
