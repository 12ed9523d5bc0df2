"""Batch experiment driver: phase transitions, bound checks, robustness studies.

Every trial is an isolated pure computation keyed by a seed derived from
(master seed, cell index, trial index) with a splitmix64-style mixer, so
sweeps are deterministic, trials are exchangeable under reordering, and
each CSV row carries the seed needed to replay that single trial.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from . import certify, fileio, measure, solvers
from .linalg import schatten_norm
from .measure import NoiseSpec, apply_map, explicit_operator, sample_gaussian_rop
from .solvers import SolverConfig

_STREAM_TRUTH = 11
_STREAM_CORRUPT = 13


def derive_seed(master: int, *indices: int) -> int:
    """Deterministic 63-bit seed from a master seed and index tuple."""
    state = master & (2**64 - 1)
    for idx in indices:
        state = (state + 0x9E3779B97F4A7C15 + idx) & (2**64 - 1)
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        state = z ^ (z >> 31)
    return state >> 1


def plant_truth(m: int, n: int, r: int, seed: int, norm: str = "s2",
                p: float = 1.0) -> np.ndarray:
    """Rank-r Gaussian-factor truth, normalized to the requested unit norm."""
    rng = measure._substream(seed, _STREAM_TRUTH, 0)
    X = rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T
    if norm == "s2":
        return X / np.linalg.norm(X)
    if norm == "sp":
        return X / schatten_norm(X, p)
    raise ValueError(f"unknown normalization {norm!r}")


@dataclasses.dataclass
class ExperimentConfig:
    kind: str  # phase_transition | bound_check | lad_robustness | phaselift_demo
    m: int = 16
    n: int = 16
    ranks: tuple = (1,)
    ratios: tuple = (1, 2, 3, 4, 5, 6)  # L = ratio * r * (m + n)
    Ls: tuple | None = None  # overrides ratios when set
    trials: int = 25
    threshold: float = 1e-3
    method: str = "nuclear"  # nuclear | schatten-p | least-q | phaselift
    p: float = 1.0
    q: float = 1.0
    noise: NoiseSpec = dataclasses.field(default_factory=lambda: NoiseSpec(kind="none"))
    eta1_values: tuple = ()
    rub_trials: int = 200
    k: float = 10.0
    corrupt_fraction: float = 0.05
    corrupt_scale: float = 10.0
    seed: int = 0
    max_iterations: int = 600
    out: str | None = None

    def __post_init__(self):
        if self.kind not in ("phase_transition", "bound_check", "lad_robustness",
                             "phaselift_demo"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1 or not self.ranks or not (self.ratios or self.Ls):
            raise ValueError("grids must be nonempty and trials >= 1")


@dataclasses.dataclass
class CellResult:
    cell: tuple
    successes: int
    trials: int
    mean_error: float
    median_error: float
    mean_iterations: float
    wall_time: float
    first_trial_seed: int


def _cell_Ls(cfg: ExperimentConfig, r: int) -> list[int]:
    if cfg.Ls is not None:
        return [int(L) for L in cfg.Ls]
    return [int(ratio * r * (cfg.m + cfg.n)) for ratio in cfg.ratios]


def _solver_cfg(cfg: ExperimentConfig, seed: int) -> SolverConfig:
    return SolverConfig(p=cfg.p, q=cfg.q, seed=seed,
                        max_iterations=cfg.max_iterations)


def _recover(cfg: ExperimentConfig, ens, b, seed: int):
    scfg = _solver_cfg(cfg, seed)
    if cfg.method == "nuclear":
        return solvers.nuclear_norm_baseline(ens, b, cfg.noise, scfg)
    if cfg.method == "schatten-p":
        return solvers.schatten_p_minimize(ens, b, cfg.noise, scfg)
    if cfg.method == "least-q":
        return solvers.least_q_minimize(ens, b, scfg)
    if cfg.method == "phaselift":
        return solvers.phaselift_lad(ens, b, scfg)
    raise ValueError(f"unknown method {cfg.method!r}")


def run_phase_transition(cfg: ExperimentConfig) -> list[CellResult]:
    """Success-rate sweep over the (rank, L) grid with planted truths."""
    results = []
    norm = "sp" if cfg.method == "least-q" else "s2"
    for ci, r in enumerate(cfg.ranks):
        for li, L in enumerate(_cell_Ls(cfg, r)):
            t0 = time.perf_counter()
            errors, iters, successes = [], [], 0
            first_seed = derive_seed(cfg.seed, ci, li, 0)
            for t in range(cfg.trials):
                seed = derive_seed(cfg.seed, ci, li, t)
                X0 = plant_truth(cfg.m, cfg.n, r, seed, norm=norm, p=cfg.p)
                if L < 1:
                    errors.append(1.0)
                    iters.append(0)
                    continue
                ens = sample_gaussian_rop(cfg.m, cfg.n, L, symmetric=False, seed=seed)
                b = apply_map(ens, X0) + measure.generate_noise(cfg.noise, ens, seed)
                try:
                    report = _recover(cfg, ens, b, seed)
                    err = np.linalg.norm(report.estimate - X0) / np.linalg.norm(X0)
                    iters.append(report.iterations_used)
                except solvers.SolverError:
                    err = np.inf
                    iters.append(cfg.max_iterations)
                errors.append(err)
                if err <= cfg.threshold:
                    successes += 1
            errors = np.asarray(errors)
            results.append(CellResult(
                cell=(cfg.m, cfg.n, r, L), successes=successes, trials=cfg.trials,
                mean_error=float(np.mean(np.minimum(errors, 1e6))),
                median_error=float(np.median(errors)),
                mean_iterations=float(np.mean(iters)) if iters else 0.0,
                wall_time=time.perf_counter() - t0, first_trial_seed=first_seed))
    return results


def phase_transition_rows(results: list[CellResult]):
    header = ["m", "n", "r", "L", "successes", "trials", "success_rate",
              "mean_error", "median_error", "mean_iterations", "trial_seed"]
    rows = [[c.cell[0], c.cell[1], c.cell[2], c.cell[3], c.successes, c.trials,
             float(c.successes / c.trials), c.mean_error, c.median_error,
             c.mean_iterations, c.first_trial_seed] for c in results]
    return header, rows


def run_bound_check(cfg: ExperimentConfig):
    """Compare observed recovery error against the theoretical bound per trial.

    RUB constants are estimated on each drawn ensemble (inner estimates,
    so the resulting certificates are optimistic); trials whose condition
    check fails are recorded as not certified and excluded from the
    violation statistic.
    """
    if not cfg.eta1_values:
        raise ValueError("bound_check requires an eta1 sweep")
    r = cfg.ranks[0]
    L = _cell_Ls(cfg, r)[0]
    order = int(round((cfg.k + 1) * r))
    rows = []
    for ei, eta1 in enumerate(cfg.eta1_values):
        for t in range(cfg.trials):
            seed = derive_seed(cfg.seed, ei, t)
            ens = sample_gaussian_rop(cfg.m, cfg.n, L, symmetric=False, seed=seed)
            est = certify.estimate_rub(ens, order, cfg.q, cfg.rub_trials, seed=seed)
            certified = certify.check_exact_condition(
                est.C1_hat, est.C2_hat, cfg.k, cfg.p, cfg.q)
            X0 = plant_truth(cfg.m, cfg.n, r, seed, norm="s2")
            noise_spec = NoiseSpec(kind="lq_bounded", q=cfg.q, eta1=float(eta1))
            z = measure.generate_noise(noise_spec, ens, seed)
            b = apply_map(ens, X0) + z
            scfg = _solver_cfg(cfg, seed)
            report = solvers.schatten_p_minimize(ens, b, noise_spec, scfg)
            observed = float(np.linalg.norm(report.estimate - X0) ** cfg.q)
            if certified:
                bound = certify.stability_bound_schatten(
                    est.C1_hat, est.C2_hat, cfg.k, cfg.p, cfg.q, L, r,
                    ("lq", float(eta1)), tail_norm=0.0)
                violated = observed > bound
            else:
                bound = float("nan")
                violated = False
            rows.append([float(eta1), t, int(certified), est.C1_hat, est.C2_hat,
                         observed, bound, int(violated), seed])
    header = ["eta1", "trial", "certified", "C1_hat", "C2_hat",
              "observed_error_q", "bound", "violated", "trial_seed"]
    return header, rows


def bound_check_violation_rate(rows) -> tuple[int, int]:
    """(violations, certified trials) from bound-check rows."""
    certified = [row for row in rows if row[2] == 1]
    return sum(row[7] for row in certified), len(certified)


def _corrupt(b: np.ndarray, fraction: float, scale: float, seed: int) -> np.ndarray:
    rng = measure._substream(seed, _STREAM_CORRUPT, 0)
    b = b.copy()
    count = int(round(fraction * b.size))
    if count == 0:
        return b
    idx = rng.choice(b.size, size=count, replace=False)
    magnitude = scale * np.max(np.abs(b))
    b[idx] += magnitude * rng.choice([-1.0, 1.0], size=count)
    return b


def run_lad_robustness(cfg: ExperimentConfig):
    """LAD (least-q, q=1) versus least-squares under sparse gross corruption."""
    r = cfg.ranks[0]
    L = _cell_Ls(cfg, r)[0]
    rows = []
    for t in range(cfg.trials):
        seed = derive_seed(cfg.seed, 0, t)
        X0 = plant_truth(cfg.m, cfg.n, r, seed, norm="sp", p=cfg.p)
        ens = sample_gaussian_rop(cfg.m, cfg.n, L, symmetric=False, seed=seed)
        b = _corrupt(apply_map(ens, X0), cfg.corrupt_fraction, cfg.corrupt_scale, seed)
        scfg = _solver_cfg(cfg, seed)
        lad = solvers.least_q_minimize(ens, b, scfg)
        err_lad = float(np.linalg.norm(lad.estimate - X0) / np.linalg.norm(X0))
        M = explicit_operator(ens)
        xls, *_ = np.linalg.lstsq(M, b, rcond=None)
        err_ls = float(np.linalg.norm(xls.reshape(cfg.m, cfg.n) - X0) / np.linalg.norm(X0))
        rows.append([t, cfg.corrupt_fraction, cfg.corrupt_scale, err_lad, err_ls, seed])
    header = ["trial", "corrupt_fraction", "corrupt_scale", "lad_error",
              "lsq_error", "trial_seed"]
    return header, rows


def run_phaselift_demo(cfg: ExperimentConfig):
    """Symmetric rank-one recovery: leading-eigenvector cosine per trial."""
    m = cfg.m
    L = cfg.Ls[0] if cfg.Ls else 10 * m
    rows = []
    for t in range(cfg.trials):
        seed = derive_seed(cfg.seed, 0, t)
        rng = measure._substream(seed, _STREAM_TRUTH, 1)
        x = rng.standard_normal(m)
        x /= np.linalg.norm(x)
        X0 = np.outer(x, x)
        ens = sample_gaussian_rop(m, m, L, symmetric=True, seed=seed)
        b = apply_map(ens, X0)
        if cfg.corrupt_fraction > 0:
            b = _corrupt(b, cfg.corrupt_fraction, cfg.corrupt_scale, seed)
        scfg = _solver_cfg(cfg, seed)
        report = solvers.phaselift_lad(ens, b, scfg)
        w, Q = np.linalg.eigh(report.estimate)
        cosine = float(abs(Q[:, -1] @ x))
        err = float(np.linalg.norm(report.estimate - X0))
        rows.append([t, L, cosine, err, int(report.converged), seed])
    header = ["trial", "L", "leading_eig_cosine", "frobenius_error",
              "converged", "trial_seed"]
    return header, rows


def run_experiment(cfg: ExperimentConfig):
    """Dispatch on kind; writes CSV when cfg.out is set; returns (header, rows)."""
    if cfg.kind == "phase_transition":
        header, rows = phase_transition_rows(run_phase_transition(cfg))
    elif cfg.kind == "bound_check":
        header, rows = run_bound_check(cfg)
    elif cfg.kind == "lad_robustness":
        header, rows = run_lad_robustness(cfg)
    else:
        header, rows = run_phaselift_demo(cfg)
    if cfg.out:
        fileio.write_csv(cfg.out, header, rows)
    return header, rows
