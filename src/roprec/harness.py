"""Batch experiment driver: phase transitions, bound checks, robustness studies.

Every trial is an isolated pure computation keyed by a seed derived from
(master seed, cell index, trial index) with a splitmix64-style mixer, so
sweeps are deterministic, trials are exchangeable under reordering, and
each CSV row carries the seed needed to replay that single trial.

``KINDS`` gives each experiment kind its CSV header, its cells (each with
the index tuple that keys its trial seeds), a pure ``trial(cfg, cell, t,
seed) -> row``, for the phase transition a reduction of a cell's trials
to one row, and the noise fields its trials read; ``run_experiment`` is
the one loop over them.  Kinds whose rows carry neither r nor L run one
(r, L) cell and reject a wider grid.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

from . import certify, fileio, measure, solvers
from .linalg import schatten_norm
from .measure import NoiseSpec, apply_map, sample_gaussian_rop
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
    kind: str  # a key of KINDS
    m: int = 16
    n: int = 16
    ranks: tuple = (1,)
    ratios: tuple = (1, 2, 3, 4, 5, 6)  # L = ratio * r * (m + n)
    Ls: tuple | None = None  # overrides ratios when set
    trials: int = 25
    threshold: float = 1e-3
    method: str = "nuclear"  # one of METHODS
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
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1 or not self.ranks or not (self.ratios or self.Ls):
            raise ValueError("grids must be nonempty and trials >= 1")


def _Ls(cfg: ExperimentConfig, r: int) -> list[int]:
    if cfg.Ls is not None:
        return [int(L) for L in cfg.Ls]
    return [int(ratio * r * (cfg.m + cfg.n)) for ratio in cfg.ratios]


def _one_cell(cfg: ExperimentConfig, Ls: list[int]) -> tuple[int, int]:
    """The (r, L) of a kind whose rows carry neither; a wider grid is a ValueError."""
    for flag, grid, use in (("--ranks", cfg.ranks, "--r"),
                            ("--Ls" if cfg.Ls is not None else "--ratios", Ls, "--L")):
        if len(grid) != 1:
            raise ValueError(f"{cfg.kind.replace('_', '-')} runs one (r, L) cell, but {flag} "
                             f"gives {len(grid)} values; use {use}")
    return cfg.ranks[0], Ls[0]


def _solver_cfg(cfg: ExperimentConfig, seed: int) -> SolverConfig:
    return SolverConfig(p=cfg.p, q=cfg.q, seed=seed,
                        max_iterations=cfg.max_iterations)


METHODS = ("schatten-p", "least-q", "phaselift", "nuclear")


def recover(method: str, ens, b, noise: NoiseSpec, scfg: SolverConfig):
    """Recover from ``b`` by ``method``; least-q and PhaseLift ignore ``noise``."""
    if method == "nuclear":
        return solvers.nuclear_norm_baseline(ens, b, noise, scfg)
    if method == "schatten-p":
        return solvers.schatten_p_minimize(ens, b, noise, scfg)
    if method == "least-q":
        return solvers.least_q_minimize(ens, b, scfg)
    if method == "phaselift":
        return solvers.phaselift_lad(ens, b, scfg)
    raise ValueError(f"unknown method {method!r}")


def _relative_error(X: np.ndarray, X0: np.ndarray) -> float:
    return float(np.linalg.norm(X - X0) / np.linalg.norm(X0))


def _phase_transition_trial(cfg: ExperimentConfig, cell, t: int, seed: int):
    """(relative error, iterations, seed) of one planted recovery; L < 1 fails."""
    r, L = cell
    if L < 1:
        return 1.0, 0, seed
    X0 = plant_truth(cfg.m, cfg.n, r, seed, norm="sp" if cfg.method == "least-q" else "s2",
                     p=cfg.p)
    ens = sample_gaussian_rop(cfg.m, cfg.n, L, symmetric=False, seed=seed)
    b = apply_map(ens, X0) + measure.generate_noise(cfg.noise, ens, seed)
    try:
        report = recover(cfg.method, ens, b, cfg.noise, _solver_cfg(cfg, seed))
    except solvers.SolverError:
        return np.inf, cfg.max_iterations, seed
    return _relative_error(report.estimate, X0), report.iterations_used, seed


def _phase_transition_row(cfg: ExperimentConfig, cell, trials: list) -> list:
    """One row per (r, L) cell: success counts and error statistics of its trials."""
    errors = np.array([err for err, _, _ in trials])
    successes = int(np.sum(errors <= cfg.threshold))
    return [cfg.m, cfg.n, *cell, successes, cfg.trials, successes / cfg.trials,
            float(np.mean(np.minimum(errors, 1e6))), float(np.median(errors)),
            float(np.mean([iters for _, iters, _ in trials])), trials[0][2]]


def _bound_check_cells(cfg: ExperimentConfig):
    if not cfg.eta1_values:
        raise ValueError("the bound check needs an eta1 sweep: set --eta1 or --eta1-values")
    r, L = _one_cell(cfg, _Ls(cfg, cfg.ranks[0]))
    certify.rub_order(cfg.k, r)  # a bad k fails here, before any trial runs
    return [((ei,), (r, L, float(eta1))) for ei, eta1 in enumerate(cfg.eta1_values)]


def _bound_check_trial(cfg: ExperimentConfig, cell, t: int, seed: int) -> list:
    """Observed recovery error against the theoretical bound on one draw.

    The bound uses RUB constants estimated on the draw (inner estimates, so
    optimistic); a trial failing the condition check is not certified.
    """
    r, L, eta1 = cell
    ens = sample_gaussian_rop(cfg.m, cfg.n, L, symmetric=False, seed=seed)
    est = certify.estimate_rub(ens, certify.rub_order(cfg.k, r), cfg.q, cfg.rub_trials,
                               seed=seed)
    certified = certify.check_exact_condition(est.C1_hat, est.C2_hat, cfg.k, cfg.p, cfg.q)
    X0 = plant_truth(cfg.m, cfg.n, r, seed, norm="s2")
    noise_spec = NoiseSpec(kind="lq_bounded", q=cfg.q, eta1=eta1)
    b = apply_map(ens, X0) + measure.generate_noise(noise_spec, ens, seed)
    report = solvers.schatten_p_minimize(ens, b, noise_spec, _solver_cfg(cfg, seed))
    observed = float(np.linalg.norm(report.estimate - X0) ** cfg.q)
    bound = float("nan")
    if certified:
        bound = certify.stability_bound_schatten(
            est.C1_hat, est.C2_hat, cfg.k, cfg.p, cfg.q, L, r, noise_spec, tail_norm=0.0)
    return [eta1, t, int(certified), est.C1_hat, est.C2_hat, observed, bound,
            int(certified and observed > bound), seed]


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


def _lad_trial(cfg: ExperimentConfig, cell, t: int, seed: int) -> list:
    """LAD (least-q at p = q = 1) versus least squares under sparse gross
    corruption.  LAD runs ADMM over the unit nuclear ball, so it reaches the
    truth whenever that is the ball's minimum (see solvers.least_q_minimize)."""
    r, L = cell
    X0 = plant_truth(cfg.m, cfg.n, r, seed, norm="sp", p=cfg.p)
    ens = sample_gaussian_rop(cfg.m, cfg.n, L, symmetric=False, seed=seed)
    b = _corrupt(apply_map(ens, X0), cfg.corrupt_fraction, cfg.corrupt_scale, seed)
    lad = solvers.least_q_minimize(ens, b, _solver_cfg(cfg, seed))
    return [t, cfg.corrupt_fraction, cfg.corrupt_scale, _relative_error(lad.estimate, X0),
            _relative_error(solvers.least_squares(ens, b), X0), seed]


def _phaselift_cells(cfg: ExperimentConfig):
    r, L = _one_cell(cfg, _Ls(cfg, 1) if cfg.Ls else [10 * cfg.m])
    if r != 1:
        raise ValueError(f"the PhaseLift demo recovers rank 1, but --ranks gives {r}; use --r 1")
    return [((0,), L)]


def _phaselift_trial(cfg: ExperimentConfig, L: int, t: int, seed: int) -> list:
    """Symmetric rank-one recovery: the leading eigenvector's cosine with the truth."""
    rng = measure._substream(seed, _STREAM_TRUTH, 1)
    x = rng.standard_normal(cfg.m)
    x /= np.linalg.norm(x)
    X0 = np.outer(x, x)
    ens = sample_gaussian_rop(cfg.m, cfg.m, L, symmetric=True, seed=seed)
    b = _corrupt(apply_map(ens, X0), cfg.corrupt_fraction, cfg.corrupt_scale, seed)
    report = solvers.phaselift_lad(ens, b, _solver_cfg(cfg, seed))
    cosine = float(abs(np.linalg.eigh(report.estimate)[1][:, -1] @ x))
    return [t, L, cosine, float(np.linalg.norm(report.estimate - X0)),
            int(report.converged), seed]


@dataclasses.dataclass(frozen=True)
class _Kind:
    header: tuple
    cells: Callable  # cfg -> [(index tuple, cell)]; the index keys the trial seeds
    trial: Callable  # (cfg, cell, t, seed) -> row
    reduce: Callable | None = None  # (cfg, cell, trial rows) -> the cell's one row
    # the noise fields of ExperimentConfig its trials read: "noise" (the set
    # the noise is drawn onto and solved over) and "eta1_values" (a sweep)
    noise_fields: tuple = ()


KINDS = {
    "phase_transition": _Kind(
        ("m", "n", "r", "L", "successes", "trials", "success_rate", "mean_error",
         "median_error", "mean_iterations", "trial_seed"),
        lambda cfg: [((ci, li), (r, L)) for ci, r in enumerate(cfg.ranks)
                     for li, L in enumerate(_Ls(cfg, r))],
        _phase_transition_trial, _phase_transition_row, noise_fields=("noise",)),
    "bound_check": _Kind(
        ("eta1", "trial", "certified", "C1_hat", "C2_hat", "observed_error_q", "bound",
         "violated", "trial_seed"),
        _bound_check_cells, _bound_check_trial, noise_fields=("eta1_values",)),
    "lad_robustness": _Kind(
        ("trial", "corrupt_fraction", "corrupt_scale", "lad_error", "lsq_error",
         "trial_seed"),
        lambda cfg: [((0,), _one_cell(cfg, _Ls(cfg, cfg.ranks[0])))], _lad_trial),
    "phaselift_demo": _Kind(
        ("trial", "L", "leading_eig_cosine", "frobenius_error", "converged", "trial_seed"),
        _phaselift_cells, _phaselift_trial),
}


def run_experiment(cfg: ExperimentConfig):
    """Run every trial of every cell; writes CSV when cfg.out is set; returns (header, rows).

    Trial t of the cell with index tuple ``index`` runs on
    ``derive_seed(cfg.seed, *index, t)``.
    """
    kind = KINDS[cfg.kind]
    rows = []
    for index, cell in kind.cells(cfg):
        trials = [kind.trial(cfg, cell, t, derive_seed(cfg.seed, *index, t))
                  for t in range(cfg.trials)]
        rows += [kind.reduce(cfg, cell, trials)] if kind.reduce else trials
    header = list(kind.header)
    if cfg.out:
        fileio.write_csv(cfg.out, header, rows)
    return header, rows
