"""Solvers for the recovery programs.

The programs themselves come with no prescribed algorithms, so this
module owns the algorithmic choices:

* equality-constrained Schatten-p minimization: matrix IRLS with weight
  (X X^T + eps I)^{p/2-1} and geometric smoothing decay, the weighted
  least-squares subproblem solved through the measurement Gram matrix;
* noisy constraint sets (the lq-bounded / Dantzig / intersection kinds
  of ``measure.NoiseSpec``, the same set the noise is drawn onto): ADMM
  with the Schatten-p proximal applied singular-value-wise and each
  constraint a residual block handled by projection, plus a final
  minimum-norm correction so the returned iterate is feasible;
* least-q on the Schatten-p sphere: smoothed gradient descent with
  backtracking and a radial retraction after every step;
* PhaseLift LAD: the same ADMM, with the spectahedron projection as the
  Z step and an l1 soft threshold as its one residual block.

Every operator is a ``measure.RopEnsemble``; PhaseLift's debiased map is
the difference of two half-ensembles.  Both ADMM programs run one loop,
``_admm``, on the explicit vectorized operator: an x-update through a
single Cholesky factor, then one proximal step for Z and one per residual
block (Boyd et al. 2011).

Nonconvexity is handled by seeded restarts; reports keep every
per-restart objective trace and distinguish "converged" from any claim
of global optimality (which holds only for the convex p = q = 1 cases).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

from . import measure
from .linalg import (_single_blas_thread, schatten_norm, simplex_project,
                     spectahedron_project, svd)
from .measure import NoiseSpec, RopEnsemble, apply_map, adjoint_map, explicit_operator

_STREAM_SOLVER = 7

# Relative-change stopping tolerance, smoothing start, per-level decay and
# floor, restarts for nonconvex programs, grid size of the scalar prox
# fallback, ADMM penalty, and the slack allowed when a result is checked
# against its set.
_TOLERANCE = 1e-7
_SMOOTHING_INITIAL = 1e-1
_SMOOTHING_DECAY = 0.7
_SMOOTHING_FLOOR = 1e-10
_RESTARTS = 3
_PROX_GRID_POINTS = 4096
_ADMM_RHO = 1.0
_FEASIBILITY_TOL = 1e-6


@dataclasses.dataclass
class SolverConfig:
    p: float = 1.0
    q: float = 1.0
    max_iterations: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.p <= 1) or not (0 < self.q <= 1):
            raise ValueError("p and q must lie in (0, 1]")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclasses.dataclass
class RecoveryReport:
    estimate: np.ndarray
    iterations_used: int
    final_objective: float
    constraint_slack: dict
    converged: bool
    objective_traces: list  # one trace per restart
    method: str = ""
    globally_optimal: bool = False  # only claimed for the convex p=q=1 programs


class SolverError(RuntimeError):
    """Explicit non-convergence / infeasibility failure."""


# ---------------------------------------------------------------------------
# Scalar Schatten-p proximal machinery.


def prox_power_scalar(s: float, lam: float, p: float) -> float:
    """argmin_z lam*|z|^p + (z - s)^2 / 2 for 0 < p <= 1.

    p = 1 is the soft threshold.  For p < 1 the nonzero candidate solves
    z - |s| + lam*p*z^(p-1) = 0 by safeguarded Newton started at |s|,
    with a grid fallback, and is compared against z = 0.
    """
    if lam < 0 or not (0 < p <= 1):
        raise ValueError("need lam >= 0 and p in (0, 1]")
    if lam == 0:
        return s
    sign, a = (1.0, s) if s >= 0 else (-1.0, -s)
    if p == 1.0:
        return sign * max(a - lam, 0.0)
    if a == 0.0:
        return 0.0
    # Below this threshold on |s| the only minimizer is 0.
    zbar = (lam * p * (1.0 - p)) ** (1.0 / (2.0 - p))
    thresh = zbar + lam * p * zbar ** (p - 1.0)
    if a <= thresh:
        return 0.0
    z = a
    ok = False
    for _ in range(100):
        g = z - a + lam * p * z ** (p - 1.0)
        dg = 1.0 + lam * p * (p - 1.0) * z ** (p - 2.0)
        step = g / dg
        z_new = z - step
        if not (zbar < z_new <= a):
            z_new = 0.5 * (z + max(zbar, min(z - 0.5 * step, a)))
        if abs(z_new - z) <= 1e-14 * max(1.0, z):
            z = z_new
            ok = True
            break
        z = z_new
    if not ok or not (zbar < z <= a):
        grid = np.linspace(zbar, a, _PROX_GRID_POINTS)
        vals = lam * grid**p + 0.5 * (grid - a) ** 2
        z = float(grid[np.argmin(vals)])
    if lam * z**p + 0.5 * (z - a) ** 2 >= 0.5 * a * a:
        return 0.0
    return sign * z


def prox_schatten_p(X: np.ndarray, lam: float, p: float) -> np.ndarray:
    """Matrix proximal of lam*||.||_{S_p}^p: shrink each singular value."""
    dec = svd(X)
    shrunk = np.array([prox_power_scalar(s, lam, p) for s in dec.sigma])
    return (dec.U * shrunk) @ dec.V.T


# ---------------------------------------------------------------------------
# Residual-set projections for the ADMM constraint blocks.


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    w = simplex_project(a / radius) * radius
    return np.sign(v) * w


def project_lq_ball(v: np.ndarray, radius: float, q: float) -> np.ndarray:
    """Per-coordinate surrogate projection onto {||v||_q <= radius}.

    Exact for q = 1.  For q < 1 the ball is nonconvex; the returned point
    solves the coordinate-wise prox of lam*|.|^q with lam bisected until
    the constraint is met from inside.
    """
    if q == 1.0:
        return project_l1_ball(v, radius)
    target = radius**q
    if np.sum(np.abs(v) ** q) <= target or radius == 0.0:
        return v.copy() if radius > 0 else np.zeros_like(v)

    def shrink(lam):
        return np.array([prox_power_scalar(x, lam, q) for x in v])

    lo, hi = 0.0, 1.0
    while np.sum(np.abs(shrink(hi)) ** q) > target:
        hi *= 2.0
        if hi > 1e16:
            return np.zeros_like(v)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.sum(np.abs(shrink(mid)) ** q) > target:
            lo = mid
        else:
            hi = mid
    return shrink(hi)


def project_spectral_ball(Y: np.ndarray, radius: float) -> np.ndarray:
    """Clip singular values at ``radius`` (projection onto the S_inf ball)."""
    dec = svd(Y)
    return (dec.U * np.minimum(dec.sigma, radius)) @ dec.V.T


# ---------------------------------------------------------------------------
# Equality-constrained Schatten-p minimization: matrix IRLS.


def _wls_solver(op: RopEnsemble):
    """Returns solve(W_inv, b) minimizing tr(X^T W X) subject to A(X) = b.

    The minimizer is X = W^{-1} A*(lambda) with the Gram system
    G lambda = b, G_ij = <A_i, W^{-1} A_j>.  For rank-one ensembles the
    Gram is a Hadamard product of two L x L Grams.
    """
    gram_gamma = op.gammas @ op.gammas.T

    def solve(W_inv, b):
        BW = op.betas @ W_inv
        G = (BW @ op.betas.T) * gram_gamma
        lam = _solve_psd(G, b)
        return BW.T @ (lam[:, None] * op.gammas)

    return solve


def _solve_psd(G, b):
    try:
        c, low = scipy.linalg.cho_factor(G, check_finite=False)
        lam = scipy.linalg.cho_solve((c, low), b, check_finite=False)
        if np.linalg.norm(G @ lam - b) <= 1e-8 * max(1.0, np.linalg.norm(b)):
            return lam
    except scipy.linalg.LinAlgError:
        pass
    lam, *_ = np.linalg.lstsq(G, b, rcond=None)
    return lam


def _smoothed_schatten(X, eps, p):
    """tr((X X^T + eps I)^{p/2}), the IRLS surrogate objective."""
    w = np.clip(np.linalg.eigvalsh(X @ X.T), 0.0, None)
    return float(np.sum((w + eps) ** (p / 2.0)))


def _irls_equality(op, b, p, cfg: SolverConfig, X0=None):
    solve = _wls_solver(op)
    if X0 is None:
        X = solve(np.eye(op.m), b)  # minimum-Frobenius feasible point
    else:
        X = np.asarray(X0, dtype=float)
    eps = _SMOOTHING_INITIAL
    trace = []
    iters = 0
    converged = False
    for it in range(cfg.max_iterations):
        iters = it + 1
        w, Q = np.linalg.eigh(X @ X.T)
        w = np.clip(w, 0.0, None)
        W_inv = (Q * (w + eps) ** (1.0 - p / 2.0)) @ Q.T
        X_new = solve(W_inv, b)
        trace.append(_smoothed_schatten(X_new, eps, p))
        change = np.linalg.norm(X_new - X) / max(1.0, np.linalg.norm(X))
        X = X_new
        eps = max(eps * _SMOOTHING_DECAY, _SMOOTHING_FLOOR)
        if change <= _TOLERANCE and eps <= max(_SMOOTHING_FLOOR, 1e-9) * 1.001:
            converged = True
            break
    return X, trace, iters, converged


# ---------------------------------------------------------------------------
# ADMM on the explicit vectorized operator.


def _admm(X0, prox_z, blocks, objective, cfg: SolverConfig):
    """Scaled-form ADMM splitting the variable x into Z and residual blocks.

    ``prox_z`` maps the matrix x + u to the next Z.  Each block
    (K, Kt, c, prox) enforces c - K x in a set (or penalizes it): ``prox``
    maps c - K x + v to the block variable w, and Kt is the adjoint of K,
    passed in so that a symmetric K multiplies as itself.  The x-update
    solves (I + sum Kt K) x = (Z - u) + sum Kt (c - w + v) with one
    Cholesky factor.  Returns (Z, objective trace, iterations, converged).
    """
    x = X0.ravel()
    H = np.eye(x.size)
    for K, Kt, _, _ in blocks:
        H += Kt @ K
    chol = scipy.linalg.cho_factor(H, check_finite=False)

    Z = X0
    u = np.zeros(x.size)
    ws = [c - K @ x for K, _, c, _ in blocks]
    vs = [np.zeros(c.size) for _, _, c, _ in blocks]
    trace = []
    iters = 0
    converged = False
    for it in range(cfg.max_iterations):
        iters = it + 1
        rhs = Z.ravel() - u
        for (_, Kt, c, _), w, v in zip(blocks, ws, vs):
            rhs = rhs + Kt @ (c - w + v)
        x = scipy.linalg.cho_solve(chol, rhs, check_finite=False)
        Z_prev = Z
        Z = prox_z((x + u).reshape(X0.shape))
        for k, (K, _, c, prox) in enumerate(blocks):
            Kx = K @ x
            ws[k] = prox(c - Kx + vs[k])
            vs[k] += c - Kx - ws[k]
        u += x - Z.ravel()
        trace.append(objective(Z))
        prim = np.linalg.norm(x - Z.ravel())
        dual = np.linalg.norm(Z - Z_prev)
        scale = max(1.0, np.linalg.norm(x))
        if prim <= _TOLERANCE * scale and dual <= _TOLERANCE * scale and it > 10:
            converged = True
            break
    return Z, trace, iters, converged


def _admm_noisy(op, b, noise: NoiseSpec, cfg: SolverConfig, X0=None):
    """Schatten-p minimization over a noise set, then a feasibility polish."""
    L, m, n = op.L, op.m, op.n
    M = explicit_operator(op)
    blocks = []
    G = None
    if noise.kind in ("lq_bounded", "intersection"):
        radius = L * noise.eta1
        blocks.append((M, M.T, b, lambda s: project_lq_ball(s, radius, noise.q)))
    if noise.kind in ("dantzig", "intersection"):
        G = M.T @ M  # the Dantzig residual A*(b - A(X)) is M^T b - G x
        blocks.append((G, G, M.T @ b, lambda s: project_spectral_ball(
            s.reshape(m, n), noise.eta2).ravel()))
    X0 = (np.asarray(X0, dtype=float) if X0 is not None
          else np.linalg.lstsq(M, b, rcond=None)[0].reshape(m, n))
    X, trace, iters, converged = _admm(
        X0, lambda V: prox_schatten_p(V, 1.0 / _ADMM_RHO, cfg.p), blocks,
        lambda Z: schatten_norm(Z, cfg.p) ** cfg.p, cfg)
    X, feas_ok = _feasibility_polish(op, M, G, b, X, noise)
    return X, trace, iters, converged and feas_ok, feas_ok


def _feasibility_polish(op, M, G, b, X, noise: NoiseSpec):
    """Minimum-norm correction moving the residual into the feasible set.

    ``G`` is the Gram M^T M, needed only for the Dantzig constraint.
    """
    L, m, n = op.L, op.m, op.n
    for _ in range(25):
        s = b - M @ X.ravel()
        ok, _ = measure.check_feasible(noise, op, s, tol=_FEASIBILITY_TOL)
        if ok:
            return X, True
        if noise.kind in ("lq_bounded", "intersection"):
            # shrink strictly inside to leave slack for the later DS step
            target = project_lq_ball(s, L * noise.eta1, noise.q) * (1.0 - 1e-9)
            delta, *_ = np.linalg.lstsq(M, s - target, rcond=None)
            X = X + delta.reshape(m, n)
            s = b - M @ X.ravel()
        if noise.kind in ("dantzig", "intersection"):
            y_cur = adjoint_map(op, s)
            y_tgt = project_spectral_ball(y_cur, noise.eta2 * (1.0 - 1e-9))
            delta, *_ = np.linalg.lstsq(G, (y_cur - y_tgt).ravel(), rcond=None)
            X = X + delta.reshape(m, n)
    s = b - M @ X.ravel()
    ok, _ = measure.check_feasible(noise, op, s, tol=_FEASIBILITY_TOL)
    return X, ok


# ---------------------------------------------------------------------------
# Public solver entry points.


def _restart_inits(op, b, cfg: SolverConfig, count: int):
    """Seeded initial points: None (method default), adjoint image, Gaussians."""
    inits = [None]
    Ab = adjoint_map(op, b)
    nrm = np.linalg.norm(Ab)
    if nrm > 0:
        inits.append(Ab / nrm * max(1.0, np.linalg.norm(b) / max(op.L, 1)))
    j = 0
    while len(inits) < count:
        g = measure._substream(cfg.seed, _STREAM_SOLVER, j)
        inits.append(g.standard_normal((op.m, op.n)))
        j += 1
    return inits[:count]


@_single_blas_thread()
def schatten_p_minimize(op, b, noise: NoiseSpec, cfg: SolverConfig) -> RecoveryReport:
    """min ||X||_{S_p}^p subject to b - A(X) in B, the noise set of ``noise``.

    Kind "none" (B = {0}) runs IRLS; the other kinds run ADMM.
    Restarts rerun the chosen algorithm from perturbed seeds and keep the
    best feasible objective.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (op.L,):
        raise ValueError("measurement length does not match the map")

    # Convex case needs no restarts; nonconvex p gets them.
    n_restarts = 1 if cfg.p == 1.0 else _RESTARTS
    best = None
    traces = []
    total_iters = 0
    any_converged = False
    for X0 in _restart_inits(op, b, cfg, n_restarts):
        if noise.kind == "none":
            X, trace, iters, conv = _irls_equality(op, b, cfg.p, cfg, X0=X0)
            feas_ok = True
        else:
            X, trace, iters, conv, feas_ok = _admm_noisy(op, b, noise, cfg, X0=X0)
        traces.append(trace)
        total_iters += iters
        any_converged = any_converged or conv
        obj = schatten_norm(X, cfg.p) ** cfg.p
        if feas_ok and (best is None or obj < best[1]):
            best = (X, obj)
    if best is None:
        raise SolverError(
            f"no restart ended feasible: after {cfg.max_iterations} iterations the "
            f"feasibility polish did not reach the {noise.kind} noise set")
    X, obj = best
    residual = b - apply_map(op, X)
    feasible, slacks = measure.check_feasible(noise, op, residual, tol=_FEASIBILITY_TOL)
    return RecoveryReport(
        estimate=X, iterations_used=total_iters, final_objective=obj,
        constraint_slack=slacks, converged=any_converged and feasible,
        objective_traces=traces, method=f"schatten-p(p={cfg.p})",
        globally_optimal=(cfg.p == 1.0 and noise.kind == "none"))


def nuclear_norm_baseline(op, b, noise: NoiseSpec, cfg: SolverConfig) -> RecoveryReport:
    """Convex reference: Schatten-p minimization at p = 1."""
    cfg1 = dataclasses.replace(cfg, p=1.0)
    report = schatten_p_minimize(op, b, noise, cfg1)
    report.method = "nuclear"
    return report


def _smoothed_lq(residual, eps, q):
    return float(np.sum((residual**2 + eps**2) ** (q / 2.0)))


@_single_blas_thread()
def least_q_minimize(op, b, cfg: SolverConfig) -> RecoveryReport:
    """min ||A(X) - b||_q^q subject to ||X||_{S_p} = 1 (0 < p <= q <= 1).

    Smoothed gradient descent on sum_j (r_j^2 + eps^2)^{q/2} with a radial
    retraction onto the Schatten-p sphere after every step; eps is
    annealed geometrically.  For b = 0 the program is degenerate: the
    solver still returns a sphere point with its stationarity flag, which
    is the documented contract rather than an error.
    """
    b = np.asarray(b, dtype=float)
    if cfg.p > cfg.q:
        raise ValueError("least-q requires p <= q")
    m, n = op.m, op.n
    if b.shape != (op.L,):
        raise ValueError("measurement length does not match the map")

    def retract(X):
        nrm = schatten_norm(X, cfg.p)
        if nrm <= 0:
            raise SolverError("cannot retract the zero matrix onto the sphere")
        return X / nrm

    inits = []
    Ab = adjoint_map(op, b)
    if np.linalg.norm(Ab) > 0:
        inits.append(retract(Ab))
    try:
        M = explicit_operator(op)
        xls, *_ = np.linalg.lstsq(M, b, rcond=None)
        Xls = xls.reshape(m, n)
        if np.linalg.norm(Xls) > 0:
            inits.append(retract(Xls))
        # IRLS-l1 warm start: a few reweighted least squares sweeps
        # down-weight gross outliers, which plain least squares follows.
        x = xls
        for _ in range(8):
            w = 1.0 / np.sqrt(np.abs(M @ x - b) + 1e-8)
            x, *_ = np.linalg.lstsq(M * w[:, None], b * w, rcond=None)
        if np.linalg.norm(x) > 0:
            inits.append(retract(x.reshape(m, n)))
    except measure.ResourceError:
        pass
    j = 0
    while len(inits) < _RESTARTS:
        g = measure._substream(cfg.seed, _STREAM_SOLVER, 100 + j)
        inits.append(retract(g.standard_normal((m, n))))
        j += 1
    inits = inits[:_RESTARTS]

    best = None
    traces = []
    total_iters = 0
    any_converged = False
    for X0 in inits:
        X = X0
        eps = _SMOOTHING_INITIAL
        step = 1.0
        trace = []
        iters = 0
        converged = False
        budget = cfg.max_iterations
        level_steps = 0  # steps taken at the current smoothing level
        while iters < budget:
            r = apply_map(op, X) - b
            f_cur = _smoothed_lq(r, eps, cfg.q)
            gr = cfg.q * r * (r * r + eps * eps) ** (cfg.q / 2.0 - 1.0)
            grad = adjoint_map(op, gr)
            moved = False
            if np.linalg.norm(grad) != 0:
                t = step * 2.0
                for _ in range(40):
                    X_try = retract(X - t * grad)
                    f_try = _smoothed_lq(apply_map(op, X_try) - b, eps, cfg.q)
                    if f_try < f_cur:
                        moved = True
                        break
                    t *= 0.5
            iters += 1
            level_steps += 1
            if moved:
                step = t
                change = np.linalg.norm(X_try - X) / max(1.0, np.linalg.norm(X))
                X = X_try
                trace.append(f_try)
            else:
                change = 0.0
                trace.append(f_cur)
            # Anneal on an eps-scaled stall, or after a bounded number of
            # steps per level, so the smoothing actually reaches the floor
            # within the iteration budget.
            if not moved or change <= max(_TOLERANCE, 1e-3 * eps) \
                    or level_steps >= 25:
                if eps <= _SMOOTHING_FLOOR * 1.001:
                    if not moved or change <= _TOLERANCE:
                        converged = True
                        break
                else:
                    eps = max(eps * _SMOOTHING_DECAY, _SMOOTHING_FLOOR)
                    level_steps = 0
        traces.append(trace)
        total_iters += iters
        any_converged = any_converged or converged
        obj = float(np.sum(np.abs(apply_map(op, X) - b) ** cfg.q))
        if best is None or obj < best[1]:
            best = (X, obj)
    X, obj = best
    sphere_dev = abs(schatten_norm(X, cfg.p) - 1.0)
    return RecoveryReport(
        estimate=X, iterations_used=total_iters, final_objective=obj,
        constraint_slack={"schatten_sphere": -sphere_dev},
        converged=any_converged, objective_traces=traces,
        method=f"least-q(q={cfg.q},p={cfg.p})")


@_single_blas_thread()
def phaselift_lad(ens: RopEnsemble, b, cfg: SolverConfig) -> RecoveryReport:
    """min ||Atilde(X) - btilde||_1 subject to X PSD with trace 1.

    Debiasing is applied internally; ADMM splits the l1 residual prox
    from the spectahedron projection, so every iterate of the returned
    block has unit trace exactly.
    """
    if not isinstance(ens, RopEnsemble) or not ens.symmetric:
        raise ValueError("PhaseLift requires a symmetric ensemble")
    plus, minus, btilde = measure.debias(ens, b)
    M = explicit_operator(plus) - explicit_operator(minus)

    def l1_prox(s):
        return np.sign(s) * np.maximum(np.abs(s) - 1.0 / _ADMM_RHO, 0.0)

    def l1_residual(Z):
        return float(np.linalg.norm(M @ Z.ravel() - btilde, 1))

    Z, trace, iters, converged = _admm(
        np.eye(ens.m) / ens.m, lambda V: spectahedron_project(0.5 * (V + V.T)),
        [(M, M.T, btilde, l1_prox)], l1_residual, cfg)
    return RecoveryReport(
        estimate=Z, iterations_used=iters, final_objective=trace[-1],
        constraint_slack={"trace": 1.0 - float(np.trace(Z)),
                          "min_eigenvalue": float(np.linalg.eigvalsh(Z).min())},
        converged=converged, objective_traces=[trace], method="phaselift-lad")
