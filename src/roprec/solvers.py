"""Solvers for the recovery programs.

The programs themselves come with no prescribed algorithms, so this
module owns the algorithmic choices:

* equality-constrained Schatten-p minimization: when the map is
  injective (L >= mn and rank mn) the feasible set is one point, the
  minimizer for every p, found by one least-squares solve of the explicit
  L x mn operator E: a Cholesky of the normal matrix E^T E and one step
  of refinement when its condition estimate is at most 1e9 (the check
  takes 5.0 ms at m = n = 20, L = 480, where gelsy took 13.8 ms), else,
  and for every symmetric ensemble, LAPACK gelsy; otherwise matrix IRLS,
  the weighted
  least-squares subproblem solved through the measurement Gram matrix,
  by Cholesky unless L exceeds the map's rank bound (mn, or m(m+1)/2
  for a symmetric ensemble), where the Gram is singular.  Both gelsy
  solves, of an ill-conditioned explicit operator and of a singular
  Gram, are a QR with column pivoting that reveals the rank with numpy's
  cutoff at a fraction of the cost of the SVD-based gelsd (10 ms against
  26 ms at m = n = 20, L = 480).  The
  IRLS Gram is assembled in place in two L x L buffers, allocated once
  per solve after its size check, in place of six new L x L temporaries
  per iteration: one p = 0.5 solve at m = n = 20, r = 2, L = 240 (11
  iterations) takes 9.8 ms, down from 14.6 ms (one BLAS thread).  The
  Cholesky factors the lower triangle of G^T, the same entries as G's
  upper triangle (G, from gemm, is not bitwise symmetric): OpenBLAS's
  lower-triangle potrf on the Fortran-ordered G^T takes 180 us at
  L = 240 where the upper one on G takes 280 us.  At
  p < 1 the weight is the harmonic mean of the left and right weights
  (X X^T + eps I)^{p/2-1} and (X^T X + eps I)^{p/2-1} (Kuemmerle &
  Sigl 2018), both from one SVD of the iterate, and eps decays by 0.1
  per iteration.  The squared singular values give a tail eigenvalue
  sigma_i^2, which (w + eps)^{p/2} amplifies once eps is small, to
  about u sigma_1 sigma_i (u the unit roundoff), where eigh of X X^T
  rounds it at u sigma_1^2; with eigh the smoothed objective can rise
  from one iterate to the next, and does on many instances under the
  fast decay.  At p = 1 the weight is the left one alone, from the same
  SVD, and eps decays by 0.7.  p = 1 stays one-sided on purpose: within
  criterion 04's 200 iterations the one-sided form stops short of the
  nuclear-norm minimum at L = 200 (m = n = 20, r = 2), where the
  harmonic-mean form reaches it and recovers the truth, and the
  criterion's strict cell needs the convex baseline to fail there.  eps
  starts at 0.1 and is floored at 1e-10, both times ||X_mf||_F^2 for the
  minimum-Frobenius feasible point X_mf, so the iterates scale with b;
* noisy constraint sets (the lq-bounded / Dantzig / intersection kinds
  of ``measure.NoiseSpec``, the same set the noise is drawn onto): ADMM
  from A^+ b with the Schatten-p proximal applied singular-value-wise,
  its weight ``_ADMM_PROX_SCALE`` * ||A^+ b||_F^{2-p} so that b and c b
  give iterates c apart, and each constraint a residual block handled by
  projection, plus a final minimum-norm correction so the returned
  iterate is feasible; the
  lq-ball projection at q < 1 searches the coordinates' zeroing
  breakpoints and runs safeguarded Newton between two of them;
* least-q on the Schatten-p sphere: at every p and q the same ADMM over
  the unit nuclear ball, its Z step the projection onto the ball and its
  one residual block an l1 soft threshold, which at p = q = 1 solves the
  sphere program whenever the ball's minimum lies on the sphere; otherwise
  (that minimum inside the ball, b = 0, or p or q < 1) smoothed gradient
  descent with backtracking and a radial retraction after every step,
  first from the ADMM's point;
* PhaseLift LAD: the same ADMM, with the spectahedron projection as the
  Z step and an l1 soft threshold as its one residual block;
* ``prox_power``, the scalar prox of lam*|z|^p on whole arrays: the soft
  threshold at p = 1, the half-thresholding closed form at p = 1/2, and
  Newton iterations from |s| at any other p.

Every operator is a ``measure.RopEnsemble`` (PhaseLift's debiased map is
the difference of two).  ADMM and least-q see a map through apply/adjoint
and one eigendecomposition of its L x L Gram K = A A* (``_GramMap``):
that gives least squares, A^+ d = A*(K^+ d), and the ADMM x-update by the
matrix-inversion lemma (Boyd et al. 2011, 4.2.4), which also gives A(x)
through K.  ADMM carries its iterate through measurement space, so an
iteration applies the map once (to Z) and its adjoint once, and the
Schatten-p trace entry comes from the shrunk singular values; no mn x mn
matrix is formed.  Only the injective-map check builds the explicit
operator.

Every Schatten-p solve runs once, from one deterministic start, and reads
no seed.  Equality IRLS starts at X_mf: at p < 1 restarts from other
starts won 10 of 1160 measured trials, all near the information limit
(L <= 1.61 r(m+n-r); see the README).  Noisy ADMM starts at A^+ b: with
its weight relative to ||A^+ b||, one start reaches a lower objective at
p < 1 than the best of three seeded starts under an absolute weight did.
So does least-q's ADMM, from A^+ b / ||A^+ b||_*.  Only least-q's descent
runs twice, from that ADMM's point and from A^+ b (a start from A*(b) won
no recovery in a 360-draw sweep), or once from a seeded start when
A^+ b = 0.  Reports keep every objective trace, give the returned
candidate's own "converged" flag and keep it apart from any claim of global
optimality (made only for a converged p = 1 equality solve, for the
injective case and for a converged LAD solve on the sphere).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import measure
from .linalg import (_single_blas_thread, schatten_norm, simplex_project,
                     spectahedron_project, svd)
from .measure import NoiseSpec, RopEnsemble, apply_map, adjoint_map

_STREAM_SOLVER = 7

# Relative-change stopping tolerance, smoothing start, per-level decay and
# floor, the faster decay of harmonic-mean IRLS, the noisy ADMM's Schatten-p
# prox weight over ||A^+ b||_F^{2-p}, the slack allowed when a result is
# checked against its set, and how near the unit nuclear sphere LAD's ADMM
# must end for its minimum to count as on it.
_TOLERANCE = 1e-7
_SMOOTHING_INITIAL = 1e-1
_SMOOTHING_DECAY = 0.7
_SMOOTHING_FLOOR = 1e-10
_IRLS_HM_DECAY = 0.1
_ADMM_PROX_SCALE = 0.1
_FEASIBILITY_TOL = 1e-6
_SPHERE_TOL = 1e-8

# The least reciprocal condition estimate of E^T E at which the injective
# solve uses the normal equations; see _unique_feasible_point.
_NORMAL_RCOND = 1e-9


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
    # one trace per run: least-q's ADMM over the nuclear ball, then, unless
    # that solved LAD, descents from its point and A^+ b (or one seeded one)
    objective_traces: list
    method: str = ""
    # claimed for the convex equality program at p = 1 when IRLS converged,
    # at any p when the map is injective (its feasible set is one point), and
    # for LAD when its ADMM converged on the unit nuclear sphere
    globally_optimal: bool = False


class SolverError(RuntimeError):
    """Explicit non-convergence / infeasibility failure."""


# ---------------------------------------------------------------------------
# Schatten-p proximal machinery, elementwise on arrays.


def prox_power(s, lam: float, p: float) -> np.ndarray:
    """Elementwise argmin_z lam*|z|^p + (z - s)^2 / 2 for 0 < p <= 1.

    p = 1 is the soft threshold.  For p < 1 the minimizer is 0 when |s| is
    at most the jump threshold (2-p)/(2-2p) * (2 lam (1-p))^(1/(2-p)), and
    otherwise the largest root of g(z) = z - |s| + lam*p*z^(p-1).  At
    p = 1/2 that root is the half-thresholding closed form of Xu, Chang,
    Xu & Zhang 2012 (their lambda is 2*lam: their objective has no 1/2).
    Any other p runs Newton from z = |s|: g is increasing and convex
    between its minimum and |s|, and g(|s|) > 0, so the iterates fall
    monotonically onto the root.
    """
    if lam < 0 or not (0 < p <= 1):
        raise ValueError("need lam >= 0 and p in (0, 1]")
    s = np.asarray(s, dtype=float)
    if lam == 0:
        return s.copy()
    a = np.abs(s)
    if p == 1.0:
        return np.sign(s) * np.maximum(a - lam, 0.0)
    zstar = (2.0 * lam * (1.0 - p)) ** (1.0 / (2.0 - p))
    keep = a > (2.0 - p) / (2.0 - 2.0 * p) * zstar
    ak = a[keep]
    if p == 0.5:
        phi = np.arccos(0.25 * lam * (ak / 3.0) ** -1.5)
        z = 2.0 / 3.0 * ak * (1.0 + np.cos(2.0 * np.pi / 3.0 - 2.0 / 3.0 * phi))
    else:
        z = ak.copy()
        for _ in range(100):
            step = ((z - ak + lam * p * z ** (p - 1.0))
                    / (1.0 + lam * p * (p - 1.0) * z ** (p - 2.0)))
            z -= step
            if np.all(np.abs(step) <= 1e-14 * np.maximum(1.0, z)):
                break
    out = np.zeros_like(s)
    out[keep] = np.sign(s[keep]) * z
    return out


def prox_schatten_p(X: np.ndarray, lam: float, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Matrix proximal of lam*||.||_{S_p}^p: shrink each singular value.

    Returns the shrunk matrix and its singular values, the shrunk ones.
    """
    dec = svd(X)
    sigma = prox_power(dec.sigma, lam, p)
    return (dec.U * sigma) @ dec.V.T, sigma


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
    is prox_power(v, lam, q) at the smallest lam (to 1e-13 relative) whose
    point is in the ball.  The mass f(lam) = sum |prox_power(v, lam, q)|^q
    falls with lam, smoothly except where coordinate i jumps to 0, at its
    breakpoint lam_i = (|v_i| (2-2q)/(2-q))^(2-q) / (2(1-q)).  A search
    over the sorted breakpoints finds the segment where f crosses
    radius^q, and safeguarded Newton finds the crossing in it (or the
    crossing is the segment's jump); the point returned is on the
    feasible side.
    """
    if q == 1.0:
        return project_l1_ball(v, radius)
    target = radius**q
    if np.sum(np.abs(v) ** q) <= target or radius == 0.0:
        return v.copy() if radius > 0 else np.zeros_like(v)

    a = np.abs(v)
    lams = (a * (2.0 - 2.0 * q) / (2.0 - q)) ** (2.0 - q) / (2.0 - 2.0 * q)

    def mass(lam):
        z = prox_power(v, lam, q)
        # at its own breakpoint a coordinate is 0, whichever way rounding
        # turns prox_power's jump test there
        z[lams <= lam] = 0.0
        return np.sum(np.abs(z) ** q), z

    breaks = np.unique(lams[a > 0])
    # f(breaks[lo]) > target >= f(breaks[hi]); lo = -1 stands for lam = 0, and
    # past the last breakpoint every coordinate is 0.
    lo, hi = -1, breaks.size - 1
    f_lo, z_lo, z_hi = np.sum(a**q), v, np.zeros_like(v)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        f_mid, z_mid = mass(breaks[mid])
        if f_mid > target:
            lo, f_lo, z_lo = mid, f_mid, z_mid
        else:
            hi, z_hi = mid, z_mid
    lam_lo, lam_hi = (breaks[lo] if lo >= 0 else 0.0), breaks[hi]
    # The segment's mass just below lam_hi, where the coordinates breaking
    # there still hold their jump size zstar: at or above the target (to
    # rounding), the crossing is that jump.  The point just below the jump is
    # the nearer one, returned when its own mass is in the ball; otherwise
    # the breaking coordinates are 0.
    zstar = (2.0 * lam_hi * (1.0 - q)) ** (1.0 / (2.0 - q))
    breaking = lams == lam_hi
    f_jump = np.sum(np.abs(z_hi[lams > lam_hi]) ** q) + np.sum(breaking) * zstar**q
    rounding = a.size * np.finfo(float).eps * target
    if f_jump >= target - rounding:
        z_jump = np.where(breaking, np.sign(v) * zstar, z_hi)
        return z_jump if np.sum(np.abs(z_jump) ** q) <= target else z_hi
    lam, f, z = lam_lo, f_lo, z_lo
    for _ in range(100):
        if f <= target:
            lam_hi, z_hi = lam, z
        else:
            lam_lo = lam
        tol = 1e-13 * lam_hi
        if lam_hi - lam_lo <= tol:
            break
        kept = np.abs(z[z != 0])
        # d|z|^q/dlam over the kept coordinates, by implicit differentiation
        # of the root condition z - |v| + lam q z^(q-1) = 0
        slope = -np.sum(q * q * kept ** (2.0 * q - 2.0)
                        / (1.0 + lam * q * (q - 1.0) * kept ** (q - 2.0)))
        new = lam - (f - target) / slope if slope < 0 else lam_lo
        # Newton's last steps fall below tol: on the feasible side that ends
        # the search, and from the other side a step of tol crosses over.
        # A feasible mass within rounding of the target ends it too: when v
        # is on the sphere to rounding the crossing is at lam ~ 1e-16, where
        # f is flat but for rounding and Newton cannot resolve tol.
        if f <= target and (lam - new <= tol or target - f <= rounding):
            break
        if f > target:
            new = max(new, lam + tol)
        lam = new if lam_lo < new < lam_hi else 0.5 * (lam_lo + lam_hi)
        f, z = mass(lam)
    return z_hi


def _project_nuclear_ball(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projection onto the unit nuclear ball, the singular values onto the
    unit l1 ball; returns it and its singular values."""
    dec = svd(V)
    sigma = project_l1_ball(dec.sigma, 1.0)
    return (dec.U * sigma) @ dec.V.T, sigma


def project_spectral_ball(Y: np.ndarray, radius: float) -> np.ndarray:
    """Clip singular values at ``radius`` (projection onto the S_inf ball)."""
    dec = svd(Y)
    return (dec.U * np.minimum(dec.sigma, radius)) @ dec.V.T


# ---------------------------------------------------------------------------
# Equality-constrained Schatten-p minimization: matrix IRLS.


def _wls_solver(op: RopEnsemble):
    """Returns solve(W_L, b, W_R=None), the X minimizing <X, H^{-1}(X)>
    subject to A(X) = b, where H(Z) = W_L Z, or (W_L Z + Z W_R) / 2 with
    ``W_R``: both weights are inverse weights.

    The minimizer is X = H(A*(lambda)) with the Gram system G lambda = b,
    G_ij = <A_i, H(A_j)>.  For rank-one ensembles G is a Hadamard product
    of L x L Grams, (B W_L B^T) o (C C^T), with C the gammas, and with
    ``W_R`` the mean of that and (B B^T) o (C W_R C^T); its side is
    size-checked first.  G is assembled in place in two L x L buffers
    allocated here, once per solver; every call overwrites them before it
    accumulates, and no result refers to them.
    """
    measure.check_gram_size(op.L)
    gram_beta, gram_gamma = op.betas @ op.betas.T, op.gammas @ op.gammas.T
    buffers = np.empty((2, op.L, op.L))
    # G = A H A* has the rank of A, at most _rank_bound(op): past it G is
    # singular and its Cholesky cannot succeed
    solve_gram = _solve_psd if op.L <= _rank_bound(op) else lambda G, b: _lstsq(G, b)[0]

    def solve(W_L, b, W_R=None):
        G, H = buffers
        BW = op.betas @ W_L
        np.matmul(BW, op.betas.T, out=G)
        G *= gram_gamma
        if W_R is None:
            lam = solve_gram(G, b)
            return BW.T @ (lam[:, None] * op.gammas)
        CW = op.gammas @ W_R
        np.matmul(CW, op.gammas.T, out=H)
        H *= gram_beta
        G += H
        G *= 0.5
        lam = solve_gram(G, b)
        return 0.5 * (BW.T @ (lam[:, None] * op.gammas) + (lam[:, None] * op.betas).T @ CW)

    return solve


def _rank_bound(op):
    """An upper bound on the rank of the map: a symmetric ensemble sees only
    the symmetric part of X, so at most m(m+1)/2; otherwise mn."""
    return op.m * (op.m + 1) // 2 if op.symmetric else op.m * op.n


def _lstsq(M, b):
    """(x, rank): the minimum-norm least-squares solution of M x = b.

    LAPACK gelsy, a QR with column pivoting (Quintana-Orti, Sun & Bischof
    1998), reveals the rank at a fraction of the cost of the SVD that
    gelsd (numpy's lstsq) computes: 10 ms against 26 ms on a 480 x 400
    operator (one BLAS thread).  The cutoff eps * max(M.shape) is numpy's
    rcond=None; scipy's default would be bare eps.  Non-finite input
    raises ValueError (scipy's check_finite, one scan of M).  It solves
    the singular IRLS Grams and those injective-map checks that the
    normal equations leave to it (see ``_unique_feasible_point``).
    """
    # imported here, not at module level, so that processes that never
    # solve (sample, measure) start without scipy; the BLAS pin loads it
    # before this runs (see linalg._openblas_pools)
    import scipy.linalg

    x, _, rank, _ = scipy.linalg.lstsq(M, b, cond=np.finfo(float).eps * max(M.shape),
                                       lapack_driver="gelsy")
    return x, rank


def _solve_psd(G, b):
    """lambda with G lambda = b for a positive definite Gram G, by Cholesky,
    or by ``_lstsq`` when the factor fails or leaves a residual above
    1e-8 max(1, ||b||).

    The factor is the lower triangle of G^T, the same entries as G's
    upper triangle (G, from gemm, is not bitwise symmetric), and G^T of a
    C-ordered G is Fortran-ordered: OpenBLAS's lower-triangle potrf takes
    180 us at L = 240 where the upper one takes 280 us (one BLAS
    thread).  The calls go through ``scipy.linalg``, which the
    benchmark's tracer wraps, not ``scipy.linalg.lapack.dpotrf``, which
    would save at most about 10 us per call.
    """
    import scipy.linalg

    try:
        c, low = scipy.linalg.cho_factor(G.T, lower=True, check_finite=False)
        lam = scipy.linalg.cho_solve((c, low), b, check_finite=False)
        if np.linalg.norm(G @ lam - b) <= 1e-8 * max(1.0, np.linalg.norm(b)):
            return lam
    except np.linalg.LinAlgError:
        pass
    return _lstsq(G, b)[0]


def _svd_eigenpairs(X):
    """Eigenpairs of X X^T and of X^T X from one SVD X = U diag(s) V^T:
    (s^2, U) and (s^2, V), s padded with zeros to m and to n.

    A squared singular value s_i^2 is accurate to about u s_1 s_i (u the
    unit roundoff), where eigh of the Gram leaves u s_1^2 on every
    eigenvalue; the tail that (w + eps)^{p/2} amplifies at small eps needs
    the former.  A square X needs no padding, and both sides share s^2.
    """
    U, s, Vt = np.linalg.svd(X)
    m, n = X.shape
    w = s**2

    def padded(k):
        return w if k == w.size else np.pad(w, (0, k - w.size))

    return (padded(m), U), (padded(n), Vt.T)


def _inverse_weight(w, Q, eps, p):
    """(S + eps I)^{1-p/2} from the eigenpairs (w, Q) of a Gram S."""
    return (Q * (w + eps) ** (1.0 - p / 2.0)) @ Q.T


def _smoothed_schatten(w, eps, p):
    """tr((X X^T + eps I)^{p/2}), the IRLS surrogate objective.

    ``w`` holds the (nonnegative) eigenvalues of X X^T.
    """
    return float(np.sum((w + eps) ** (p / 2.0)))


def _irls_equality(op, b, p, cfg: SolverConfig):
    """IRLS from the minimum-Frobenius feasible point X_mf; returns one run
    (X, trace, iterations, converged), a zero run when b = 0.

    One SVD per iterate gives the trace entry and the next weights.  At
    p < 1 the step uses the harmonic mean of the left and right weights
    (Kuemmerle & Sigl 2018), which keeps the trace monotone while eps
    decays by ``_IRLS_HM_DECAY``; at p = 1 it keeps the left weight alone
    (see the module docstring).  eps starts at, and is floored at,
    multiples of ||X_mf||_F^2, so b and c b give iterates c apart.
    """
    solve = _wls_solver(op)
    X = solve(np.eye(op.m), b)
    scale = float(np.sum(X**2))
    if scale == 0.0:
        return X, [0.0], 1, True
    harmonic = p < 1.0
    decay = _IRLS_HM_DECAY if harmonic else _SMOOTHING_DECAY
    floor = _SMOOTHING_FLOOR * scale
    eps = _SMOOTHING_INITIAL * scale
    trace, iters, converged = [], 0, False
    left, right = _svd_eigenpairs(X)
    for it in range(cfg.max_iterations):
        iters = it + 1
        W_R = _inverse_weight(*right, eps, p) if harmonic else None
        X_new = solve(_inverse_weight(*left, eps, p), b, W_R)
        left, right = _svd_eigenpairs(X_new)
        trace.append(_smoothed_schatten(left[0], eps, p))
        change = np.linalg.norm(X_new - X) / np.linalg.norm(X)
        X = X_new
        eps = max(eps * decay, floor)
        if change <= _TOLERANCE and eps <= 1e-9 * scale * 1.001:
            converged = True
            break
    return X, trace, iters, converged


# ---------------------------------------------------------------------------
# A map through its Gram, and ADMM on it.


class _GramMap:
    """The map A of ``op``, or with ``minus`` the debiased map op - minus, by
    apply/adjoint, its Gram K = A A* and the eigenpairs (lam, Q) of K above
    L * eps * scale.  With A = Q S V^T, lam = S^2."""

    def __init__(self, op: RopEnsemble, minus: RopEnsemble | None = None):
        if minus is None:
            self.apply = lambda X: apply_map(op, X)
            self.adjoint = lambda z: adjoint_map(op, z)
            self.K = measure.gram(op)
        else:
            self.apply = lambda X: apply_map(op, X) - apply_map(minus, X)
            self.adjoint = lambda z: adjoint_map(op, z) - adjoint_map(minus, z)
            self.K = (measure.gram(op) - measure.gram(op, minus) - measure.gram(minus, op)
                      + measure.gram(minus))
        lam, Q = np.linalg.eigh(self.K)
        # K is rounded at the scale of the Grams it sums.  A debiased Gram is
        # a difference of half Grams, whose traces sum(|beta_j|^2 |gamma_j|^2)
        # bound that scale when the halves cancel far below it.
        scale = lam.max(initial=0.0) if minus is None else sum(
            np.sum(o.betas**2, axis=1) @ np.sum(o.gammas**2, axis=1) for o in (op, minus))
        keep = lam > self.K.shape[0] * np.finfo(float).eps * scale
        self.lam, self.Q = lam[keep], Q[:, keep]

    def solve(self, d, power: int = 1):
        """A* (K^+)^power d: A^+ d at power 1, and (A* A)^+ Y at power 2 for d = A(Y)."""
        return self.adjoint(self.Q @ ((self.Q.T @ d) / self.lam ** power))

    def pinv(self, d):
        """A^+ d (minimum-norm least squares), refined once: K squares A's condition."""
        X = self.solve(d)
        return X + self.solve(d - self.apply(X))

    def shifted_solver(self, phi):
        """solve(R, AR, y): x = (I + A* Phi A)^{-1} (R + A*(y)) and A(x), given
        AR = A(R).

        Phi = phi(K) is given by its values at lam.  By the matrix-inversion
        lemma x = R + A*(g) with g = y - Q psi Q^T (A(R) + K y), psi =
        phi / (1 + lam phi), so A(x) = A(R) + K g: one adjoint, no apply.
        psi is formed once, here.
        """
        Q, QT, K, adjoint = self.Q, self.Q.T, self.K, self.adjoint
        psi = phi / (1.0 + self.lam * phi)

        def solve(R, AR, y):
            g = y - Q @ (psi * (QT @ (AR + K @ y)))
            return R + adjoint(g), AR + K @ g

        return solve


def _admm(X0, A: _GramMap, b, prox_z, blocks, objective, cfg: SolverConfig):
    """Scaled-form ADMM splitting the variable x into Z and residual blocks.

    ``prox_z`` maps x + u to the next Z and a by-product of it, from which
    with A(Z) ``objective`` gives the trace entry.  A block (dantzig, prox)
    holds the residual c - B x, with B = A and c = b for an lq/l1 block and
    B = A* A, c = A*(b) for a Dantzig block, in a set (or penalizes it):
    ``prox`` maps it plus its scaled dual v to w.  The x-update's system
    I + sum B^T B is I + A* Phi A, Phi = I per lq/l1 block plus the Gram
    A A* per Dantzig block, and its right side is Z - u + A*(y) with y the
    sum of the blocks' c - w + v, mapped by A for a Dantzig block.

    The iterate is carried through measurement space: A(Z - u) comes from
    A(Z) and a running A(u), and A(x) from ``shifted_solver``.  So an
    iteration costs one apply (of Z) and one adjoint, plus for a Dantzig
    block one apply of its term and one adjoint of b - A(x).  Returns (Z,
    objective trace, iterations, converged).
    """
    solve = A.shifted_solver(sum(A.lam if dantzig else 1.0 for dantzig, _ in blocks))

    def residuals(x):
        r = b - A.apply(x)
        return [A.adjoint(r) if dantzig else r for dantzig, _ in blocks]

    cs, ws = residuals(np.zeros_like(X0)), residuals(X0)
    Z, u = X0, np.zeros_like(X0)
    AZ, Au = A.apply(Z), np.zeros_like(b)
    vs = [np.zeros_like(w) for w in ws]
    trace, iters, converged = [], 0, False
    for it in range(cfg.max_iterations):
        iters = it + 1
        y = sum(A.apply(c - w + v) if dantzig else c - w + v
                for (dantzig, _), c, w, v in zip(blocks, cs, ws, vs))
        x, Ax = solve(Z - u, AZ - Au, y)
        Z_prev = Z
        Z, by_product = prox_z(x + u)
        AZ = A.apply(Z)
        r = b - Ax
        for k, (dantzig, prox) in enumerate(blocks):
            s = A.adjoint(r) if dantzig else r
            ws[k] = prox(s + vs[k])
            vs[k] += s - ws[k]
        primal = x - Z
        u += primal
        Au += Ax - AZ
        trace.append(objective(by_product, AZ))
        # the primal and dual residuals, relative to x
        tol = _TOLERANCE * max(1.0, _frobenius(x))
        if it > 10 and _frobenius(primal) <= tol and _frobenius(Z - Z_prev) <= tol:
            converged = True
            break
    return Z, trace, iters, converged


def _frobenius(X) -> float:
    """np.linalg.norm(X), the same sum of squares, without its argument handling."""
    v = X.ravel(order="K")
    return math.sqrt(v.dot(v))


def _admm_noisy(op, A: _GramMap, b, noise: NoiseSpec, cfg: SolverConfig):
    """Schatten-p minimization over a noise set from A^+ b, then a
    feasibility polish; raises SolverError if the polish misses the set.

    The prox weight is lam = ``_ADMM_PROX_SCALE`` * ||A^+ b||_F^{2-p}:
    argmin_z lam |z|^p + (z - s)^2 / 2 moves to c z when s moves to c s
    and lam to c^{2-p} lam, so b and c b, over the set scaled by c, run
    iterates c apart.  b = 0 gives lam = 0 and the zero matrix.
    """
    blocks = []
    if noise.has_lq:
        blocks.append((False, lambda s: project_lq_ball(s, op.L * noise.eta1, noise.q)))
    if noise.has_dantzig:
        blocks.append((True, lambda S: project_spectral_ball(S, noise.eta2)))
    X0 = A.pinv(b)
    lam = _ADMM_PROX_SCALE * float(np.linalg.norm(X0)) ** (2.0 - cfg.p)
    # the trace entry ||Z||_{S_p}^p sums the shrunk singular values' powers
    X, trace, iters, converged = _admm(
        X0, A, b, lambda V: prox_schatten_p(V, lam, cfg.p), blocks,
        lambda sigma, _: float(np.sum(sigma**cfg.p)), cfg)
    X, feas_ok = _feasibility_polish(op, A, b, X, noise)
    if not feas_ok:
        raise SolverError(
            f"after {cfg.max_iterations} iterations the feasibility polish did not "
            f"reach the {noise.kind} noise set")
    return X, trace, iters, converged


def _feasibility_polish(op, A: _GramMap, b, X, noise: NoiseSpec):
    """Minimum-norm corrections, at most 25, moving the residual into the set."""
    for rounds in range(26):
        s = b - A.apply(X)
        ok, _ = measure.check_feasible(noise, op, s, tol=_FEASIBILITY_TOL)
        if ok or rounds == 25:
            return X, ok
        if noise.has_lq:
            # shrink strictly inside to leave slack for the later DS step
            target = project_lq_ball(s, op.L * noise.eta1, noise.q) * (1.0 - 1e-9)
            X = X + A.pinv(s - target)
            s = b - A.apply(X)
        if noise.has_dantzig:
            y_cur = A.adjoint(s)
            y_tgt = project_spectral_ball(y_cur, noise.eta2 * (1.0 - 1e-9))
            X = X + A.solve(A.apply(y_cur - y_tgt), power=2)


# ---------------------------------------------------------------------------
# Public solver entry points.


def _unique_feasible_point(op, b):
    """The one solution of A(X) = b when the map is injective, else None.

    With L >= mn and rank mn the feasible set is a single point, the
    minimizer for every p, so one least-squares solve of the explicit
    L x mn operator E stands in for IRLS.  If b is not in the range of A
    the point is the least-squares fit, and the equality slack reports the
    miss.  A non-finite E or b is a ValueError, raised before any
    factorization (potrf can succeed on NaN input).  Past the
    explicit-operator cap the ResourceError stands, as L >= mn > 4096 puts
    IRLS's Gram past its cap too.

    The solve runs through the normal matrix N = E^T E when N is well
    conditioned (``_solve_normal``), and otherwise by gelsy (``_lstsq``),
    whose rank decision uses numpy's cutoff: rank < mn, and None, when
    cond(E) > 1/(eps max(L, mn)), 9e12 at L = 480.  A symmetric ensemble
    goes to gelsy at once: it sees only the symmetric part of X, so its
    rank is at most m(m+1)/2 < mn and N is singular.

    The normal path answers only when dpocon's estimate of 1/cond_1(N),
    with ||N||_1 overstated by at most a factor of 2, is at least
    ``_NORMAL_RCOND`` = 1e-9, so cond(E)^2 = cond_2(N) <= cond_1(N) is
    about 1e9 or less, cond(E) <= 3.2e4.  Solving N x = E^T b by Cholesky
    leaves a relative error of about u cond(E)^2, u = 1.1e-16 the unit
    roundoff, and one refinement step x += N^{-1} E^T (b - E x), the
    correction of Bjorck's (1987) corrected seminormal equations,
    multiplies it by about u cond(E)^2 again.  What remains,
    (u cond(E)^2)^2 <= 1.2e-14, is below the error u cond(E) <= 3.5e-12
    that a backward stable QR solve already allows; the bound holds while
    cond(E) <= u^{-1/3} = 2e5, which leaves dpocon's estimate a factor of
    40 on cond_1(N).  Such a map is far inside numpy's rank cutoff (8
    orders of magnitude at L = 480), where gelsy's rank is mn too, so the
    rank decision is gelsy's everywhere.  At m = n = 20, L = 480 (cond(E)
    about 27) the whole check, explicit operator included, takes 5.0 ms
    where it took 13.8 ms by gelsy alone; at L = mn = 400, 4.5-4.6 ms
    against 10.1 ms on seeds 0-7 but seed 6, whose map (cond(E) = 1.6e4)
    goes on to gelsy and takes 14.0 ms (medians of five interleaved
    rounds, one BLAS thread).  The cost of syrk, dlange and dpocon,
    called outside ``scipy.linalg``'s wrapped functions, is part of the
    benchmark tracer's ``solvers.self_s``.
    """
    mn = op.m * op.n
    if op.L < mn:
        return None
    M = measure.explicit_operator(op)
    if not (np.isfinite(M).all() and np.isfinite(b).all()):
        raise ValueError("the map or the measurements are not finite")
    x = None if op.symmetric else _solve_normal(M, b)
    if x is None:
        x, rank = _lstsq(M, b)
        if rank < mn:
            return None
    return x.reshape(op.m, op.n)


def _solve_normal(M, b):
    """The least-squares solution of M x = b by a Cholesky of N = M^T M and
    one refinement step, or None when the factor fails or N's reciprocal
    condition estimate is below ``_NORMAL_RCOND``.

    BLAS syrk writes N's lower triangle into a zeroed Fortran-ordered
    buffer, and potrf factors it there.  ||N||_1 is taken as the largest
    column sum plus the largest row sum of that triangle (two dlange
    calls, no |N| temporary), at most twice the true norm, which can only
    lower the estimate.  syrk runs on scipy's BLAS, whose work buffer
    potrf uses too: numpy's ``M.T @ M`` (syrk on numpy's BLAS, the full
    N) raised the benchmark's peak RSS twice as much.
    """
    import scipy.linalg
    from scipy.linalg import blas, lapack

    N = blas.dsyrk(1.0, M.T, c=np.zeros((M.shape[1],) * 2, order="F"), lower=1,
                   overwrite_c=1)
    anorm = lapack.dlange("1", N) + lapack.dlange("I", N)
    try:
        c, low = scipy.linalg.cho_factor(N, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    rcond, info = lapack.dpocon(c, anorm, uplo="L")
    if info != 0 or not rcond >= _NORMAL_RCOND:
        return None
    x = scipy.linalg.cho_solve((c, low), M.T @ b, check_finite=False)
    x += scipy.linalg.cho_solve((c, low), M.T @ (b - M @ x), check_finite=False)
    return x


@_single_blas_thread()
def schatten_p_minimize(op, b, noise: NoiseSpec, cfg: SolverConfig) -> RecoveryReport:
    """min ||X||_{S_p}^p subject to b - A(X) in B, the noise set of ``noise``.

    Kind "none" (B = {0}) with an injective map is one least-squares
    solve, reported as one iteration; otherwise it runs IRLS once, from
    the minimum-Frobenius point.  The other kinds run ADMM once, from
    A^+ b, at every p.  No path reads ``cfg.seed``.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (op.L,):
        raise ValueError("measurement length does not match the map")

    unique = _unique_feasible_point(op, b) if noise.kind == "none" else None
    if unique is not None:
        X, iters, converged = unique, 1, True
    elif noise.kind == "none":
        X, trace, iters, converged = _irls_equality(op, b, cfg.p, cfg)
    else:
        X, trace, iters, converged = _admm_noisy(op, _GramMap(op), b, noise, cfg)
    obj = schatten_norm(X, cfg.p) ** cfg.p
    if unique is not None:
        trace = [obj]
    residual = b - apply_map(op, X)
    feasible, slacks = measure.check_feasible(noise, op, residual, tol=_FEASIBILITY_TOL)
    converged = converged and feasible
    return RecoveryReport(
        estimate=X, iterations_used=iters, final_objective=obj,
        constraint_slack=slacks, converged=converged,
        objective_traces=[trace], method=f"schatten-p(p={cfg.p})",
        globally_optimal=(cfg.p == 1.0 and noise.kind == "none" and converged)
        or unique is not None)


def nuclear_norm_baseline(op, b, noise: NoiseSpec, cfg: SolverConfig) -> RecoveryReport:
    """Convex reference: Schatten-p minimization at p = 1."""
    cfg1 = dataclasses.replace(cfg, p=1.0)
    report = schatten_p_minimize(op, b, noise, cfg1)
    report.method = "nuclear"
    return report


@_single_blas_thread()
def least_squares(op: RopEnsemble, b) -> np.ndarray:
    """The minimum-norm least-squares solution of A(X) = b, through the Gram."""
    return _GramMap(op).pinv(np.asarray(b, dtype=float))


def _smoothed_lq(residual, eps, q):
    return float(np.sum((residual**2 + eps**2) ** (q / 2.0)))


@_single_blas_thread()
def least_q_minimize(op, b, cfg: SolverConfig) -> RecoveryReport:
    """min ||A(X) - b||_q^q subject to ||X||_{S_p} = 1 (0 < p <= q <= 1).

    At every p and q, ADMM first solves LAD's convex relaxation over the
    unit nuclear ball, from A^+ b / ||A^+ b||_*: its Z step projects onto
    the ball and its one residual block is an l1 soft threshold, whose
    weight sets only the speed.  At p = q = 1, when the ball's minimum lies
    on the sphere (||Z||_* = 1 to ``_SPHERE_TOL``) it is the sphere
    program's minimum too, returned as globally optimal once ADMM
    converged.  Otherwise (Z inside the ball, or p or q < 1) Z retracted
    onto the Schatten-p sphere is a candidate, and smoothed gradient
    descent runs on sum_j (r_j^2 + eps^2)^{q/2} with a radial retraction
    after every step, eps annealed geometrically, from that point and
    from A^+ b.  The candidate with the least sum_j |r_j|^q is returned
    with its own ``converged`` flag.  For A^+ b = 0 (in practice b = 0;
    no ADMM, one seeded start) the program is degenerate: the solver
    still returns a sphere point with its stationarity flag, which is the
    documented contract, not an error.
    """
    b = np.asarray(b, dtype=float)
    if cfg.p > cfg.q:
        raise ValueError("least-q requires p <= q")
    if b.shape != (op.L,):
        raise ValueError("measurement length does not match the map")

    A = _GramMap(op)
    X_ls = A.pinv(b)
    method = f"least-q(q={cfg.q},p={cfg.p})"

    def retract(X):
        if (nrm := schatten_norm(X, cfg.p)) <= 0:
            raise SolverError("cannot retract the zero matrix onto the sphere")
        return X / nrm

    # (point, converged) of the ADMM and the descents, scored by sum_j |r_j|^q
    candidates, traces, total_iters = [], [], 0
    ls_nuclear = schatten_norm(X_ls, 1.0)
    if ls_nuclear > 0:
        Z, trace, total_iters, converged = _admm(
            X_ls / ls_nuclear, A, b, _project_nuclear_ball,
            [(False, lambda s: prox_power(s, 1.0, 1.0))],
            lambda _, AZ: float(np.linalg.norm(AZ - b, 1)), cfg)
        traces.append(trace)
        nuclear = schatten_norm(Z, 1.0)
        if cfg.p == cfg.q == 1.0 and abs(nuclear - 1.0) <= _SPHERE_TOL:
            return RecoveryReport(
                estimate=Z, iterations_used=total_iters, final_objective=trace[-1],
                constraint_slack={"schatten_sphere": -abs(nuclear - 1.0)},
                converged=converged, objective_traces=traces, method=method,
                globally_optimal=converged)
        if nuclear > 0:
            candidates.append((retract(Z), converged))
        starts = [X for X, _ in candidates] + [retract(X_ls)]
    else:  # b orthogonal to the range of A
        starts = [retract(measure._substream(cfg.seed, _STREAM_SOLVER, 100)
                          .standard_normal((op.m, op.n)))]

    for X0 in starts:
        X, eps, step, trace, iters, converged = X0, _SMOOTHING_INITIAL, 1.0, [], 0, False
        level_steps = 0  # steps taken at the current smoothing level
        while iters < cfg.max_iterations:
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
        candidates.append((X, converged))
    objectives = [float(np.sum(np.abs(apply_map(op, X) - b) ** cfg.q)) for X, _ in candidates]
    (X, converged), obj = candidates[int(np.argmin(objectives))], min(objectives)
    sphere_dev = abs(schatten_norm(X, cfg.p) - 1.0)
    return RecoveryReport(
        estimate=X, iterations_used=total_iters, final_objective=obj,
        constraint_slack={"schatten_sphere": -sphere_dev},
        converged=converged, objective_traces=traces, method=method)


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
    A = _GramMap(plus, minus)
    Z, trace, iters, converged = _admm(
        np.eye(ens.m) / ens.m, A, btilde,
        lambda V: (spectahedron_project(0.5 * (V + V.T)), None),
        # an absolute l1 weight: the unit-trace constraint fixes the scale
        [(False, lambda s: prox_power(s, 1.0, 1.0))],
        lambda _, AZ: float(np.linalg.norm(AZ - btilde, 1)), cfg)
    return RecoveryReport(
        estimate=Z, iterations_used=iters, final_objective=trace[-1],
        constraint_slack={"trace": 1.0 - float(np.trace(Z)),
                          "min_eigenvalue": float(np.linalg.eigvalsh(Z).min())},
        converged=converged, objective_traces=[trace], method="phaselift-lad")
