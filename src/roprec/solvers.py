"""Solvers for the recovery programs.

The programs themselves come with no prescribed algorithms, so this
module owns the algorithmic choices:

* equality-constrained Schatten-p minimization: when the map is
  injective (L >= mn and rank mn) the feasible set is one point, the
  minimizer for every p, found by one least-squares solve; otherwise
  matrix IRLS, the weighted least-squares subproblem solved through the
  measurement Gram matrix.  At p < 1 the weight is the harmonic mean of
  the left and right weights (X X^T + eps I)^{p/2-1} and
  (X^T X + eps I)^{p/2-1} (Kuemmerle & Sigl 2018), both from one SVD of
  the iterate, and eps decays by 0.1 per iteration.  The squared singular
  values give a tail eigenvalue sigma_i^2, which (w + eps)^{p/2}
  amplifies once eps is small, to about u sigma_1 sigma_i (u the unit
  roundoff), where eigh of X X^T rounds it at u sigma_1^2; with eigh the
  smoothed objective can rise from one iterate to the next, and does on
  many instances under the fast decay.  At p = 1 the weight is the left
  one alone, from eigh of X X^T, and eps decays by 0.7.  p = 1 stays
  one-sided on purpose: within criterion 04's 200 iterations the
  one-sided form stops short of the nuclear-norm minimum at L = 200
  (m = n = 20, r = 2), where the harmonic-mean form reaches it and
  recovers the truth, and the criterion's strict cell needs the convex
  baseline to fail there.  eps starts at 0.1 and is floored at
  1e-10, both times ||X_mf||_F^2 for the minimum-Frobenius feasible
  point X_mf, so the iterates scale with b;
* noisy constraint sets (the lq-bounded / Dantzig / intersection kinds
  of ``measure.NoiseSpec``, the same set the noise is drawn onto): ADMM
  with the Schatten-p proximal applied singular-value-wise and each
  constraint a residual block handled by projection, plus a final
  minimum-norm correction so the returned iterate is feasible; the
  lq-ball projection at q < 1 searches the coordinates' zeroing
  breakpoints and runs safeguarded Newton between two of them;
* least-q on the Schatten-p sphere: smoothed gradient descent with
  backtracking and a radial retraction after every step;
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

Equality IRLS runs once, from X_mf: at p < 1 restarts from other starts
won 10 of 1160 measured trials, all near the information limit (L <= 1.61
r(m+n-r); see the README).  ADMM at p < 1 handles nonconvexity by seeded
restarts.  Reports keep every per-restart objective trace and
distinguish "converged" from any claim of global optimality (made only
for a converged p = 1 equality solve and for the injective case).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

from . import measure
from .linalg import (_single_blas_thread, schatten_norm, simplex_project,
                     spectahedron_project, svd)
from .measure import NoiseSpec, RopEnsemble, apply_map, adjoint_map

_STREAM_SOLVER = 7

# Relative-change stopping tolerance, smoothing start, per-level decay and
# floor, the faster decay of harmonic-mean IRLS, starts of nonconvex ADMM
# and least-q, ADMM penalty, and the slack allowed when a result is checked
# against its set.
_TOLERANCE = 1e-7
_SMOOTHING_INITIAL = 1e-1
_SMOOTHING_DECAY = 0.7
_SMOOTHING_FLOOR = 1e-10
_IRLS_HM_DECAY = 0.1
_RESTARTS = 3
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
    # claimed for the convex equality program at p = 1 when IRLS converged,
    # and at any p when the map is injective (its feasible set is one point)
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
    # rounding), the crossing is that jump.
    zstar = (2.0 * lam_hi * (1.0 - q)) ** (1.0 / (2.0 - q))
    f_jump = np.sum(np.abs(z_hi[lams > lam_hi]) ** q) + np.sum(lams == lam_hi) * zstar**q
    rounding = a.size * np.finfo(float).eps * target
    if f_jump >= target - rounding:
        return z_hi
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
    size-checked first.
    """
    measure.check_gram_size(op.L)
    gram_beta, gram_gamma = op.betas @ op.betas.T, op.gammas @ op.gammas.T

    def solve(W_L, b, W_R=None):
        BW = op.betas @ W_L
        G = (BW @ op.betas.T) * gram_gamma
        if W_R is None:
            lam = _solve_psd(G, b)
            return BW.T @ (lam[:, None] * op.gammas)
        CW = op.gammas @ W_R
        lam = _solve_psd(0.5 * (G + gram_beta * (CW @ op.gammas.T)), b)
        return 0.5 * (BW.T @ (lam[:, None] * op.gammas) + (lam[:, None] * op.betas).T @ CW)

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


def _gram_eigh(X):
    """Eigenpairs of X X^T, the eigenvalues clipped at 0."""
    w, Q = np.linalg.eigh(X @ X.T)
    return np.clip(w, 0.0, None), Q


def _svd_eigenpairs(X):
    """Eigenpairs of X X^T and of X^T X from one SVD X = U diag(s) V^T:
    (s^2, U) and (s^2, V), s padded with zeros to m and to n.

    A squared singular value s_i^2 is accurate to about u s_1 s_i (u the
    unit roundoff), where eigh of the Gram leaves u s_1^2 on every
    eigenvalue; the tail that (w + eps)^{p/2} amplifies at small eps needs
    the former.
    """
    U, s, Vt = np.linalg.svd(X)
    m, n = X.shape
    return (np.pad(s**2, (0, m - s.size)), U), (np.pad(s**2, (0, n - s.size)), Vt.T)


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

    At p < 1 the step uses the harmonic mean of the left and right
    weights (Kuemmerle & Sigl 2018), both from one SVD per iterate, which
    keeps the trace monotone while eps decays by ``_IRLS_HM_DECAY``; at
    p = 1 it keeps the left weight alone (see the module docstring).  eps
    starts at, and is floored at, multiples of ||X_mf||_F^2, so b and c b
    give iterates c apart.
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
    # one decomposition per iterate: the eigenpairs of X X^T give the trace
    # entry and, with those of X^T X at p < 1, the next iteration's weights
    pairs = _svd_eigenpairs if harmonic else lambda X: (_gram_eigh(X), None)
    left, right = pairs(X)
    for it in range(cfg.max_iterations):
        iters = it + 1
        W_R = _inverse_weight(*right, eps, p) if harmonic else None
        X_new = solve(_inverse_weight(*left, eps, p), b, W_R)
        left, right = pairs(X_new)
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
        terms = [(1.0, op)] + ([(-1.0, minus)] if minus is not None else [])
        self.apply = lambda X: sum(s * apply_map(o, X) for s, o in terms)
        self.adjoint = lambda z: sum(s * adjoint_map(o, z) for s, o in terms)
        self.K = sum(si * sj * measure.gram(oi, oj) for si, oi in terms for sj, oj in terms)
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

    def solve_shifted(self, R, AR, y, phi):
        """x = (I + A* Phi A)^{-1} (R + A*(y)) and A(x), given AR = A(R).

        Phi = phi(K) is given by its values at lam.  By the matrix-inversion
        lemma x = R + A*(g) with g = y - Q psi Q^T (A(R) + K y), psi =
        phi / (1 + lam phi), so A(x) = A(R) + K g: one adjoint, no apply.
        """
        psi = phi / (1.0 + self.lam * phi)
        g = y - self.Q @ (psi * (self.Q.T @ (AR + self.K @ y)))
        return R + self.adjoint(g), AR + self.K @ g


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
    A(Z) and a running A(u), and A(x) from ``solve_shifted``.  So an
    iteration costs one apply (of Z) and one adjoint, plus for a Dantzig
    block one apply of its term and one adjoint of b - A(x).  Returns (Z,
    objective trace, iterations, converged).
    """
    phi = sum(A.lam if dantzig else 1.0 for dantzig, _ in blocks)

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
        x, Ax = A.solve_shifted(Z - u, AZ - Au, y, phi)
        Z_prev = Z
        Z, by_product = prox_z(x + u)
        AZ = A.apply(Z)
        r = b - Ax
        for k, (dantzig, prox) in enumerate(blocks):
            s = A.adjoint(r) if dantzig else r
            ws[k] = prox(s + vs[k])
            vs[k] += s - ws[k]
        u += x - Z
        Au += Ax - AZ
        trace.append(objective(by_product, AZ))
        tol = _TOLERANCE * max(1.0, np.linalg.norm(x))  # on the primal and dual residuals
        if np.linalg.norm(x - Z) <= tol and np.linalg.norm(Z - Z_prev) <= tol and it > 10:
            converged = True
            break
    return Z, trace, iters, converged


def _admm_noisy(op, A: _GramMap, b, noise: NoiseSpec, cfg: SolverConfig, X0=None):
    """Schatten-p minimization over a noise set, then a feasibility polish."""
    blocks = []
    if noise.has_lq:
        blocks.append((False, lambda s: project_lq_ball(s, op.L * noise.eta1, noise.q)))
    if noise.has_dantzig:
        blocks.append((True, lambda S: project_spectral_ball(S, noise.eta2)))
    X0 = np.asarray(X0, dtype=float) if X0 is not None else A.pinv(b)
    # the trace entry ||Z||_{S_p}^p sums the shrunk singular values' powers
    X, trace, iters, converged = _admm(
        X0, A, b, lambda V: prox_schatten_p(V, 1.0 / _ADMM_RHO, cfg.p), blocks,
        lambda sigma, _: float(np.sum(sigma**cfg.p)), cfg)
    X, feas_ok = _feasibility_polish(op, A, b, X, noise)
    return X, trace, iters, converged and feas_ok, feas_ok


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


def _restart_inits(op, b, cfg: SolverConfig, count: int):
    """Seeded initial points: None (method default), adjoint image, Gaussians."""
    inits = [None]
    Ab = adjoint_map(op, b)
    nrm = np.linalg.norm(Ab)
    if nrm > 0:
        inits.append(Ab / nrm * max(1.0, np.linalg.norm(b) / max(op.L, 1)))
    inits += [measure._substream(cfg.seed, _STREAM_SOLVER, j).standard_normal((op.m, op.n))
              for j in range(count - len(inits))]
    return inits[:count]


def _unique_feasible_point(op, b):
    """The one solution of A(X) = b when the map is injective, else None.

    With L >= mn and rank mn the feasible set is a single point, the
    minimizer for every p, so one least-squares solve stands in for IRLS.
    If b is not in the range of A the point is the least-squares fit, and
    the equality slack reports the miss.  A rank-deficient map (a
    symmetric ensemble has rank at most m(m+1)/2) gives None.  Past the
    explicit-operator cap the ResourceError stands, as L >= mn > 4096
    puts IRLS's Gram past its cap too.
    """
    mn = op.m * op.n
    if op.L < mn:
        return None
    x, _, rank, _ = np.linalg.lstsq(measure.explicit_operator(op), b, rcond=None)
    return x.reshape(op.m, op.n) if rank == mn else None


@_single_blas_thread()
def schatten_p_minimize(op, b, noise: NoiseSpec, cfg: SolverConfig) -> RecoveryReport:
    """min ||X||_{S_p}^p subject to b - A(X) in B, the noise set of ``noise``.

    Kind "none" (B = {0}) with an injective map is one least-squares
    solve, reported as one iteration; otherwise it runs IRLS once, from
    the minimum-Frobenius point.  The other kinds run ADMM, at p < 1 from
    three seeded starts, keeping the best feasible objective.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (op.L,):
        raise ValueError("measurement length does not match the map")

    unique = _unique_feasible_point(op, b) if noise.kind == "none" else None
    if unique is not None:
        obj = schatten_norm(unique, cfg.p) ** cfg.p
        best, traces, total_iters, any_converged = (unique, obj), [[obj]], 1, True
    elif noise.kind == "none":
        X, trace, total_iters, any_converged = _irls_equality(op, b, cfg.p, cfg)
        best, traces = (X, schatten_norm(X, cfg.p) ** cfg.p), [trace]
    else:
        # Convex case needs no restarts; nonconvex p gets them.
        A = _GramMap(op)
        best, traces, total_iters, any_converged = None, [], 0, False
        for X0 in _restart_inits(op, b, cfg, 1 if cfg.p == 1.0 else _RESTARTS):
            X, trace, iters, conv, feas_ok = _admm_noisy(op, A, b, noise, cfg, X0=X0)
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
    converged = any_converged and feasible
    return RecoveryReport(
        estimate=X, iterations_used=total_iters, final_objective=obj,
        constraint_slack=slacks, converged=converged,
        objective_traces=traces, method=f"schatten-p(p={cfg.p})",
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

    # Warm starts: the adjoint image, least squares, and IRLS-l1, whose
    # reweighted sweeps down-weight the gross outliers least squares follows.
    # With A(X) = Q y the minimum-norm X is A* Q (y / lam), so sweeps fit y.
    A = _GramMap(op)
    y = A.Q.T @ b
    for _ in range(8):
        w = 1.0 / np.sqrt(np.abs(A.Q @ y - b) + 1e-8)
        y, *_ = np.linalg.lstsq(A.Q * w[:, None], b * w, rcond=None)
    starts = (adjoint_map(op, b), A.pinv(b), A.adjoint(A.Q @ (y / A.lam)))
    inits = [retract(X) for X in starts if np.linalg.norm(X) > 0]
    inits += [retract(measure._substream(cfg.seed, _STREAM_SOLVER, 100 + j)
                      .standard_normal((m, n))) for j in range(_RESTARTS - len(inits))]

    best, traces, total_iters, any_converged = None, [], 0, False
    for X0 in inits:
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
    A = _GramMap(plus, minus)
    Z, trace, iters, converged = _admm(
        np.eye(ens.m) / ens.m, A, btilde,
        lambda V: (spectahedron_project(0.5 * (V + V.T)), None),
        [(False, lambda s: prox_power(s, 1.0 / _ADMM_RHO, 1.0))],
        lambda _, AZ: float(np.linalg.norm(AZ - btilde, 1)), cfg)
    return RecoveryReport(
        estimate=Z, iterations_used=iters, final_objective=trace[-1],
        constraint_slack={"trace": 1.0 - float(np.trace(Z)),
                          "min_eigenvalue": float(np.linalg.eigvalsh(Z).min())},
        converged=converged, objective_traces=[trace], method="phaselift-lad")
