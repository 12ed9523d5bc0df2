"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own code paths (and
numpy's SVD where the point is to check an SVD): eigenvalues come from a
cyclic Jacobi iteration, projections from brute-force threshold scans,
small nonconvex minimizers from grid search with local refinement, the
scalar prox of lam*|z|^p from a per-coordinate Newton solve with a grid
fallback, and the lq-ball projection from a bisection on its shrinkage.
"""

import numpy as np

_PROX_GRID_POINTS = 4096


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


def lq_ball_bisection(v, radius, q, shrink):
    """Projection onto {||w||_q <= radius}, 0 < q < 1, as shrink(v, lam, q) at
    the smallest lam whose point is in the ball: a doubling search for a
    feasible lam, then bisection until the bracket stops shrinking.  The
    mass sum |shrink(v, lam, q)|^q only has to fall with lam.

    Where a coordinate jumps to 0 between the final bracket's ends, the
    limit from below at its feasible end keeps that coordinate at its value
    at the infeasible end; that point is nearer to v, and is returned when
    it is in the ball."""
    v = np.asarray(v, dtype=float)
    target = radius**q
    if np.sum(np.abs(v) ** q) <= target or radius == 0.0:
        return v.copy() if radius > 0 else np.zeros_like(v)
    lo, hi = 0.0, 1.0
    while np.sum(np.abs(shrink(v, hi, q)) ** q) > target:
        hi *= 2.0
        if hi > 1e16:
            return np.zeros_like(v)
    # lo stays infeasible and hi feasible, down to adjacent floats
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if np.sum(np.abs(shrink(v, mid, q)) ** q) > target:
            lo = mid
        else:
            hi = mid
    w, below = shrink(v, hi, q), shrink(v, lo, q)
    limit = np.where((w == 0) & (below != 0), below, w)
    return limit if np.sum(np.abs(limit) ** q) <= target else w


def jacobi_eigenvalues(A, sweeps=60):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        return A.ravel().copy()
    scale = max(1.0, np.abs(A).max())
    for _ in range(sweeps):
        off = np.sqrt(np.sum(A**2) - np.sum(np.diag(A) ** 2))
        if off <= 1e-14 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-30 * scale:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = c
                J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))[::-1]


def debiased_stack(betas):
    """Debiased SROP matrices a_{2j} a_{2j}^T - a_{2j+1} a_{2j+1}^T as an explicit
    (floor(L/2), m, m) stack; an odd final row is dropped."""
    Lt = betas.shape[0] // 2
    odd = betas[0:2 * Lt:2]
    even = betas[1:2 * Lt:2]
    return np.einsum("ji,jk->jik", odd, odd) - np.einsum("ji,jk->jik", even, even)


def oracle_singular_values(X):
    """Singular values via Jacobi on the smaller Gram matrix."""
    X = np.asarray(X, dtype=float)
    G = X @ X.T if X.shape[0] <= X.shape[1] else X.T @ X
    w = np.clip(jacobi_eigenvalues(G), 0.0, None)
    return np.sqrt(w)


def simplex_project_oracle(v, grid=20001):
    """Probability-simplex projection by brute-force threshold bisection."""
    v = np.asarray(v, dtype=float)

    def mass(theta):
        return np.sum(np.maximum(v - theta, 0.0))

    lo, hi = v.min() - 1.0, v.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def best_rank1_2x2(X, grid=181):
    """Frobenius-best rank-1 approximation of a 2x2 matrix by grid search.

    Parameterizes candidates as s * u(theta) v(phi)^T with the optimal
    scale s in closed form per direction pair, then refines the grid
    winner locally.
    """
    X = np.asarray(X, dtype=float)

    def err(theta, phi):
        u = np.array([np.cos(theta), np.sin(theta)])
        v = np.array([np.cos(phi), np.sin(phi)])
        s = u @ X @ v  # optimal scale for unit u, v
        return np.linalg.norm(X - s * np.outer(u, v)), s, u, v

    thetas = np.linspace(0.0, np.pi, grid)
    best = None
    for th in thetas:
        for ph in thetas:
            e = err(th, ph)
            if best is None or e[0] < best[0][0]:
                best = (e, th, ph)
    (e0, s, u, v), th, ph = best
    span = np.pi / (grid - 1)
    for _ in range(40):  # local bisection-style refinement
        improved = False
        for dth in (-span, 0.0, span):
            for dph in (-span, 0.0, span):
                e = err(th + dth, ph + dph)
                if e[0] < e0:
                    e0, s, u, v = e
                    th, ph = th + dth, ph + dph
                    improved = True
        span *= 0.5
        if span < 1e-12 and not improved:
            break
    return s * np.outer(u, v), e0


def rank1_fit_objective_2x2(betas, gammas, b, p, grid=181):
    """Global grid search for min ||X||_{S_p}^p over rank-1 2x2 matrices
    consistent with the measurements; returns (objective, residual).

    Used where the feasible set is known to contain a rank-1 point, so
    the residual at the winner should be ~0 and the objective |s|^p.
    """
    thetas = np.linspace(0.0, np.pi, grid)
    U = np.stack([np.cos(thetas), np.sin(thetas)])  # 2 x grid
    Bu = betas @ U  # L x grid
    Gv = gammas @ U
    a = Bu[:, :, None] * Gv[:, None, :]  # L x grid x grid
    num = np.einsum("j,jtp->tp", b, a)
    den = np.einsum("jtp,jtp->tp", a, a)
    s = num / np.maximum(den, 1e-300)
    res2 = np.einsum("j,j->", b, b) - num * s
    ti, pi = np.unravel_index(np.argmin(res2), res2.shape)
    th, ph = thetas[ti], thetas[pi]

    def at(theta, phi):
        u = np.array([np.cos(theta), np.sin(theta)])
        v = np.array([np.cos(phi), np.sin(phi)])
        aj = (betas @ u) * (gammas @ v)
        sc = (b @ aj) / (aj @ aj)
        return float(np.linalg.norm(aj * sc - b)), sc

    from scipy.optimize import minimize

    out = minimize(lambda ang: at(ang[0], ang[1])[0], [th, ph],
                   method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    r0, sc = at(out.x[0], out.x[1])
    return abs(sc) ** p, r0


def rub_extrema_per_trial(op, r, q, trials, seed, stream, apply_map):
    """(min, max, mean) of ||A(X)||_q^q / L over the RUB test matrices, with a
    new Philox per trial t keyed (seed, stream << 32 | t), each drawing a
    unit-norm Gaussian-factor rank-r matrix."""
    ratios = []
    for t in range(trials):
        key = np.array([seed & (2**64 - 1), (stream << 32) | t], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        X = rng.standard_normal((op.m, r)) @ rng.standard_normal((op.n, r)).T
        X /= np.linalg.norm(X)
        ratios.append(np.sum(np.abs(apply_map(op, X)) ** q) / op.L)
    return min(ratios), max(ratios), float(np.mean(ratios))
