import contextlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from roprec import certify, harness, linalg, measure, solvers
from roprec.measure import NoiseSpec
from roprec.solvers import SolverConfig

from _oracles import debiased_stack, lq_ball_bisection, prox_power_scalar

rng = np.random.default_rng(77)


def _planted(m, n, r, L, seed=0):
    ens = measure.sample_gaussian_rop(m, n, L, seed=seed)
    g = np.random.default_rng(seed + 1)
    X0 = g.standard_normal((m, r)) @ g.standard_normal((n, r)).T
    X0 /= np.linalg.norm(X0)
    return ens, X0, measure.apply_map(ens, X0)


# ---------------------------------------------------------------------------
# proximal machinery


def test_prox_p1_soft_threshold():
    assert solvers.prox_power(3.0, 1.0, 1.0) == pytest.approx(2.0)
    assert solvers.prox_power(-0.5, 1.0, 1.0) == 0.0


def test_prox_matches_grid_search():
    g = np.random.default_rng(5)
    for p in (0.5, 2.0 / 3.0, 0.9):
        for _ in range(17):
            lam = g.uniform(0.05, 2.0)
            s = g.uniform(-4.0, 4.0)
            z = solvers.prox_power(s, lam, p)
            grid = np.linspace(-abs(s) - 1.0, abs(s) + 1.0, 10_000)
            vals = lam * np.abs(grid) ** p + 0.5 * (grid - s) ** 2
            best = grid[np.argmin(vals)]
            obj = lambda t: lam * abs(t) ** p + 0.5 * (t - s) ** 2
            assert obj(z) <= obj(best) + 1e-4


def _jump_threshold(lam, p):
    """|s| at which the prox jumps from 0; 0 and the nonzero root tie there."""
    if p == 1.0:
        return lam
    return (2.0 - p) / (2.0 - 2.0 * p) * (2.0 * lam * (1.0 - p)) ** (1.0 / (2.0 - p))


def test_prox_matches_scalar_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(p=st.sampled_from([0.5, 2.0 / 3.0, 0.9, 1.0]),
                      lam=st.just(0.0) | st.floats(1e-6, 100.0),
                      s=st.just(0.0) | st.floats(-1e3, 1e3),
                      at_threshold=st.booleans(), negative=st.booleans())
    def check(p, lam, s, at_threshold, negative):
        if at_threshold:
            s = -_jump_threshold(lam, p) if negative else _jump_threshold(lam, p)
        z = solvers.prox_power(np.array([s]), lam, p)[0]
        z_ref = prox_power_scalar(s, lam, p)
        if p < 1.0 and lam > 0.0 and abs(abs(s) - _jump_threshold(lam, p)) <= \
                1e-12 * abs(s):
            # At the jump both 0 and the nonzero root are minimizers, and
            # rounding picks one: both answers must reach the same minimum.
            obj = lambda t: lam * abs(t) ** p + 0.5 * (t - s) ** 2
            assert obj(z) == pytest.approx(obj(z_ref), rel=1e-12)
            return
        assert (z == 0.0) == (z_ref == 0.0)
        assert abs(z - z_ref) <= 1e-12 * max(1.0, abs(s))

    check()


def _oracle_shrink(v, lam, q):
    return np.array([prox_power_scalar(x, lam, q) for x in v])


@pytest.mark.parametrize("q", [0.5, 0.8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lq_ball_projection_matches_scalar_bisection(q, seed):
    g = np.random.default_rng(seed)
    v = g.standard_normal(150) * g.uniform(0.01, 3.0)
    radius = 0.2 * np.sum(np.abs(v) ** q) ** (1.0 / q)
    w = solvers.project_lq_ball(v, radius, q)
    w_ref = lq_ball_bisection(v, radius, q, _oracle_shrink)
    assert np.array_equal(w == 0.0, w_ref == 0.0)
    assert np.max(np.abs(w - w_ref)) <= 1e-12 * max(1.0, np.max(np.abs(v)))
    assert np.sum(np.abs(w) ** q) <= radius**q
    assert 0 < np.count_nonzero(w) < v.size


def test_lq_ball_projection_matches_bisection_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    calls, prox = [], solvers.prox_power

    def counted(*args):
        calls.append(1)
        return prox(*args)

    monkeypatch.setattr(solvers, "prox_power", counted)

    # v on the sphere to rounding (radius^q one ulp below the mass): the
    # crossing is at lam ~ 1e-16, where Newton once took 48 shrinkages; a
    # jump mass equal to the target to rounding, once 44; and a feasible jump
    # point exactly on the sphere (L = 1, q = 2/3, radius |v|/2), where the
    # projection once returned 0, twice as far from v
    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.example(q=2.0 / 3.0, L=4, scale=1.0, fraction=1.0, ties=False, seed=4)
    @hypothesis.example(q=2.0 / 3.0, L=1, scale=1.0, fraction=0.5, ties=False, seed=2917398537)
    @hypothesis.example(q=2.0 / 3.0, L=1, scale=58.0, fraction=0.5, ties=False, seed=1)
    @hypothesis.given(q=st.sampled_from([0.5, 2.0 / 3.0, 0.9]), L=st.integers(1, 40),
                      scale=st.floats(1e-3, 1e3), fraction=st.floats(0.0, 1.5),
                      ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def check(q, L, scale, fraction, ties, seed):
        v = np.random.default_rng(seed).standard_normal(L) * scale
        if ties:
            v[: L // 2] = v[0]
        # fraction > 1 puts v inside the ball
        radius = fraction * np.sum(np.abs(v) ** q) ** (1.0 / q)
        calls.clear()
        w = solvers.project_lq_ball(v, radius, q)
        # a search over at most 40 breakpoints and a few Newton steps, where
        # bisecting to rounding takes about 50 shrinkages
        assert len(calls) <= 30
        w_ref = lq_ball_bisection(v, radius, q, prox)
        assert np.sum(np.abs(w) ** q) <= radius**q
        assert np.sum(np.abs(w_ref) ** q) <= radius**q
        off = np.abs(w - w_ref) > 1e-10 * max(1.0, np.max(np.abs(v)))
        if np.any(off):
            # Only at a one-ulp tie: the two compute the jump size along
            # different float paths, so where the point just below the jump
            # has mass within rounding of the target, one may keep the
            # breaking coordinates at the jump and the other zero them.
            held, zeroed = (w, w_ref) if np.all(w_ref[off] == 0) else (w_ref, w)
            assert np.all(zeroed[off] == 0) and np.all(held[off] != 0)
            # the differing coordinates break at one shrinkage, so share |v|,
            # and are held at the jump size (2 - 2q)/(2 - q)|v| of that breakpoint
            assert np.all(np.abs(v[off]) == np.abs(v[off][0]))
            assert np.allclose(held[off], v[off] * (2 - 2 * q) / (2 - q), rtol=1e-10, atol=0.0)
            jump_mass = np.sum(np.abs(held) ** q)
            assert abs(jump_mass - radius**q) <= L * np.finfo(float).eps * radius**q

    check()


def test_lq_ball_projection_keeps_a_feasible_jump_point():
    # q = 1/2: the 6s jump to 0 from 4, each of mass 2, so the point just
    # below their breakpoint has mass 4 = radius^q to rounding, and is in the
    # ball; 0 there would be farther from v
    w = solvers.project_lq_ball(np.array([6.0, -6.0, 1e-3]), 16.0, 0.5)
    assert np.sum(np.abs(w) ** 0.5) <= 4.0
    assert np.allclose(w, [4.0, -4.0, 0.0], rtol=1e-15, atol=0.0)


def test_lq_ball_projection_needs_few_shrinkages(monkeypatch):
    # the p = q = 0.5 recover cell of the benchmark: m = n = 13, L = 150
    m, L = 13, 150
    ens, X0, b_clean = _planted(m, m, 1, L, seed=0)
    spec = NoiseSpec(kind="lq_bounded", q=0.5, eta1=0.01)
    b = b_clean + measure.generate_noise(spec, ens, seed=0)
    calls, inside = [], []
    prox, project = solvers.prox_power, solvers.project_lq_ball

    def prox_spy(*args):
        if inside:
            calls[-1] += 1
        return prox(*args)

    def project_spy(*args):
        calls.append(0)
        inside.append(1)
        try:
            return project(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(solvers, "prox_power", prox_spy)
    monkeypatch.setattr(solvers, "project_lq_ball", project_spy)
    # one ADMM run of 300 iterations, one projection each, plus the polish's
    solvers.schatten_p_minimize(ens, b, spec, SolverConfig(p=0.5, q=0.5, max_iterations=300))
    assert len(calls) > 300
    assert max(calls) <= 15


def test_prox_schatten_soft_threshold_matrix():
    out, sigma = solvers.prox_schatten_p(np.diag([3.0, 1.0]), 1.0, 1.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-10)
    assert np.array_equal(sigma, [2.0, 0.0])


def test_l1_ball_projection():
    v = np.array([3.0, -1.0, 0.5])
    w = solvers.project_l1_ball(v, 2.0)
    assert np.linalg.norm(w, 1) == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(solvers.project_l1_ball(v, 10.0), v)


def test_lq_ball_projection_hits_boundary():
    v = rng.standard_normal(8) * 3.0
    for q in (0.5, 0.8):
        w = solvers.project_lq_ball(v, 1.5, q)
        assert np.sum(np.abs(w) ** q) <= 1.5**q + 1e-6


def test_spectral_ball_projection():
    Y = np.diag([3.0, 0.5])
    out = solvers.project_spectral_ball(Y, 1.0)
    assert np.allclose(np.linalg.svd(out, compute_uv=False), [1.0, 0.5], atol=1e-10)


# ---------------------------------------------------------------------------
# Schatten-p minimization


# The equality tests run each check on an injective instance (L >= mn: one
# least-squares solve) and on one with L < mn, which runs IRLS.


def test_equality_convex_recovers_planted_rank1():
    for L in (120, 48):
        ens, X0, b = _planted(8, 8, 1, L, seed=1)
        report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                             SolverConfig(p=1.0, max_iterations=300))
        err = np.linalg.norm(report.estimate - X0) / np.linalg.norm(X0)
        assert err <= 1e-3
        assert report.globally_optimal


def test_equality_zero_measurements_give_zero():
    for L, p in ((30, 1.0), (12, 1.0), (12, 0.5)):
        ens = measure.sample_gaussian_rop(4, 4, L, seed=2)
        report = solvers.schatten_p_minimize(ens, np.zeros(L),
                                             NoiseSpec(kind="none"),
                                             SolverConfig(p=p, max_iterations=100))
        assert np.allclose(report.estimate, 0.0, atol=1e-8)
        assert report.final_objective == pytest.approx(0.0, abs=1e-8)
        # with L < mn the minimum-Frobenius point is 0, and IRLS stops there
        assert report.iterations_used == 1 and report.converged


def test_capped_p1_irls_claims_no_global_optimum():
    # with 300 iterations the same solve converges and claims it (above)
    ens, X0, b = _planted(8, 8, 1, 48, seed=1)
    report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                         SolverConfig(p=1.0, max_iterations=5))
    assert not report.converged and not report.globally_optimal


def test_nonconvex_beats_truth_objective_2x2():
    ens, X0, b = _planted(2, 2, 1, 5, seed=3)
    cfg = SolverConfig(p=0.5, max_iterations=300)
    report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg)
    truth_obj = linalg.schatten_norm(X0, 0.5) ** 0.5
    assert report.final_objective <= truth_obj + 1e-6


def test_irls_objective_trace_monotone():
    # L = 24 < mn runs IRLS once; L = 60 >= mn is injective, one solve with
    # a one-entry trace
    for L, restarts in ((24, 1), (60, 1)):
        ens, X0, b = _planted(6, 6, 1, L, seed=4)
        report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                             SolverConfig(p=0.7, max_iterations=200))
        assert len(report.objective_traces) == restarts
        for trace in report.objective_traces:
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


def test_irls_trace_monotone_on_planted_instances():
    # Weights and trace entries from eigh of X X^T, which rounds the tail
    # eigenvalues at u sigma_1^2 (u the unit roundoff) for (w + eps)^{p/2} to
    # amplify at small eps, let 13 of these 60 traces rise, by up to 2e-9
    # relative, even at a decay of 0.3; one SVD per iterate leaves rounding.
    cells = [(m, m, p, L) for p in (0.5, 0.7) for m, L in ((6, 20), (8, 30))]
    cells += [(4, 7, 0.5, 18), (7, 4, 0.5, 18)]
    for m, n, p, L in cells:
        for seed in range(10):
            ens, _, b = _planted(m, n, 1, L, seed=seed)
            _, trace, _, converged = solvers._irls_equality(
                ens, b, p, SolverConfig(p=p, max_iterations=200))
            assert converged
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))), \
                (m, n, p, L, seed)


@pytest.mark.parametrize("m, n", [(3, 5), (5, 3)])
def test_svd_weights_match_explicit_eigendecomposition(m, n):
    # both sides of a non-square X: the shorter side's Gram has n - m (or
    # m - n) zero eigenvalues, which the padded singular values keep
    X = np.random.default_rng(m * 10 + n).standard_normal((m, n))
    left, right = solvers._svd_eigenpairs(X)
    for S, pair in ((X @ X.T, left), (X.T @ X, right)):
        w, Q = np.linalg.eigh(S + 0.01 * np.eye(S.shape[0]))
        for p in (0.5, 0.7, 1.0):
            expected = (Q * w ** (1.0 - p / 2.0)) @ Q.T
            assert np.allclose(solvers._inverse_weight(*pair, 0.01, p), expected,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("m, n", [(3, 5), (5, 3), (4, 4)])
def test_svd_eigenpairs_match_padded_reference(m, n):
    # the eigenvalues pad s^2 with zeros only where a side exceeds min(m, n)
    X = np.random.default_rng(m * 10 + n).standard_normal((m, n))
    U, s, Vt = np.linalg.svd(X)
    expected = ((np.pad(s**2, (0, m - s.size)), U), (np.pad(s**2, (0, n - s.size)), Vt.T))
    for got, ref in zip(solvers._svd_eigenpairs(X), expected):
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m, n, L, symmetric", [(5, 4, 14, False), (4, 4, 30, True)])
def test_wls_solver_reuses_its_gram_buffers(m, n, L, symmetric):
    # One solver's Gram buffers serve every call: calls alternating the
    # one-sided and the harmonic-mean step, each with new weights, give the
    # bits of a fresh solver, and no result shares memory with an earlier one
    # or changes after it.  The symmetric map at m = 4, L = 30 is past its
    # rank bound of 10, so its Gram is solved by gelsy.
    ens = measure.sample_gaussian_rop(m, n, L, symmetric=symmetric, seed=L)
    assert (L > solvers._rank_bound(ens)) == symmetric
    g = np.random.default_rng(L)
    solve = solvers._wls_solver(ens)
    results, expected = [], []
    for k in range(6):
        left, right = solvers._svd_eigenpairs(g.standard_normal((m, n)))
        eps = 10.0 ** -k
        W_L = solvers._inverse_weight(*left, eps, 0.5)
        W_R = solvers._inverse_weight(*right, eps, 0.5) if k % 2 else None
        b = g.standard_normal(L)
        X = solve(W_L, b, W_R)
        expected.append(solvers._wls_solver(ens)(W_L, b, W_R).tobytes())
        assert X.tobytes() == expected[-1], k
        assert not any(np.shares_memory(X, earlier) for earlier in results), k
        results.append(X)
    assert [X.tobytes() for X in results] == expected


def test_solve_psd_reads_only_the_grams_upper_triangle(monkeypatch):
    # An IRLS Gram from gemm is not bitwise symmetric; the Cholesky must read
    # the upper triangle alone, so G and its upper triangle mirrored give the
    # same bits.  _lstsq raises, so both solves are the Cholesky's.
    grams, solve_psd = [], solvers._solve_psd

    def spy(G, b):
        grams.append((G.copy(), b))
        return solve_psd(G, b)

    monkeypatch.setattr(solvers, "_solve_psd", spy)
    m = n = 20
    L = 240
    ens = measure.sample_gaussian_rop(m, n, L, seed=3)
    assert L <= solvers._rank_bound(ens)
    g = np.random.default_rng(3)
    left, right = solvers._svd_eigenpairs(g.standard_normal((m, n)))
    W_L = solvers._inverse_weight(*left, 0.01, 0.5)
    W_R = solvers._inverse_weight(*right, 0.01, 0.5)
    solvers._wls_solver(ens)(W_L, g.standard_normal(L), W_R)
    [(G, b)] = grams

    def no_lstsq(*args, **kwargs):
        raise AssertionError("the Cholesky branch did not return")

    monkeypatch.setattr(solvers, "_lstsq", no_lstsq)
    assert not np.array_equal(G, G.T)
    S = np.triu(G) + np.triu(G, 1).T
    assert solve_psd(G, b).tobytes() == solve_psd(S, b).tobytes()


@pytest.mark.parametrize("p", [0.5, 0.7])
def test_equality_irls_runs_one_start(p):
    # below L = mn IRLS runs once, from the minimum-Frobenius point, so the
    # solver seed has nothing to act on
    ens, _, b = _planted(6, 6, 1, 24, seed=4)
    reports = [solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                           SolverConfig(p=p, max_iterations=200, seed=seed))
               for seed in (0, 12345)]
    for report in reports:
        [trace] = report.objective_traces
        assert report.iterations_used == len(trace)
    assert reports[0].estimate.tobytes() == reports[1].estimate.tobytes()


def test_harmonic_mean_gram_matches_explicit_operator(monkeypatch):
    # The weighted least-squares step at p < 1: its Gram from the Hadamard
    # formula against M H M^T with H = (W_L (x) I + I (x) W_R) / 2 on the
    # row-major vectorization, and its X against H M^T (M H M^T)^{-1} b.
    grams, solve_psd = [], solvers._solve_psd

    def spy(G, b):
        grams.append(G)
        return solve_psd(G, b)

    monkeypatch.setattr(solvers, "_solve_psd", spy)
    g = np.random.default_rng(41)
    for m, n, L, p in ((3, 5, 9, 0.5), (6, 4, 17, 0.7), (2, 7, 11, 0.5), (5, 3, 14, 1.0)):
        ens = measure.sample_gaussian_rop(m, n, L, seed=m * n + L)
        M = measure.explicit_operator(ens)
        X = g.standard_normal((m, n))
        left, right = solvers._svd_eigenpairs(X)
        W_L = solvers._inverse_weight(*left, 0.01, p)
        W_R = solvers._inverse_weight(*right, 0.01, p)
        b = g.standard_normal(L)
        for H, W in ((np.kron(W_L, np.eye(n)), None),
                     (0.5 * (np.kron(W_L, np.eye(n)) + np.kron(np.eye(m), W_R)), W_R)):
            Xs = solvers._wls_solver(ens)(W_L, b, W)
            G = M @ H @ M.T
            assert np.allclose(grams[-1], G, rtol=0, atol=1e-12 * np.abs(G).max())
            assert np.linalg.norm(M @ Xs.ravel() - b) <= 1e-10 * np.linalg.norm(b)
            x = H @ M.T @ np.linalg.solve(G, b)
            assert np.allclose(Xs.ravel(), x, rtol=0, atol=1e-10 * np.abs(x).max())


def test_harmonic_mean_irls_needs_few_iterations():
    # Criterion 04's matched cell and seeds, m=n=20, r=2, L=240, p=1/2.
    # final_objective sums sigma^p over all 20 singular values: the 18 the
    # solve leaves at ~1e-8 add their square roots, 9e-4 relative, so the
    # comparison with the truth counts the ones above 1e-6 sigma_1.
    for t in range(3):
        seed = harness.derive_seed(2026, 0, 0, t)
        X0 = harness.plant_truth(20, 20, 2, seed)
        ens = measure.sample_gaussian_rop(20, 20, 240, seed=seed)
        report = solvers.schatten_p_minimize(
            ens, measure.apply_map(ens, X0), NoiseSpec(kind="none"),
            SolverConfig(p=0.5, max_iterations=200, seed=seed))
        assert len(report.objective_traces) == 1
        assert all(len(trace) <= 12 for trace in report.objective_traces)
        assert report.converged
        assert np.linalg.norm(report.estimate - X0) <= 1e-6  # ||X0|| = 1
        sigma = linalg.singular_values(report.estimate)
        assert report.final_objective == pytest.approx(np.sum(sigma**0.5), rel=1e-12)
        truth = np.sum(linalg.singular_values(X0)[:2] ** 0.5)
        assert np.sum(sigma[sigma > 1e-6 * sigma[0]] ** 0.5) <= truth * (1.0 + 1e-6)


def _check_scaling_equivariance(L):
    ens, X0, b = _planted(5, 5, 1, L, seed=5)
    cfg = SolverConfig(p=1.0, max_iterations=300)
    base = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg)
    scaled = solvers.schatten_p_minimize(ens, 3.0 * b, NoiseSpec(kind="none"), cfg)
    rel = np.linalg.norm(scaled.estimate - 3.0 * base.estimate) \
        / max(1.0, np.linalg.norm(3.0 * base.estimate))
    assert rel <= 1e-6


def test_scaling_equivariance_equality():
    _check_scaling_equivariance(50)


# IRLS's smoothing eps is relative to ||X_mf||_F^2, so b and 3b run the
# same iterates up to the factor 3.
def test_scaling_equivariance_equality_irls():
    _check_scaling_equivariance(20)


def test_cone_constraint_on_solver_output():
    # The cone lemma on the actual solver residual R = Xhat - X0.  Its proof
    # starts from ||X0 + R||_p^p <= ||X0||_p^p + delta and carries delta
    # through, so an estimate whose objective exceeds the truth's by delta
    # gets delta of slack: rounding alone makes delta 7e-8 at L = 90, and
    # IRLS stops 1e-3 above the truth's objective at L = 30.
    p, r = 0.5, 2
    for L in (90, 30):
        ens, X0, b = _planted(6, 6, r, L, seed=6)
        report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                             SolverConfig(p=p, max_iterations=200))
        delta = linalg.schatten_norm(report.estimate, p) ** p - linalg.schatten_norm(X0, p) ** p
        Rs = linalg.rank_split(report.estimate - X0, r)
        Xs = linalg.rank_split(X0, r)
        lhs = linalg.schatten_norm(Rs.tail, p) ** p
        rhs = 2.0 * linalg.schatten_norm(Xs.tail, p) ** p + linalg.schatten_norm(Rs.head, p) ** p
        assert lhs <= rhs + max(0.0, delta) + 1e-8


@pytest.mark.parametrize("kind, m, L, seed, p", [
    ("lq_bounded", 6, 80, 7, 1.0),
    ("dantzig", 5, 60, 8, 1.0),
    ("intersection", 6, 80, 0, 1.0),
    ("intersection", 6, 80, 0, 0.5),
    ("intersection", 6, 80, 3, 0.5),
], ids=["lq_bounded", "dantzig", "intersection", "intersection-nonconvex",
        "intersection-nonconvex-seed3"])
def test_noisy_feasible_at_exit(kind, m, L, seed, p):
    ens, X0, b_clean = _planted(m, m, 1, L, seed=seed)
    # the solver's constraint set is the set the noise is drawn onto
    spec = NoiseSpec(kind=kind, q=1.0, eta1=0.01, eta2=0.5)
    b = b_clean + measure.generate_noise(spec, ens, seed=seed)
    report = solvers.schatten_p_minimize(ens, b, spec,
                                         SolverConfig(p=p, max_iterations=400))
    ok, _ = measure.check_feasible(spec, ens, b - measure.apply_map(ens, report.estimate),
                                   tol=1e-6)
    assert ok
    err = np.linalg.norm(report.estimate - X0)
    assert err <= 0.2  # coarse: noise level 0.01 per measurement


@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("budget", [1, 2, 7, 60])
def test_admm_trace_entry_is_the_objective_of_the_returned_iterate(monkeypatch, p, budget):
    # ADMM's trace entry comes from the shrunk singular values, not a second
    # SVD; the polish after ADMM is switched off so Z is ADMM's own.  An SVD
    # of Z returns the singular values that the shrinkage set to 0 as
    # rounding, ~1e-16, whose square roots would add ~1e-8 at p = 1/2: the
    # recomputation counts those below numpy's rank tolerance as 0.
    monkeypatch.setattr(solvers, "_feasibility_polish", lambda op, A, b, X, noise: (X, True))
    ens, X0, b_clean = _planted(6, 6, 1, 80, seed=7)
    spec = NoiseSpec(kind="lq_bounded", q=p, eta1=0.01)
    b = b_clean + measure.generate_noise(spec, ens, seed=7)
    Z, trace, iters, _ = solvers._admm_noisy(
        ens, solvers._GramMap(ens), b, spec, SolverConfig(p=p, q=p, max_iterations=budget))
    assert len(trace) == iters <= budget
    sigma = linalg.singular_values(Z)
    sigma = sigma[sigma > max(Z.shape) * np.finfo(float).eps * sigma[0]]
    assert trace[-1] == pytest.approx(np.sum(sigma**p), rel=1e-12)
    assert trace[-1] > 0 or budget < 60


@pytest.mark.parametrize("budget", [1, 2, 7, 60])
def test_phaselift_trace_entry_is_the_l1_misfit_of_the_estimate(budget):
    m = 6
    ens = measure.sample_gaussian_rop(m, m, 60, symmetric=True, seed=17)
    x = np.random.default_rng(18).standard_normal(m)
    b = measure.apply_map(ens, np.outer(x, x) / (x @ x))
    report = solvers.phaselift_lad(ens, b, SolverConfig(max_iterations=budget))
    plus, minus, btilde = measure.debias(ens, b)
    misfit = measure.apply_map(plus, report.estimate) - measure.apply_map(minus, report.estimate)
    (trace,) = report.objective_traces
    assert len(trace) == report.iterations_used <= budget
    assert trace[-1] == report.final_objective
    assert trace[-1] == pytest.approx(np.linalg.norm(misfit - btilde, 1), rel=1e-12)


def _c06_draw(t, spec, r=1):
    # criterion 06's geometry: m = n = 12, L = 150, trial t of master seed
    # 2026, the noise drawn onto the set the solver uses, so X0 is feasible
    seed = harness.derive_seed(2026, 0, t)
    ens = measure.sample_gaussian_rop(12, 12, 150, seed=seed)
    X0 = harness.plant_truth(12, 12, r, seed)
    return ens, X0, measure.apply_map(ens, X0) + measure.generate_noise(spec, ens, seed)


@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("kind", [
    "dantzig", "intersection",
    # the polish checks the lq ball with the absolute _FEASIBILITY_TOL, so a
    # residual c times larger is judged on another scale: 3.6e-4 at p = 1
    pytest.param("lq_bounded", marks=pytest.mark.xfail(raises=AssertionError, strict=True)),
])
def test_scaling_equivariance_noisy(kind, p):
    # ADMM's prox weight is relative to ||A^+ b||_F^{2-p}: b, eta and c b,
    # c eta give estimates c apart
    spec = NoiseSpec(kind=kind, q=1.0, eta1=0.01, eta2=0.5)
    cfg = SolverConfig(p=p, max_iterations=400)
    for t in range(3):
        ens, _, b = _c06_draw(t, spec)
        base = solvers.schatten_p_minimize(ens, b, spec, cfg).estimate
        for c in (0.01, 100.0):
            scaled = NoiseSpec(kind=kind, q=1.0, eta1=c * 0.01, eta2=c * 0.5)
            est = solvers.schatten_p_minimize(ens, c * b, scaled, cfg).estimate
            assert np.linalg.norm(est - c * base) <= 1e-6 * np.linalg.norm(c * base), (t, c)


@pytest.mark.parametrize("eta1", [0.01, 0.05])
def test_noisy_nuclear_reaches_the_truths_objective(eta1):
    # X0 lies in the set, so the minimum is at most ||X0||_*
    spec = NoiseSpec(kind="lq_bounded", q=1.0, eta1=eta1)
    for t in range(8):
        ens, X0, b = _c06_draw(t, spec)
        report = solvers.schatten_p_minimize(ens, b, spec, SolverConfig(max_iterations=400))
        assert report.final_objective <= linalg.schatten_norm(X0, 1.0) * (1.0 + 1e-3), t


@pytest.mark.parametrize("r", [1, 2])
def test_noisy_nonconvex_lq_past_mn_ends_feasible(r):
    # p = 0.5, q = 1 with L = 150 > mn: the bench's known-defect probe, which
    # an absolute prox weight left outside the lq ball after the polish
    spec = NoiseSpec(kind="lq_bounded", q=1.0, eta1=0.01)
    for t in range(8):
        ens, _, b = _c06_draw(t, spec, r=r)
        report = solvers.schatten_p_minimize(ens, b, spec,
                                             SolverConfig(p=0.5, max_iterations=400))
        assert report.constraint_slack["lq"] >= -1e-6, t


# ROADMAP item 1: at p = q = 0.5 over the lq ball the feasibility polish misses
# the set on each of these draws, so a polish that reaches it shows as an XPASS
@pytest.mark.xfail(strict=True, raises=solvers.SolverError)
def test_noisy_p_q_half_lq_polish_reaches_the_set():
    spec = NoiseSpec(kind="lq_bounded", q=0.5, eta1=0.01)
    for t in range(4):
        ens, _, b = _c06_draw(t, spec)
        report = solvers.schatten_p_minimize(ens, b, spec,
                                             SolverConfig(p=0.5, q=0.5, max_iterations=400))
        assert report.constraint_slack["lq"] >= -1e-6, t


@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("kind", ["lq_bounded", "dantzig", "intersection"])
def test_noisy_zero_measurements_give_zero(kind, p):
    # b = 0 puts the start A^+ b and the prox weight at 0
    ens = measure.sample_gaussian_rop(5, 5, 40, seed=3)
    spec = NoiseSpec(kind=kind, q=1.0, eta1=0.01, eta2=0.5)
    report = solvers.schatten_p_minimize(ens, np.zeros(40), spec,
                                         SolverConfig(p=p, max_iterations=50))
    assert not np.any(report.estimate)


@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("kind, L", [("none", 24), ("none", 40), ("lq_bounded", 40),
                                     ("dantzig", 40), ("intersection", 40)])
def test_schatten_p_minimize_runs_one_start(kind, L, p):
    # every noise kind and p: one objective trace, and no seed read
    ens, _, b_clean = _planted(6, 6, 1, L, seed=5)
    spec = NoiseSpec(kind=kind, q=1.0, eta1=0.01, eta2=0.5)
    b = b_clean + measure.generate_noise(spec, ens, seed=5)
    reports = [solvers.schatten_p_minimize(ens, b, spec,
                                           SolverConfig(p=p, max_iterations=200, seed=seed))
               for seed in (0, 12345)]
    for report in reports:
        [trace] = report.objective_traces
        assert report.iterations_used == len(trace)
    assert reports[0].estimate.tobytes() == reports[1].estimate.tobytes()


def test_nuclear_baseline_agrees_with_p1():
    for L in (60, 20):
        ens, X0, b = _planted(5, 5, 1, L, seed=9)
        cfg = SolverConfig(p=0.5, max_iterations=300)  # baseline must override p
        a = solvers.nuclear_norm_baseline(ens, b, NoiseSpec(kind="none"), cfg)
        cfg1 = SolverConfig(p=1.0, max_iterations=300)
        c = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg1)
        assert a.final_objective == pytest.approx(c.final_objective, abs=1e-5)


# ---------------------------------------------------------------------------
# equality with an injective map: one least-squares solve


@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("m, n, r, L, seed", [(5, 5, 1, 60, 9), (4, 6, 2, 30, 2)])
def test_injective_solve_matches_irls(m, n, r, L, seed, p):
    ens, X0, b = _planted(m, n, r, L, seed=seed)
    cfg = SolverConfig(p=p, max_iterations=300)
    report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg)
    X_irls, _, iters, converged = solvers._irls_equality(ens, b, p, cfg)
    assert report.iterations_used == 1 and iters > 1 and converged
    assert report.converged and report.globally_optimal
    assert report.objective_traces == [[report.final_objective]]
    rel = np.linalg.norm(report.estimate - X_irls) / np.linalg.norm(X_irls)
    assert rel <= 1e-10


def test_injective_solve_recovers_planted_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def instances(draw):
        m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        L = draw(st.integers(m * n, m * n + 8))
        r = draw(st.integers(1, min(m, n)))
        return m, n, r, L, draw(st.integers(0, 2**32 - 1))

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(instance=instances(), p=st.sampled_from([1.0, 0.5]))
    def check(instance, p):
        ens, X0, b = _planted(*instance)
        report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                             SolverConfig(p=p, max_iterations=50))
        assert report.iterations_used == 1
        residual = b - measure.apply_map(ens, report.estimate)
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(b)
        assert np.linalg.norm(report.estimate - X0) <= 1e-8  # ||X0|| = 1

    check()


def test_symmetric_ensemble_at_large_L_still_runs_irls(monkeypatch):
    # a symmetric map has rank at most m(m+1)/2 = 10 < mn = 16 even at L = 30,
    # and so has its IRLS Gram, so its Cholesky cannot succeed: every step
    # goes straight to least squares.  With the rank bound lifted, each of
    # the 53 Gram solves (X_mf and 52 iterations) tries the Cholesky first,
    # and the estimate is the same.
    import scipy.linalg

    calls, cho_factor = [], scipy.linalg.cho_factor

    def spy(*args, **kwargs):
        calls.append(1)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", spy)
    m, L = 4, 30
    ens = measure.sample_gaussian_rop(m, m, L, symmetric=True, seed=21)
    assert np.linalg.matrix_rank(measure.explicit_operator(ens)) == 10
    x = np.random.default_rng(22).standard_normal(m)
    X0 = np.outer(x, x) / (x @ x)
    b = measure.apply_map(ens, X0)
    cfg = SolverConfig(p=1.0, max_iterations=300)
    report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg)
    assert report.iterations_used > 1
    assert np.linalg.norm(report.estimate - X0) <= 1e-8
    assert calls == []
    monkeypatch.setattr(solvers, "_rank_bound", lambda op: op.L)
    tried = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg)
    assert len(calls) == tried.iterations_used + 1 == report.iterations_used + 1 == 53
    assert np.linalg.norm(report.estimate - tried.estimate) <= \
        1e-10 * np.linalg.norm(tried.estimate)


def test_injective_inconsistent_measurements_report_slack():
    ens, _, b = _planted(5, 5, 1, 60, seed=9)
    b = b + 0.01 * np.random.default_rng(0).standard_normal(60)
    report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                         SolverConfig(p=1.0, max_iterations=300))
    assert report.iterations_used == 1
    assert not report.converged
    assert report.constraint_slack["equality"] < -1e-3
    x_ls = np.linalg.lstsq(measure.explicit_operator(ens), b, rcond=None)[0]
    assert np.allclose(report.estimate.ravel(), x_ls, rtol=0, atol=1e-12)


def test_unique_feasible_point_uses_numpys_rank_cutoff():
    # gammas equal up to 1e-14: six singular values of the 400 x 9 operator
    # sit near 1e-14 sigma_1, below numpy's cutoff eps * max(L, mn) but well
    # above scipy's default of bare eps, which would call the map injective
    m, L = 3, 400
    ens = measure.sample_gaussian_rop(m, m, L, seed=0)
    g = np.random.default_rng(0)
    gammas = np.tile(ens.gammas[0], (L, 1)) + 1e-14 * g.standard_normal((L, m))
    ens = measure.RopEnsemble(betas=ens.betas, gammas=gammas)
    M = measure.explicit_operator(ens)
    s = np.linalg.svd(M, compute_uv=False)
    assert np.linalg.matrix_rank(M) == m and s[-1] > 20 * np.finfo(float).eps * s[0]
    assert solvers._unique_feasible_point(ens, g.standard_normal(L)) is None


def test_least_squares_refuses_non_finite_input():
    # gelsy does not check its input: on a NaN operator it returns a rank
    # that means nothing, where numpy's gelsd raised
    ens, _, b = _planted(3, 3, 1, 12, seed=5)
    ens.betas[4, 1] = np.nan
    with pytest.raises(ValueError):
        solvers._unique_feasible_point(ens, b)
    ens, _, b = _planted(3, 3, 1, 12, seed=5)
    b[7] = np.inf
    with pytest.raises(ValueError):
        solvers._unique_feasible_point(ens, b)
    G = np.eye(4)
    G[1, 2] = np.inf
    with pytest.raises(ValueError):
        solvers._solve_psd(G, np.ones(4))


def test_well_conditioned_injective_map_solves_by_normal_equations(monkeypatch):
    # criterion 03's cell: cond(E) is about 27, so the Cholesky of E^T E
    # answers and gelsy is never called
    def no_lstsq(*args, **kwargs):
        raise AssertionError("gelsy called on a well-conditioned map")

    monkeypatch.setattr(solvers, "_lstsq", no_lstsq)
    ens, X0, b = _planted(20, 20, 2, 480, seed=3)
    report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                         SolverConfig(p=1.0, max_iterations=200))
    assert report.iterations_used == 1 and report.globally_optimal and report.converged
    x_ls = np.linalg.lstsq(measure.explicit_operator(ens), b, rcond=None)[0]
    assert np.linalg.norm(report.estimate.ravel() - x_ls) <= 1e-12 * np.linalg.norm(x_ls)


def test_ill_conditioned_injective_map_solves_by_gelsy(monkeypatch):
    # gammas one shared row plus 1e-6 noise: rank 9 by numpy's cutoff, but
    # cond(E) = 1.6e6, past what one refinement step of the normal
    # equations can correct, so gelsy answers, bit for bit
    m, L = 3, 400
    ens = measure.sample_gaussian_rop(m, m, L, seed=0)
    g = np.random.default_rng(0)
    gammas = np.tile(ens.gammas[0], (L, 1)) + 1e-6 * g.standard_normal((L, m))
    ens = measure.RopEnsemble(betas=ens.betas, gammas=gammas)
    M = measure.explicit_operator(ens)
    assert np.linalg.matrix_rank(M) == m * m and 1e6 < np.linalg.cond(M) < 1e7
    b = M @ g.standard_normal(m * m)
    calls, lstsq = [], solvers._lstsq

    def spy(*args):
        calls.append(lstsq(*args))
        return calls[-1]

    monkeypatch.setattr(solvers, "_lstsq", spy)
    x = solvers._unique_feasible_point(ens, b)
    assert len(calls) == 1 and calls[0][1] == m * m
    assert np.array_equal(x.ravel(), lstsq(M, b)[0])


def test_unique_feasible_point_at_L_equal_mn():
    # L = mn = 400, the least-conditioned injective maps of criterion 03's size
    for seed in range(8):
        ens, _, b = _planted(20, 20, 2, 400, seed=seed)
        x = solvers._unique_feasible_point(ens, b)
        x_ls = np.linalg.lstsq(measure.explicit_operator(ens), b, rcond=None)[0]
        assert np.linalg.norm(x.ravel() - x_ls) <= 1e-10 * np.linalg.norm(x_ls)


def test_unique_feasible_point_rank_decision_property():
    # None exactly when the explicit operator is rank deficient, on random
    # maps and on degenerate ones: symmetric ensembles (flagged, or with
    # gammas equal to betas but unflagged, so the pivoted QR must see the
    # rank), gammas all equal (rank at most m), L = mn exactly, m or n = 1;
    # a returned point is numpy's (SVD-based) least-squares solution
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(kind=st.sampled_from(["gaussian", "symmetric", "unflagged", "equal"]),
                      m=st.integers(1, 6), n=st.integers(1, 6), extra=st.integers(-2, 12),
                      consistent=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def check(kind, m, n, extra, consistent, seed):
        if kind in ("symmetric", "unflagged"):
            n = m
        L = max(1, m * n + extra)
        ens = measure.sample_gaussian_rop(m, n, L, symmetric=kind == "symmetric", seed=seed)
        if kind == "unflagged":
            ens = measure.RopEnsemble(betas=ens.betas, gammas=ens.betas.copy())
        elif kind == "equal":
            ens = measure.RopEnsemble(betas=ens.betas, gammas=np.tile(ens.gammas[0], (L, 1)))
        M = measure.explicit_operator(ens)
        g = np.random.default_rng(seed)
        b = M @ g.standard_normal(m * n) if consistent else g.standard_normal(L)
        x = solvers._unique_feasible_point(ens, b)
        assert (x is None) == (np.linalg.matrix_rank(M) < m * n)
        if x is not None:
            x_ls = np.linalg.lstsq(M, b, rcond=None)[0]
            assert np.linalg.norm(x.ravel() - x_ls) <= 1e-10 * np.linalg.norm(x_ls)

    check()


def test_injective_check_past_explicit_cap_raises_resource_error():
    # m*n = 4225 is past the explicit-operator cap, and so is the L = 4225
    # Gram IRLS would form: the size check raises before any allocation
    ens, _, b = _planted(65, 65, 1, 65 * 65, seed=9)
    with pytest.raises(measure.ResourceError, match="explicit operator"):
        solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                    SolverConfig(p=1.0, max_iterations=5))


# ---------------------------------------------------------------------------
# the map through its L x L Gram, against the explicit (L, mn) operator


def test_gram_solves_match_explicit_operator_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def ensembles(draw):
        symmetric = draw(st.booleans())
        m = draw(st.integers(1, 6))
        n = m if symmetric else draw(st.integers(1, 6))
        L = draw(st.integers(1, m * n + 8))
        return measure.sample_gaussian_rop(m, n, L, symmetric=symmetric,
                                           seed=draw(st.integers(0, 2**32 - 1)))

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(ens=ensembles(), seed=st.integers(0, 2**32 - 1))
    # a debiased Gram whose halves cancel: rounding at their scale lifts a
    # null eigenvalue over a cut relative to its own largest eigenvalue
    @hypothesis.example(ens=measure.sample_gaussian_rop(1, 1, 4, symmetric=True, seed=317),
                        seed=0)
    def check(ens, seed):
        g = np.random.default_rng(seed)
        M = measure.explicit_operator(ens)
        A = solvers._GramMap(ens)
        # the minimum-norm least-squares solve A^+ d = A*(K^+ d)
        d = g.standard_normal(ens.L)
        x_ls = np.linalg.lstsq(M, d, rcond=None)[0]
        assert np.linalg.norm(A.pinv(d).ravel() - x_ls) <= 1e-9 * max(1.0, np.linalg.norm(x_ls))
        # the ADMM x-update for an lq block, a Dantzig block and both: x solves
        # (I + sum B^T B) x = R + A*(y), and A(x) comes back with it
        R, y = g.standard_normal((ens.m, ens.n)), g.standard_normal(ens.L)
        G = M.T @ M
        for blocks in ((M,), (G,), (M, G)):
            H = np.eye(ens.m * ens.n) + sum(B.T @ B for B in blocks)
            phi = sum(A.lam if B is G else 1.0 for B in blocks)
            x = np.linalg.solve(H, R.ravel() + M.T @ y)
            x_gram, Ax = A.shifted_solver(phi)(R, M @ R.ravel(), y)
            assert np.linalg.norm(x_gram.ravel() - x) <= 1e-10 * max(1.0, np.linalg.norm(x))
            assert np.linalg.norm(Ax - M @ x) <= 1e-10 * max(1.0, np.linalg.norm(M @ x))
        # PhaseLift's debiased map: its Gram, from cross Grams of the halves,
        # is S S^T for the explicit debiased matrix S up to the dropped null
        # eigenvalues; its least squares is lstsq on S, and its x-update (one
        # l1 block) solves I + S^T S.
        if ens.symmetric and ens.L >= 2:
            plus, minus, _ = measure.debias(ens, np.zeros(ens.L))
            D = solvers._GramMap(plus, minus)
            S = debiased_stack(ens.betas).reshape(ens.L // 2, ens.m * ens.m)
            SSt = S @ S.T
            assert np.allclose((D.Q * D.lam) @ D.Q.T, SSt, rtol=0,
                               atol=1e-10 * max(1.0, np.abs(SSt).max()))
            d = g.standard_normal(ens.L // 2)
            x_ls = np.linalg.lstsq(S, d, rcond=None)[0]
            assert np.linalg.norm(D.pinv(d).ravel() - x_ls) <= 1e-9 * max(1.0, np.linalg.norm(x_ls))
            y = g.standard_normal(ens.L // 2)
            x = np.linalg.solve(np.eye(ens.m * ens.m) + S.T @ S, R.ravel() + S.T @ y)
            x_gram, Ax = D.shifted_solver(1.0)(R, S @ R.ravel(), y)
            assert np.linalg.norm(x_gram.ravel() - x) <= 1e-10 * max(1.0, np.linalg.norm(x))
            assert np.linalg.norm(Ax - S @ x) <= 1e-10 * max(1.0, np.linalg.norm(S @ x))

    check()


def test_noisy_and_phaselift_run_at_m_100():
    # m*n = 10^4 is past the explicit operator's cap; the Gram is 1000 x 1000
    m, L = 100, 1000
    ens, X0, b_clean = _planted(m, m, 1, L, seed=31)
    spec = NoiseSpec(kind="lq_bounded", q=1.0, eta1=0.01)
    b = b_clean + measure.generate_noise(spec, ens, seed=31)
    report = solvers.schatten_p_minimize(ens, b, spec, SolverConfig(p=1.0, max_iterations=50))
    assert report.iterations_used <= 50
    ok, _ = measure.check_feasible(spec, ens, b - measure.apply_map(ens, report.estimate),
                                   tol=1e-6)
    assert ok

    ens = measure.sample_gaussian_rop(m, m, L, symmetric=True, seed=32)
    x = np.random.default_rng(33).standard_normal(m)
    report = solvers.phaselift_lad(ens, measure.apply_map(ens, np.outer(x, x) / (x @ x)),
                                   SolverConfig(max_iterations=50))
    assert report.iterations_used <= 50
    assert np.trace(report.estimate) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(report.estimate).min() >= -1e-10


def test_irls_checks_the_gram_size_before_allocating():
    # L < mn runs IRLS, whose L x L Grams are past the cap
    L, m = measure._GRAM_CAP + 1, 70
    ens = measure.RopEnsemble(betas=np.ones((L, m)), gammas=np.ones((L, m)))
    with pytest.raises(measure.ResourceError, match="Gram of L=4097"):
        solvers.schatten_p_minimize(ens, np.zeros(L), NoiseSpec(kind="none"),
                                    SolverConfig(max_iterations=5))


# ---------------------------------------------------------------------------
# least-q on the Schatten-p sphere


def test_least_q_recovers_normalized_truth():
    m = n = 6
    ens = measure.sample_gaussian_rop(m, n, 90, seed=10)
    g = np.random.default_rng(11)
    X0 = np.outer(g.standard_normal(m), g.standard_normal(n))
    X0 /= linalg.schatten_norm(X0, 1.0)
    b = measure.apply_map(ens, X0)
    report = solvers.least_q_minimize(ens, b, SolverConfig(p=1.0, q=1.0,
                                                           max_iterations=400))
    assert abs(linalg.schatten_norm(report.estimate, 1.0) - 1.0) <= 1e-8
    assert np.linalg.norm(report.estimate - X0) <= 1e-3


def test_lad_admm_on_criterion_09_draws():
    # criterion 09's draws: m = n = 8, r = 1, L = 120, 5% of the entries
    # corrupted at 10x.  The ball's minimum lies on the nuclear sphere, so the
    # report claims it.  Its objective is the truth's to within _TOLERANCE,
    # ADMM's relative stopping tolerance (the largest gap measured is 3e-8),
    # and an ulp of b moves the estimate by rounding only: the descent this
    # replaced moved by up to 19% under such changes.
    for t in range(25):
        seed = harness.derive_seed(2026, 0, t)
        X0 = harness.plant_truth(8, 8, 1, seed, norm="sp", p=1.0)
        ens = measure.sample_gaussian_rop(8, 8, 120, seed=seed)
        b = harness._corrupt(measure.apply_map(ens, X0), 0.05, 10.0, seed)
        cfg = SolverConfig(p=1.0, q=1.0, max_iterations=1000, seed=seed)
        report = solvers.least_q_minimize(ens, b, cfg)
        assert report.globally_optimal and report.converged, t
        truth = np.sum(np.abs(measure.apply_map(ens, X0) - b))
        assert report.final_objective <= truth * (1.0 + solvers._TOLERANCE), t
        moved = solvers.least_q_minimize(ens, b * (1.0 + 2.0**-52), cfg).estimate
        assert np.linalg.norm(moved - report.estimate) <= 1e-8 * np.linalg.norm(report.estimate)


@pytest.mark.parametrize("p, q, draws", [(0.5, 0.5, 25), (0.5, 1.0, 8), (0.7, 0.7, 8)])
def test_least_q_below_p1_on_criterion_09_draws(p, q, draws):
    # criterion 09's draws below p = q = 1: the nuclear-ball ADMM's point,
    # retracted onto the Schatten-p sphere, is a candidate and the first
    # descent start.  Without it the descent recovered none of the 25 draws
    # at p = q = 0.5 (median error 0.61); with it the largest error measured
    # is 1.1e-7 and the largest objective 1.0007 times the truth's.
    for t in range(draws):
        seed = harness.derive_seed(2026, 0, t)
        X0 = harness.plant_truth(8, 8, 1, seed, norm="sp", p=p)
        ens = measure.sample_gaussian_rop(8, 8, 120, seed=seed)
        b = harness._corrupt(measure.apply_map(ens, X0), 0.05, 10.0, seed)
        cfg = SolverConfig(p=p, q=q, max_iterations=1000, seed=seed)
        report = solvers.least_q_minimize(ens, b, cfg)
        assert np.linalg.norm(report.estimate - X0) <= 1e-6, t
        truth = np.sum(np.abs(measure.apply_map(ens, X0) - b) ** q)
        assert report.final_objective <= truth * 1.01, t
        if p == q == 0.5 and t < 5:
            moved = solvers.least_q_minimize(ens, b * (1.0 + 2.0**-52), cfg).estimate
            assert np.linalg.norm(moved - report.estimate) \
                <= 1e-7 * np.linalg.norm(report.estimate), t


def test_least_q_below_p1_runs_the_admm_then_two_descents(monkeypatch):
    # one ADMM trace, then descents from its point and A^+ b; no start comes
    # from an lstsq sweep
    def no_lstsq(*args, **kwargs):
        raise AssertionError("lstsq ran")

    ens = measure.sample_gaussian_rop(6, 6, 60, seed=4)
    b = measure.apply_map(ens, harness.plant_truth(6, 6, 1, 4, norm="sp", p=0.5))
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    monkeypatch.setattr(solvers, "_lstsq", no_lstsq)
    report = solvers.least_q_minimize(ens, b, SolverConfig(p=0.5, q=0.5, max_iterations=50))
    assert len(report.objective_traces) == 3


def _lq_draw(m, r, L, p, t, corrupt=False):
    seed = harness.derive_seed(2026, 0, t)
    X0 = harness.plant_truth(m, m, r, seed, norm="sp", p=p)
    ens = measure.sample_gaussian_rop(m, m, L, seed=seed)
    b = measure.apply_map(ens, X0)
    return X0, ens, harness._corrupt(b, 0.05, 10.0, seed) if corrupt else b, seed


def test_least_q_descent_from_a_plus_b_recovers_rank_two():
    # clean r = 2 draws at p = q = 0.5: the ADMM's point keeps a singular-value
    # tail, and the recoveries come from the descent from A^+ b (largest
    # relative error measured 4.6e-8; none of the 6 recovers without it)
    for t in range(6):
        X0, ens, b, seed = _lq_draw(8, 2, 90, 0.5, t)
        report = solvers.least_q_minimize(
            ens, b, SolverConfig(p=0.5, q=0.5, max_iterations=600, seed=seed))
        assert np.linalg.norm(report.estimate - X0) <= 1e-6 * np.linalg.norm(X0), t


def test_lad_descent_from_the_admm_point_reaches_the_sphere_minimum():
    # m = n = 8, r = 1, L = 24, clean, p = q = 1: the ball's minimum lies inside
    # the ball, and only the descent from the ADMM's point finds sphere points
    # with objective near 0 (largest measured 3.2e-6; 0.07-0.47 without it)
    for t in range(5):
        X0, ens, b, seed = _lq_draw(8, 1, 24, 1.0, t)
        report = solvers.least_q_minimize(
            ens, b, SolverConfig(p=1.0, q=1.0, max_iterations=600, seed=seed))
        assert not report.globally_optimal, t
        assert report.final_objective <= 1e-5, t


def test_least_q_reports_the_returned_candidates_convergence():
    # 5% corrupted r = 1 draw at L = 24, p = q = 0.5: the ADMM runs its whole
    # budget without converging, while both descents stop short of it, so
    # converge.  The ADMM's point is returned, and the report must say that
    # it did not converge.
    _, ens, b, seed = _lq_draw(8, 1, 24, 0.5, 0, corrupt=True)
    cfg = SolverConfig(p=0.5, q=0.5, max_iterations=600, seed=seed)
    report = solvers.least_q_minimize(ens, b, cfg)
    admm, *descents = report.objective_traces
    assert len(admm) == cfg.max_iterations
    assert all(len(trace) < cfg.max_iterations for trace in descents)
    assert not report.converged


def test_lad_interior_ball_minimum_falls_back_to_descent():
    # b = A(X0 / 2) with ||X0||_* = 1: the ball's minimum X0 / 2 is interior,
    # so no sphere point is claimed optimal, and the descent still returns one
    m = n = 6
    ens = measure.sample_gaussian_rop(m, n, 90, seed=10)
    g = np.random.default_rng(11)
    X0 = np.outer(g.standard_normal(m), g.standard_normal(n))
    X0 /= linalg.schatten_norm(X0, 1.0)
    report = solvers.least_q_minimize(ens, measure.apply_map(ens, X0 / 2),
                                      SolverConfig(p=1.0, q=1.0, max_iterations=400))
    assert abs(linalg.schatten_norm(report.estimate, 1.0) - 1.0) <= 1e-8
    assert not report.globally_optimal


def test_least_q_zero_measurements_contract():
    ens = measure.sample_gaussian_rop(4, 4, 20, seed=12)
    for p in (1.0, 0.5):
        report = solvers.least_q_minimize(ens, np.zeros(20),
                                          SolverConfig(p=p, q=p, max_iterations=50))
        # documented degenerate contract: a sphere point comes back, no error,
        # from one seeded descent (A^+ b = 0, so no ADMM)
        assert abs(linalg.schatten_norm(report.estimate, p) - 1.0) <= 1e-8
        assert len(report.objective_traces) == 1


def test_least_q_requires_p_le_q():
    ens = measure.sample_gaussian_rop(3, 3, 10, seed=13)
    with pytest.raises(ValueError):
        solvers.least_q_minimize(ens, np.zeros(10), SolverConfig(p=1.0, q=0.5))


# ---------------------------------------------------------------------------
# PhaseLift LAD


def test_phaselift_recovers_planted_vector():
    m = 8
    g = np.random.default_rng(14)
    x = g.standard_normal(m)
    x /= np.linalg.norm(x)
    X0 = np.outer(x, x)
    ens = measure.sample_gaussian_rop(m, m, 10 * m, symmetric=True, seed=14)
    b = measure.apply_map(ens, X0)
    report = solvers.phaselift_lad(ens, b, SolverConfig(max_iterations=800))
    w, Q = np.linalg.eigh(report.estimate)
    assert abs(Q[:, -1] @ x) >= 0.999
    assert np.linalg.norm(report.estimate - X0) <= 1e-2


def test_phaselift_trace_is_exactly_projected():
    m = 5
    ens = measure.sample_gaussian_rop(m, m, 40, symmetric=True, seed=15)
    X0 = np.eye(m) / m
    b = measure.apply_map(ens, X0)
    report = solvers.phaselift_lad(ens, b, SolverConfig(max_iterations=200))
    assert np.trace(report.estimate) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(report.estimate).min() >= -1e-10
    assert report.final_objective <= 1e-4  # identity truth is feasible with objective 0


def test_phaselift_rejects_asymmetric_ensemble():
    ens = measure.sample_gaussian_rop(4, 4, 10, seed=16)
    with pytest.raises(ValueError):
        solvers.phaselift_lad(ens, np.zeros(10), SolverConfig())


# ---------------------------------------------------------------------------
# configuration validation


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(p=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# BLAS threading


@pytest.fixture
def blas_pools():
    """Every loaded OpenBLAS set to two threads; the old counts come back after."""
    pools = linalg._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS thread-count symbols found in this process")
    before = [get() for get, _ in pools]
    for _, put in pools:
        put(2)
    yield pools
    for (_, put), count in zip(pools, before):
        put(count)


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_solver_runs_on_one_blas_thread_and_restores(blas_pools, monkeypatch, fail):
    seen = []
    irls = solvers._irls_equality

    def spy(*args, **kwargs):
        seen.append([get() for get, _ in blas_pools])
        result = irls(*args, **kwargs)
        if fail:
            raise solvers.SolverError("forced failure")
        return result

    monkeypatch.setattr(solvers, "_irls_equality", spy)
    ens, _, b = _planted(5, 5, 1, 20, seed=9)  # L < mn, so IRLS runs
    with pytest.raises(solvers.SolverError) if fail else contextlib.nullcontext():
        solvers.nuclear_norm_baseline(ens, b, NoiseSpec(kind="none"),
                                      SolverConfig(max_iterations=50))
    assert seen == [[1] * len(blas_pools)]
    assert [get() for get, _ in blas_pools] == [2] * len(blas_pools)


def test_blas_pin_shared_by_concurrent_calls(blas_pools, monkeypatch):
    seen = []
    apply = certify.apply_map

    def spy(op, X):
        seen.append(tuple(get() for get, _ in blas_pools))
        return apply(op, X)

    monkeypatch.setattr(certify, "apply_map", spy)
    ens = measure.sample_gaussian_rop(4, 4, 20, seed=0)

    def work():
        for _ in range(20):
            certify.estimate_rub(ens, 1, 1.0, trials=20)

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 4 * 20 * 20
    assert set(seen) == {(1,) * len(blas_pools)}
    assert [get() for get, _ in blas_pools] == [2] * len(blas_pools)


def test_first_pin_covers_scipy_pool(tmp_path, checkout_env):
    # A fresh process whose first pinned call is an IRLS solve: the pin loads
    # scipy before its one scan for pools, so inside the Cholesky solve every
    # pool mapped by then, scipy's included, reads one thread.
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its thread count at the CPU count")
    script = """
import json, sys
import numpy as np
from roprec import linalg, measure, solvers
from roprec.measure import NoiseSpec
from roprec.solvers import SolverConfig
assert "scipy" not in sys.modules
ens = measure.sample_gaussian_rop(5, 5, 20, seed=9)  # L < mn, so IRLS runs
g = np.random.default_rng(10)
b = measure.apply_map(ens, g.standard_normal((5, 1)) @ g.standard_normal((1, 5)))
seen, solve_psd = [], solvers._solve_psd
def spy(G, b):
    seen.append([get() for get, _ in linalg._openblas_pools.__wrapped__()])
    return solve_psd(G, b)
solvers._solve_psd = spy
solvers.nuclear_norm_baseline(ens, b, NoiseSpec(kind="none"), SolverConfig(max_iterations=50))
pools = linalg._openblas_pools.__wrapped__()
print(json.dumps({"seen": seen, "pinned": len(linalg._openblas_pools()),
                  "loaded": len(pools), "after": [get() for get, _ in pools]}))
"""
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=checkout_env(OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    if not got["loaded"]:
        pytest.skip("no OpenBLAS thread-count symbols found in a fresh process")
    assert got["seen"] and all(s == [1] * got["loaded"] for s in got["seen"]), got
    assert got["pinned"] == got["loaded"]
    assert got["after"] == [2] * got["loaded"]


def test_solver_result_unchanged_without_openblas(monkeypatch):
    # L = 20 < mn runs IRLS; L = 60 >= mn is the one least-squares solve
    for L in (20, 60):
        ens, _, b = _planted(5, 5, 1, L, seed=9)
        cfg = SolverConfig(p=0.5, max_iterations=100)
        pinned = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg)
        # With no library found the pin does nothing; one thread is set by
        # hand so that the two runs do the same arithmetic.
        pools = linalg._openblas_pools()
        before = [get() for get, _ in pools]
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_openblas_pools", lambda: ())
            try:
                for _, put in pools:
                    put(1)
                bare = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg)
            finally:
                for (_, put), count in zip(pools, before):
                    put(count)
        assert np.array_equal(bare.estimate, pinned.estimate)
        assert bare.objective_traces == pinned.objective_traces
