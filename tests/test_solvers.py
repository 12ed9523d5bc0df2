import contextlib
import sys
import threading

import numpy as np
import pytest

from roprec import certify, linalg, measure, solvers
from roprec.measure import NoiseSpec
from roprec.solvers import SolverConfig

rng = np.random.default_rng(77)


def _planted(m, n, r, L, seed=0):
    ens = measure.sample_gaussian_rop(m, n, L, seed=seed)
    g = np.random.default_rng(seed + 1)
    X0 = g.standard_normal((m, r)) @ g.standard_normal((n, r)).T
    X0 /= np.linalg.norm(X0)
    return ens, X0, measure.apply_map(ens, X0)


# ---------------------------------------------------------------------------
# scalar proximal machinery


def test_prox_p1_soft_threshold():
    assert solvers.prox_power_scalar(3.0, 1.0, 1.0) == pytest.approx(2.0)
    assert solvers.prox_power_scalar(-0.5, 1.0, 1.0) == 0.0


def test_prox_matches_grid_search():
    g = np.random.default_rng(5)
    for p in (0.5, 2.0 / 3.0, 0.9):
        for _ in range(17):
            lam = g.uniform(0.05, 2.0)
            s = g.uniform(-4.0, 4.0)
            z = solvers.prox_power_scalar(s, lam, p)
            grid = np.linspace(-abs(s) - 1.0, abs(s) + 1.0, 10_000)
            vals = lam * np.abs(grid) ** p + 0.5 * (grid - s) ** 2
            best = grid[np.argmin(vals)]
            obj = lambda t: lam * abs(t) ** p + 0.5 * (t - s) ** 2
            assert obj(z) <= obj(best) + 1e-4


def test_prox_schatten_soft_threshold_matrix():
    out = solvers.prox_schatten_p(np.diag([3.0, 1.0]), 1.0, 1.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-10)


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


def test_equality_convex_recovers_planted_rank1():
    ens, X0, b = _planted(8, 8, 1, 120, seed=1)
    report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                         SolverConfig(p=1.0, max_iterations=300))
    err = np.linalg.norm(report.estimate - X0) / np.linalg.norm(X0)
    assert err <= 1e-3
    assert report.globally_optimal


def test_equality_zero_measurements_give_zero():
    ens = measure.sample_gaussian_rop(4, 4, 30, seed=2)
    report = solvers.schatten_p_minimize(ens, np.zeros(30),
                                         NoiseSpec(kind="none"),
                                         SolverConfig(p=1.0, max_iterations=100))
    assert np.allclose(report.estimate, 0.0, atol=1e-8)
    assert report.final_objective == pytest.approx(0.0, abs=1e-8)


def test_nonconvex_beats_truth_objective_2x2():
    ens, X0, b = _planted(2, 2, 1, 5, seed=3)
    cfg = SolverConfig(p=0.5, max_iterations=300)
    report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg)
    truth_obj = linalg.schatten_norm(X0, 0.5) ** 0.5
    assert report.final_objective <= truth_obj + 1e-6


def test_irls_objective_trace_monotone():
    ens, X0, b = _planted(6, 6, 1, 60, seed=4)
    report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                         SolverConfig(p=0.7, max_iterations=200))
    for trace in report.objective_traces:
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


def test_scaling_equivariance_equality():
    ens, X0, b = _planted(5, 5, 1, 50, seed=5)
    cfg = SolverConfig(p=1.0, max_iterations=300)
    base = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg)
    scaled = solvers.schatten_p_minimize(ens, 3.0 * b, NoiseSpec(kind="none"), cfg)
    rel = np.linalg.norm(scaled.estimate - 3.0 * base.estimate) \
        / max(1.0, np.linalg.norm(3.0 * base.estimate))
    assert rel <= 1e-6


def test_cone_constraint_on_solver_output():
    # lemma hypothesis/conclusion pair checked on the actual solver residual
    ens, X0, b = _planted(6, 6, 2, 90, seed=6)
    p = 0.5
    report = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"),
                                         SolverConfig(p=p, max_iterations=200))
    if linalg.schatten_norm(report.estimate, p) ** p \
            <= linalg.schatten_norm(X0, p) ** p + 1e-12:
        R = report.estimate - X0
        r = 2
        Rs = linalg.rank_split(R, r)
        Xs = linalg.rank_split(X0, r)
        lhs = linalg.schatten_norm(Rs.tail, p) ** p
        rhs = 2.0 * linalg.schatten_norm(Xs.tail, p) ** p \
            + linalg.schatten_norm(Rs.head, p) ** p
        assert lhs <= rhs + 1e-8


@pytest.mark.parametrize("kind, m, L, seed, p", [
    ("lq_bounded", 6, 80, 7, 1.0),
    ("dantzig", 5, 60, 8, 1.0),
    ("intersection", 6, 80, 0, 1.0),
    ("intersection", 6, 80, 0, 0.5),
    # the feasibility polish does not reach the intersection on this instance
    pytest.param("intersection", 6, 80, 3, 0.5,
                 marks=pytest.mark.xfail(raises=solvers.SolverError, strict=True)),
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


def test_nuclear_baseline_agrees_with_p1():
    ens, X0, b = _planted(5, 5, 1, 60, seed=9)
    cfg = SolverConfig(p=0.5, max_iterations=300)  # baseline must override p
    a = solvers.nuclear_norm_baseline(ens, b, NoiseSpec(kind="none"), cfg)
    cfg1 = SolverConfig(p=1.0, max_iterations=300)
    c = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg1)
    assert a.final_objective == pytest.approx(c.final_objective, abs=1e-5)


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


def test_least_q_zero_measurements_contract():
    ens = measure.sample_gaussian_rop(4, 4, 20, seed=12)
    report = solvers.least_q_minimize(ens, np.zeros(20),
                                      SolverConfig(p=1.0, q=1.0, max_iterations=50))
    # documented degenerate contract: a sphere point comes back, no error
    assert abs(linalg.schatten_norm(report.estimate, 1.0) - 1.0) <= 1e-8


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
    ens, _, b = _planted(5, 5, 1, 60, seed=9)
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


def test_solver_result_unchanged_without_openblas(monkeypatch):
    ens, _, b = _planted(5, 5, 1, 60, seed=9)
    cfg = SolverConfig(p=0.5, max_iterations=100)
    pinned = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg)
    # With no library found the pin does nothing; one thread is set by hand
    # so that the two runs do the same arithmetic.
    pools = linalg._openblas_pools()
    before = [get() for get, _ in pools]
    monkeypatch.setattr(linalg, "_openblas_pools", lambda: ())
    try:
        for _, put in pools:
            put(1)
        bare = solvers.schatten_p_minimize(ens, b, NoiseSpec(kind="none"), cfg)
    finally:
        for (_, put), count in zip(pools, before):
            put(count)
    assert np.array_equal(bare.estimate, pinned.estimate)
    assert bare.objective_traces == pinned.objective_traces
