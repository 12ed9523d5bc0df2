import numpy as np
import pytest

from roprec import linalg

from _oracles import (best_rank1_2x2, jacobi_eigenvalues, oracle_singular_values,
                      simplex_project_oracle)

rng = np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# svd


def test_svd_diagonal():
    dec = linalg.svd(np.diag([3.0, 1.0]))
    assert np.allclose(dec.sigma, [3.0, 1.0])
    assert np.allclose(np.abs(dec.U), np.eye(2))
    assert np.allclose(np.abs(dec.V), np.eye(2))


def test_svd_zero_matrix():
    dec = linalg.svd(np.zeros((4, 3)))
    assert np.allclose(dec.sigma, np.zeros(3))


def test_svd_invariants_random():
    for _ in range(10):
        X = rng.standard_normal((6, 4))
        dec = linalg.svd(X)
        assert np.allclose(dec.U.T @ dec.U, np.eye(4), atol=1e-10)
        assert np.allclose(dec.V.T @ dec.V, np.eye(4), atol=1e-10)
        assert np.all(np.diff(dec.sigma) <= 1e-12)
        rec = (dec.U * dec.sigma) @ dec.V.T
        assert np.linalg.norm(rec - X) <= 1e-10 * max(1.0, np.linalg.norm(X))


def test_svd_matches_jacobi_oracle():
    for _ in range(5):
        X = rng.standard_normal((6, 4))
        sig = linalg.svd(X).sigma
        assert np.allclose(sig, oracle_singular_values(X), atol=1e-8)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.svd(np.array([[1.0, np.nan]]))


# ---------------------------------------------------------------------------
# schatten_norm


def test_schatten_identity_nuclear():
    assert linalg.schatten_norm(np.eye(3), 1.0) == pytest.approx(3.0)


def test_schatten_3_4_5():
    assert linalg.schatten_norm(np.diag([3.0, 4.0]), 2.0) == pytest.approx(5.0)


def test_schatten_quasi_norm_oracle():
    X = rng.standard_normal((5, 5))
    sig = oracle_singular_values(X)
    expected = np.sum(sig**0.5) ** 2
    assert linalg.schatten_norm(X, 0.5) == pytest.approx(expected, abs=1e-8)


def test_schatten_inf_is_operator_norm():
    X = rng.standard_normal((4, 6))
    assert linalg.schatten_norm(X, np.inf) == pytest.approx(
        np.linalg.norm(X, 2), abs=1e-10)


def test_schatten_rejects_bad_p():
    with pytest.raises(ValueError):
        linalg.schatten_norm(np.eye(2), 0.0)


# ---------------------------------------------------------------------------
# rank_split


def test_rank_split_rank_one():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0])
    X = np.outer(u, v)
    split = linalg.rank_split(X, 1)
    assert np.allclose(split.head, X, atol=1e-12)
    assert np.allclose(split.tail, 0.0, atol=1e-12)


def test_rank_split_diagonal():
    split = linalg.rank_split(np.diag([5.0, 3.0, 1.0]), 2)
    assert np.allclose(split.head, np.diag([5.0, 3.0, 0.0]), atol=1e-10)
    assert np.allclose(split.tail, np.diag([0.0, 0.0, 1.0]), atol=1e-10)


def test_rank_split_tail_norm_oracle():
    X = rng.standard_normal((8, 6))
    split = linalg.rank_split(X, 3)
    sig = oracle_singular_values(X)
    assert np.linalg.norm(split.tail) == pytest.approx(
        np.sqrt(np.sum(sig[3:] ** 2)), abs=1e-8)


def test_rank_split_invariants():
    X = rng.standard_normal((7, 5))
    split = linalg.rank_split(X, 2)
    assert np.allclose(split.head + split.tail, X, atol=1e-10)
    assert np.linalg.matrix_rank(split.head) <= 2
    assert np.allclose(split.head.T @ split.tail, 0.0, atol=1e-8)
    assert np.allclose(split.head @ split.tail.T, 0.0, atol=1e-8)


def test_rank_split_out_of_range():
    with pytest.raises(ValueError):
        linalg.rank_split(np.eye(3), 4)


def test_rank_split_head_is_frobenius_optimal_2x2():
    # brute-force grid search over rank-1 candidates never beats the head
    for _ in range(5):
        X = rng.standard_normal((2, 2))
        head = linalg.rank_split(X, 1).head
        _, best_err = best_rank1_2x2(X, grid=91)
        assert np.linalg.norm(X - head) <= best_err + 1e-4


# ---------------------------------------------------------------------------
# frobenius_inner


def test_inner_identity():
    assert linalg.frobenius_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)


def test_inner_zero():
    X = rng.standard_normal((3, 4))
    assert linalg.frobenius_inner(X, np.zeros((3, 4))) == 0.0


def test_inner_alternate_summation():
    X = rng.standard_normal((4, 3))
    Y = rng.standard_normal((4, 3))
    # independent loop order (column-major accumulation)
    acc = 0.0
    for j in range(3):
        for i in range(4):
            acc += X[i, j] * Y[i, j]
    assert linalg.frobenius_inner(X, Y) == pytest.approx(acc, abs=1e-12)


def test_inner_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.frobenius_inner(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# spectahedron / simplex projection


def test_spectahedron_fixed_point():
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    w = np.array([0.4, 0.3, 0.2, 0.1])
    X = (Q * w) @ Q.T
    assert np.allclose(linalg.spectahedron_project(X), X, atol=1e-10)


def test_spectahedron_diag_examples():
    assert np.allclose(linalg.spectahedron_project(np.diag([2.0, 0.0])),
                       np.diag([1.0, 0.0]), atol=1e-12)
    out = linalg.spectahedron_project(np.diag([0.7, 0.5, -0.2]))
    assert np.allclose(out, np.diag([0.6, 0.4, 0.0]), atol=1e-12)


def test_spectahedron_rejects_asymmetric():
    with pytest.raises(ValueError):
        linalg.spectahedron_project(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_simplex_projection_against_threshold_oracle():
    for _ in range(10):
        v = rng.standard_normal(6) * 2.0
        w = linalg.simplex_project(v)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-10)
        assert np.all(w >= 0)
        assert np.allclose(w, simplex_project_oracle(v), atol=1e-8)


def test_jacobi_oracle_sanity():
    # the oracle itself must agree with a hand diagonalization
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(jacobi_eigenvalues(A), [3.0, 1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# Lemma-style properties (small versions; the acceptance suite runs 500 each)


def test_schatten_additivity_block_diagonal():
    for q in (0.3, 0.5, 1.0):
        A = rng.standard_normal((3, 2))
        B = rng.standard_normal((2, 3))
        X = np.zeros((5, 5))
        X[:3, :2] = A
        Y = np.zeros((5, 5))
        Y[3:, 2:] = B
        lhs = linalg.schatten_norm(X + Y, q) ** q
        rhs = linalg.schatten_norm(X, q) ** q + linalg.schatten_norm(Y, q) ** q
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_stechkin_bound():
    for p, t in ((0.5, 2.0), (1.0, 2.0), (0.5, 1.0)):
        X = rng.standard_normal((6, 5))
        r = 2
        tail = linalg.rank_split(X, r).tail
        lhs = linalg.schatten_norm(tail, t)
        rhs = linalg.schatten_norm(X, p) / r ** (1.0 / p - 1.0 / t)
        assert lhs <= rhs + 1e-8


def test_perturbation_inequality():
    for p in (0.5, 1.0):
        X = rng.standard_normal((5, 4))
        Y = rng.standard_normal((5, 4))
        sx = linalg.singular_values(X)
        sy = linalg.singular_values(Y)
        sd = linalg.singular_values(X - Y)
        assert np.sum(np.abs(sx**p - sy**p)) <= np.sum(sd**p) + 1e-8


def test_power_function_maximum():
    # f(t) = t^{(2-p)/p} (c - k t) on (0, c/k]
    for p in (0.4, 0.7, 1.0):
        for c in (1.0, 5.0):
            for k in (2.0, 10.0):
                t = np.linspace(1e-9, c / k, 2000)
                f = t ** ((2.0 - p) / p) * (c - k * t)
                cap = (p / 2.0) * ((2.0 - p) / (2.0 * k)) ** ((2.0 - p) / p) * c ** (2.0 / p)
                assert np.max(f) <= cap + 1e-10 * max(1.0, cap)
