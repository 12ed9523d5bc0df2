import numpy as np
import pytest

from _oracles import debiased_stack
from roprec import linalg, measure
from roprec.measure import NoiseSpec, RopEnsemble

rng = np.random.default_rng(999)


def test_sampling_deterministic():
    a = measure.sample_gaussian_rop(2, 2, 4, seed=7)
    b = measure.sample_gaussian_rop(2, 2, 4, seed=7)
    assert np.array_equal(a.betas, b.betas)
    assert np.array_equal(a.gammas, b.gammas)


def test_sampling_symmetric_shares_betas():
    ens = measure.sample_gaussian_rop(3, 3, 5, symmetric=True, seed=1)
    assert ens.symmetric
    assert np.array_equal(ens.betas, ens.gammas)


def test_sampling_seed_changes_draws():
    a = measure.sample_gaussian_rop(2, 2, 4, seed=7)
    b = measure.sample_gaussian_rop(2, 2, 4, seed=8)
    assert not np.array_equal(a.betas, b.betas)


def test_sampling_moments():
    # law of large numbers on the scalar case
    ens = measure.sample_gaussian_rop(1, 1, 100_000, seed=3)
    entries = ens.betas.ravel()
    assert abs(entries.mean()) < 0.02
    assert abs(entries.var() - 1.0) < 0.05


def test_symmetric_requires_square():
    with pytest.raises(ValueError):
        measure.sample_gaussian_rop(2, 3, 4, symmetric=True)


# ---------------------------------------------------------------------------
# apply / adjoint


def _random_ensemble(m, n, L, seed=0):
    return measure.sample_gaussian_rop(m, n, L, seed=seed)


def test_apply_selects_entry():
    X = rng.standard_normal((3, 4))
    ens = RopEnsemble(betas=np.eye(3)[:1], gammas=np.eye(4)[1:2])
    assert measure.apply_map(ens, X)[0] == pytest.approx(X[0, 1])


def test_apply_identity_gives_norm():
    beta = rng.standard_normal(5)
    ens = RopEnsemble(betas=beta[None, :], gammas=beta[None, :].copy())
    assert measure.apply_map(ens, np.eye(5))[0] == pytest.approx(beta @ beta)


def test_apply_matches_explicit_rank_one():
    ens = _random_ensemble(4, 3, 6, seed=5)
    X = rng.standard_normal((4, 3))
    vals = measure.apply_map(ens, X)
    for j in range(6):
        Aj = np.outer(ens.betas[j], ens.gammas[j])
        assert vals[j] == pytest.approx(linalg.frobenius_inner(Aj, X), abs=1e-10)


def test_apply_shape_mismatch():
    ens = _random_ensemble(4, 3, 6)
    with pytest.raises(ValueError):
        measure.apply_map(ens, np.zeros((3, 4)))


def test_adjoint_zero():
    ens = _random_ensemble(3, 3, 5)
    assert np.allclose(measure.adjoint_map(ens, np.zeros(5)), 0.0)


def test_adjoint_single_measurement():
    ens = _random_ensemble(4, 2, 1, seed=2)
    out = measure.adjoint_map(ens, np.array([1.0]))
    assert np.allclose(out, np.outer(ens.betas[0], ens.gammas[0]), atol=1e-12)


def test_adjoint_pairing_identity():
    for trial in range(20):
        ens = _random_ensemble(5, 4, 7, seed=trial)
        X = rng.standard_normal((5, 4))
        z = rng.standard_normal(7)
        lhs = measure.apply_map(ens, X) @ z
        rhs = linalg.frobenius_inner(X, measure.adjoint_map(ens, z))
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# debias


def _stack(plus, minus):
    """The debiased map of (plus, minus) as an explicit (L, m, m) stack."""
    M = measure.explicit_operator(plus) - measure.explicit_operator(minus)
    return M.reshape(plus.L, plus.m, plus.n)


def test_debias_pairs_measurements():
    ens = measure.sample_gaussian_rop(3, 3, 4, symmetric=True, seed=11)
    b = rng.standard_normal(4)
    plus, minus, btilde = measure.debias(ens, b)
    stack = _stack(plus, minus)
    assert stack.shape == (2, 3, 3)
    A1 = np.outer(ens.betas[0], ens.betas[0])
    A2 = np.outer(ens.betas[1], ens.betas[1])
    assert np.allclose(stack[0], A1 - A2, atol=1e-12)
    assert btilde[0] == pytest.approx(b[0] - b[1])


def test_debias_odd_length_drops_last():
    ens = measure.sample_gaussian_rop(3, 3, 5, symmetric=True, seed=11)
    plus, minus, btilde = measure.debias(ens, np.zeros(5))
    assert plus.L == minus.L == 2 and btilde.shape == (2,)


def test_debias_identical_betas_cancel():
    beta = rng.standard_normal(3)
    betas = np.stack([beta, beta])
    ens = RopEnsemble(betas=betas, gammas=betas, symmetric=True)
    z = np.array([0.3, -0.1])
    plus, minus, btilde = measure.debias(ens, z)  # pure-noise measurements
    assert np.allclose(_stack(plus, minus)[0], 0.0, atol=1e-12)
    assert btilde[0] == pytest.approx(z[0] - z[1])


def test_debias_requires_symmetric():
    ens = _random_ensemble(3, 3, 4)
    with pytest.raises(ValueError):
        measure.debias(ens, np.zeros(4))


def test_debias_consistency_and_contraction():
    for trial in range(10):
        ens = measure.sample_gaussian_rop(4, 4, 8, symmetric=True, seed=trial)
        S = rng.standard_normal((4, 4))
        X = 0.5 * (S + S.T)
        clean = measure.apply_map(ens, X)
        plus, minus, btilde = measure.debias(ens, clean)
        debiased = measure.apply_map(plus, X) - measure.apply_map(minus, X)
        assert np.allclose(btilde, debiased, atol=1e-10)
        z = rng.standard_normal(8)
        _, _, noisy_tilde = measure.debias(ens, clean + z)
        lhs = np.linalg.norm(noisy_tilde - debiased, 1)
        assert lhs <= np.linalg.norm(z, 1) + 1e-12


@pytest.mark.parametrize("L", [8, 9])
def test_debias_halves_match_stack_formula(L):
    ens = measure.sample_gaussian_rop(4, 4, L, symmetric=True, seed=L)
    plus, minus, _ = measure.debias(ens, np.zeros(L))
    assert np.array_equal(_stack(plus, minus), debiased_stack(ens.betas))


def test_debias_adjoint_identity_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(m=st.integers(1, 6), L=st.integers(1, 15),
                      seed=st.integers(0, 2**32 - 1))
    def check(m, L, seed):
        ens = measure.sample_gaussian_rop(m, m, L, symmetric=True, seed=seed)
        draw = np.random.default_rng(seed)
        X = draw.standard_normal((m, m))
        plus, minus, _ = measure.debias(ens, np.zeros(L))
        z = draw.standard_normal(L // 2)
        lhs = (measure.apply_map(plus, X) - measure.apply_map(minus, X)) @ z
        adj = measure.adjoint_map(plus, z) - measure.adjoint_map(minus, z)
        rhs = linalg.frobenius_inner(X, adj)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    check()


# ---------------------------------------------------------------------------
# explicit operator


def test_explicit_operator_basis_row():
    ens = RopEnsemble(betas=np.array([[1.0, 0.0]]), gammas=np.array([[1.0, 0.0]]))
    M = measure.explicit_operator(ens)
    assert np.allclose(M, [[1.0, 0.0, 0.0, 0.0]])


def test_explicit_operator_consistency():
    ens = _random_ensemble(3, 5, 4, seed=9)
    X = rng.standard_normal((3, 5))
    M = measure.explicit_operator(ens)
    assert np.allclose(M @ X.ravel(), measure.apply_map(ens, X), atol=1e-10)


def test_explicit_operator_scalar_case():
    ens = _random_ensemble(1, 1, 6, seed=4)
    M = measure.explicit_operator(ens)
    assert np.allclose(M.ravel(), ens.betas.ravel() * ens.gammas.ravel())


def test_explicit_operator_cap():
    ens = _random_ensemble(70, 70, 2)
    with pytest.raises(measure.ResourceError):
        measure.explicit_operator(ens)


def test_gram_is_explicit_operator_product():
    ens, other = _random_ensemble(3, 4, 7, seed=5), _random_ensemble(3, 4, 5, seed=6)
    M, N = measure.explicit_operator(ens), measure.explicit_operator(other)
    assert np.allclose(measure.gram(ens), M @ M.T, rtol=0, atol=1e-12)
    assert np.allclose(measure.gram(ens, other), M @ N.T, rtol=0, atol=1e-12)


def test_gram_past_the_cap_raises_resource_error():
    small = _random_ensemble(1, 1, 3)
    large = RopEnsemble(betas=np.ones((measure._GRAM_CAP + 1, 1)),
                        gammas=np.ones((measure._GRAM_CAP + 1, 1)))
    for op, other in ((large, None), (small, large), (large, small)):
        with pytest.raises(measure.ResourceError):
            measure.gram(op, other)


# ---------------------------------------------------------------------------
# noise


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="lq_bounded", q=1.0)  # missing eta1
    with pytest.raises(ValueError):
        NoiseSpec(kind="banana")


def test_noise_none_is_zero():
    ens = _random_ensemble(3, 3, 5)
    assert np.allclose(measure.generate_noise(NoiseSpec(kind="none"), ens), 0.0)


def test_noise_lq_boundary_exact():
    ens = _random_ensemble(3, 3, 10)
    spec = NoiseSpec(kind="lq_bounded", q=1.0, eta1=0.1)
    z = measure.generate_noise(spec, ens, seed=2)
    assert np.linalg.norm(z, 1) == pytest.approx(1.0, abs=1e-12)


def test_noise_dantzig_boundary():
    ens = _random_ensemble(4, 4, 12)
    spec = NoiseSpec(kind="dantzig", eta2=0.5)
    z = measure.generate_noise(spec, ens, seed=6)
    opnorm = linalg.singular_values(measure.adjoint_map(ens, z))[0]
    assert opnorm == pytest.approx(0.5, abs=1e-9)


def test_noise_intersection_takes_tighter_scale():
    ens = _random_ensemble(4, 4, 12)
    spec = NoiseSpec(kind="intersection", q=1.0, eta1=0.05, eta2=0.5)
    z = measure.generate_noise(spec, ens, seed=6)
    ok, slacks = measure.check_feasible(spec, ens, z, tol=1e-9)
    assert ok
    assert min(slacks["lq"], slacks["dantzig"]) == pytest.approx(0.0, abs=1e-9)


def test_noise_deterministic():
    ens = _random_ensemble(3, 3, 8)
    spec = NoiseSpec(kind="lq_bounded", q=0.7, eta1=0.2)
    z1 = measure.generate_noise(spec, ens, seed=5)
    z2 = measure.generate_noise(spec, ens, seed=5)
    assert np.array_equal(z1, z2)


# ---------------------------------------------------------------------------
# feasibility


def test_zero_residual_always_feasible():
    ens = _random_ensemble(3, 3, 6)
    for spec in (NoiseSpec(kind="none"),
                 NoiseSpec(kind="lq_bounded", q=1.0, eta1=0.1),
                 NoiseSpec(kind="dantzig", eta2=0.3)):
        ok, _ = measure.check_feasible(spec, ens, np.zeros(6))
        assert ok


def test_boundary_residual_zero_slack():
    ens = _random_ensemble(3, 3, 6)
    spec = NoiseSpec(kind="lq_bounded", q=1.0, eta1=0.1)
    z = measure.generate_noise(spec, ens, seed=1)
    ok, slacks = measure.check_feasible(spec, ens, z, tol=1e-12)
    assert ok and slacks["lq"] == pytest.approx(0.0, abs=1e-12)


def test_feasibility_matches_recomputation():
    ens = _random_ensemble(4, 3, 8, seed=3)
    residual = rng.standard_normal(8)
    spec = NoiseSpec(kind="intersection", q=0.8, eta1=0.4, eta2=2.0)
    ok, slacks = measure.check_feasible(spec, ens, residual)
    lq = np.sum(np.abs(residual) ** 0.8) ** (1 / 0.8) / 8
    opnorm = np.linalg.norm(measure.adjoint_map(ens, residual), 2)
    assert slacks["lq"] == pytest.approx(0.4 - lq, abs=1e-12)
    assert slacks["dantzig"] == pytest.approx(2.0 - opnorm, abs=1e-9)
    assert ok == (lq <= 0.4 and opnorm <= 2.0)


@pytest.mark.parametrize("kind", ["none", "lq_bounded", "dantzig", "intersection"])
def test_noise_kind_constraints_match_feasibility_slacks(kind):
    spec = NoiseSpec(kind=kind, q=0.5, eta1=0.1, eta2=0.2)
    _, slacks = measure.check_feasible(spec, _random_ensemble(3, 3, 6), rng.standard_normal(6))
    assert ("lq" in slacks) == spec.has_lq
    assert ("dantzig" in slacks) == spec.has_dantzig
    assert ("equality" in slacks) == (kind == "none")
