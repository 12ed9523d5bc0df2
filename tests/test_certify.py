import math

import numpy as np
import pytest

from _oracles import rub_extrema_per_trial
from roprec import certify, measure
from roprec.measure import NoiseSpec

rng = np.random.default_rng(2024)


# ---------------------------------------------------------------------------
# estimate_rub


def test_single_trial_extrema_coincide():
    ens = measure.sample_gaussian_rop(4, 4, 10, seed=0)
    est = certify.estimate_rub(ens, 1, 1.0, trials=1)
    assert est.C1_hat == est.C2_hat == est.mean_ratio


def test_isometric_stack():
    # A_j = sqrt(L) e_i e_k^T over every (i, k): rows of the explicit operator
    # are sqrt(L) times an orthonormal basis, so ||A(X)||_2^2 / L ==
    # ||X||_F^2 == 1 for every unit-norm test matrix
    m = n = 2
    L = m * n
    ens = measure.RopEnsemble(betas=np.sqrt(L) * np.repeat(np.eye(m), n, axis=0),
                              gammas=np.tile(np.eye(n), (m, 1)))
    est = certify.estimate_rub(ens, 1, 2.0, trials=20)
    assert est.C1_hat == pytest.approx(1.0, abs=1e-10)
    assert est.C2_hat == pytest.approx(1.0, abs=1e-10)


def test_estimate_ordering_invariant():
    ens = measure.sample_gaussian_rop(6, 6, 40, seed=3)
    est = certify.estimate_rub(ens, 2, 1.0, trials=50)
    assert est.C1_hat <= est.mean_ratio <= est.C2_hat


def test_adding_trials_widens_extrema():
    ens = measure.sample_gaussian_rop(5, 5, 30, seed=4)
    small = certify.estimate_rub(ens, 1, 1.0, trials=30, seed=9)
    big = certify.estimate_rub(ens, 1, 1.0, trials=90, seed=9)
    assert big.C1_hat <= small.C1_hat
    assert big.C2_hat >= small.C2_hat


def test_gaussian_reference_band_recorded():
    # regime sanity record against the known reference constants (0.32, 1.01);
    # sampled inner estimates are optimistic, so this is a record, not an assert
    ens = measure.sample_gaussian_rop(10, 10, 400, seed=5)
    est = certify.estimate_rub(ens, 2, 1.0, trials=100, seed=5)
    assert est.optimistic
    assert 0.0 < est.C1_hat <= est.C2_hat


@pytest.mark.parametrize("seed", [0, 2**63 + 5])
def test_estimate_rub_matches_one_generator_per_trial(seed):
    ens = measure.sample_gaussian_rop(12, 12, 150, seed=1)
    est = certify.estimate_rub(ens, 2, 1.0, trials=200, seed=seed)
    assert (est.C1_hat, est.C2_hat, est.mean_ratio) == rub_extrema_per_trial(
        ens, 2, 1.0, 200, seed, certify._STREAM_RUB, measure.apply_map)


def test_estimate_rub_validates_rank():
    ens = measure.sample_gaussian_rop(3, 3, 5, seed=0)
    with pytest.raises(ValueError):
        certify.estimate_rub(ens, 4, 1.0, trials=5)


# ---------------------------------------------------------------------------
# condition checks


def test_exact_condition_reference_constants():
    assert certify.check_exact_condition(0.32, 1.01, 10, 1.0, 1.0) is True
    assert certify.check_exact_condition(0.32, 1.02, 10, 1.0, 1.0) is False


def test_exact_condition_equal_constants():
    assert certify.check_exact_condition(1.0, 1.0, 3.0, 0.5, 1.0)


def test_exact_condition_boundary_is_strict():
    k, p, q = 4.0, 0.5, 1.0
    C2 = k ** ((1.0 / p - 0.5) * q)
    assert not certify.check_exact_condition(1.0, C2, k, p, q)


def test_general_condition_collapses_at_p_equals_q():
    res = certify.check_general_condition(1.0, 1.2, 9.0, 0.5, 0.5)
    assert res.ratio_threshold == pytest.approx(9.0 ** ((2.0 - 0.5) * 0.5))
    assert res.k_lower_bound == pytest.approx(1.0)
    assert bool(res) == certify.check_exact_condition(1.0, 1.2, 9.0, 0.5, 0.5)


def test_general_condition_hand_arithmetic():
    res = certify.check_general_condition(1.0, 0.5, 4.0, 0.5, 1.0)
    assert res.ratio_threshold == pytest.approx(4.0)  # 2^{-1} * 4^{1.5}
    assert res.k_lower_bound == pytest.approx(2.0 ** (2.0 / 3.0))
    assert res.passed


def test_general_condition_huge_ratio_fails():
    assert not certify.check_general_condition(0.01, 100.0, 4.0, 0.5, 1.0)


def test_validate_k():
    assert certify.rub_order(2.5, 2) == 7
    assert certify.rub_order(10, 1) == 11
    with pytest.raises(ValueError):
        certify.rub_order(2.5, 3)
    with pytest.raises(ValueError):
        certify.rub_order(0.5, 2)


# ---------------------------------------------------------------------------
# RIP conversions


def test_rip_identity_pair():
    assert certify.rip_from_rub(1.0, 1.0) == (0.0, 0.0)


def test_rip_reference_constants():
    dlb, dsub = certify.rip_from_rub(0.32, 1.01)
    assert dlb == pytest.approx(0.68)
    assert dsub == pytest.approx(0.01)


def test_rip_round_trip():
    for _ in range(10):
        C1, C2 = rng.uniform(0.1, 1.5), rng.uniform(0.5, 2.0)
        back1, back2 = certify.rub_from_rip(*certify.rip_from_rub(C1, C2))
        # 1 - (1 - x) can move the last bit; exact up to one ulp
        assert back1 == pytest.approx(C1, rel=1e-15)
        assert back2 == pytest.approx(C2, rel=1e-15)
    # dyadic values round-trip bit-exactly
    assert certify.rub_from_rip(*certify.rip_from_rub(0.5, 1.25)) == (0.5, 1.25)


def test_rip_corollary_checks():
    assert certify.check_rip_corollary(0.0, 0.0, 2.0)
    assert not certify.check_rip_corollary(0.5, 0.3, 2.0)
    assert certify.rip_corollary_order(2, 2.0, 1.0, 1.0) == 8


# ---------------------------------------------------------------------------
# NSP constants


def test_nsp_lq_reference_values():
    nsp = certify.nsp_from_rub(0.32, 1.01, 10, 1.0, 1.0, 100, "lq_bounded")
    assert nsp.D == pytest.approx(1.0 / 32.0)
    assert nsp.beta == pytest.approx(1.01 / (0.32 * math.sqrt(10.0)), abs=1e-9)
    assert nsp.beta == pytest.approx(0.99810, abs=1e-5)
    assert nsp.valid  # beta just below 1


def test_nsp_beta_vanishes_with_C2():
    nsp = certify.nsp_from_rub(0.5, 0.0, 10, 0.5, 1.0, 50, "lq_bounded")
    assert nsp.beta == 0.0


def test_nsp_p_equals_q_simplification():
    nsp = certify.nsp_from_rub(0.4, 0.5, 9, 0.7, 0.7, 200, "lq_bounded")
    assert nsp.D == pytest.approx(1.0 / (0.4 * 200))


def test_nsp_beta_validity_matches_exact_condition():
    for _ in range(50):
        C1 = rng.uniform(0.05, 1.0)
        C2 = C1 * rng.uniform(0.5, 10.0)
        p = rng.uniform(0.2, 1.0)
        q = rng.uniform(p, 1.0)
        k = rng.uniform(1.5, 20.0)
        nsp = certify.nsp_from_rub(C1, C2, k, p, q, 100, "lq_bounded")
        assert nsp.valid == certify.check_exact_condition(C1, C2, k, p, q)


def test_nsp_dantzig_depends_on_rank():
    a = certify.nsp_from_rub(0.5, 0.6, 4, 0.5, 1.0, 100, "dantzig", r=1)
    b = certify.nsp_from_rub(0.5, 0.6, 4, 0.5, 1.0, 100, "dantzig", r=4)
    assert b.D > a.D
    assert a.beta == b.beta


# ---------------------------------------------------------------------------
# bound formulas


def _lq(q, eta1):
    return NoiseSpec(kind="lq_bounded", q=q, eta1=eta1)


def test_schatten_bound_noiseless_exact_rank_is_zero():
    out = certify.stability_bound_schatten(0.32, 1.01, 10, 1.0, 1.0, 100, 2,
                                           _lq(1.0, 0.0), tail_norm=0.0)
    assert out == 0.0


def test_schatten_bound_reference_point():
    bound = certify.stability_bound_schatten(0.32, 1.01, 10, 1.0, 1.0, 1000, 2,
                                             _lq(1.0, 0.01))
    rho1 = 0.32 - 1.01 / math.sqrt(10.0)
    expected = (1.0 / math.sqrt(10.0) + 1.0) / (rho1 * 1000.0) * 2.0 * 1000.0 * 0.01
    assert bound == pytest.approx(expected, rel=1e-12)


def test_schatten_bound_homogeneous_in_eta():
    base = certify.stability_bound_schatten(0.32, 1.01, 10, 1.0, 1.0, 500, 1,
                                            _lq(1.0, 0.02))
    doubled = certify.stability_bound_schatten(0.32, 1.01, 10, 1.0, 1.0, 500, 1,
                                               _lq(1.0, 0.04))
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_schatten_bound_condition_violated():
    with pytest.raises(certify.ConditionViolated):
        certify.stability_bound_schatten(0.1, 1.0, 4, 1.0, 1.0, 100, 1, _lq(1.0, 0.1))


def test_schatten_bound_general_branch_runs():
    both = NoiseSpec(kind="intersection", q=0.5, eta1=0.01, eta2=0.05)
    out = certify.stability_bound_schatten(0.9, 1.0, 25, 0.5, 0.5, 200, 2, both,
                                           tail_norm=0.3)
    assert out > 0.0


def test_schatten_bound_rejects_kind_none():
    with pytest.raises(ValueError, match="none"):
        certify.stability_bound_schatten(0.32, 1.01, 10, 1.0, 1.0, 100, 2,
                                         NoiseSpec(kind="none"))


@pytest.mark.parametrize("kind", ["lq_bounded", "intersection"])
def test_schatten_bound_rejects_an_lq_set_of_another_q(kind):
    noise = NoiseSpec(kind=kind, q=0.5, eta1=0.01, eta2=0.05)
    with pytest.raises(ValueError, match="q=0.5"):
        certify.stability_bound_schatten(0.32, 1.01, 10, 1.0, 1.0, 100, 2, noise)


def test_schatten_bound_dantzig_takes_its_q_from_the_bound():
    # the Dantzig set carries no q: the RUB exponent alone sets the power of eta2
    ds = NoiseSpec(kind="dantzig", eta2=0.05)
    a = certify.stability_bound_schatten(0.9, 1.0, 25, 0.5, 0.5, 200, 2, ds)
    b = certify.stability_bound_schatten(0.9, 1.0, 25, 0.5, 1.0, 200, 2, ds)
    assert a > 0.0 and b > 0.0 and a != b


def test_leastq_bound_zero_inputs():
    assert certify.stability_bound_least_q(1.0, 0.5, 0.5, 1.0, 2, 0.0, 0.0) == 0.0


def test_leastq_bound_hand_point():
    assert certify.stability_bound_least_q(1.0, 0.0, 1.0, 1.0, 1, 0.0, 1.0) \
        == pytest.approx(6.0)


def test_leastq_bound_monotone_in_beta():
    vals = [certify.stability_bound_least_q(0.5, b, 0.5, 1.0, 2, 0.3, 0.2)
            for b in np.linspace(0.0, 0.95, 20)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_leastq_bound_rejects_beta_ge_one():
    with pytest.raises(certify.ConditionViolated):
        certify.stability_bound_least_q(1.0, 1.0, 0.5, 1.0, 1, 0.1, 0.1)


def test_nsp_error_bound_reduces_at_equal_arguments():
    X = rng.standard_normal((5, 4))
    tail = np.linalg.svd(X, compute_uv=False)[2:]
    out = certify.nsp_error_bound(0.5, 0.2, 1.0, 2.0, 2, X, X, 0.0)
    expected = (1.2**2 / 0.8) / 2 ** ((1.0 - 0.5) * 1.0) * 2.0 * np.sum(tail)
    assert out == pytest.approx(expected, rel=1e-9)


def test_nsp_error_bound_exact_rank_zero():
    X = np.outer(rng.standard_normal(4), rng.standard_normal(4))
    assert certify.nsp_error_bound(0.5, 0.2, 1.0, 2.0, 1, X, X, 0.0) \
        == pytest.approx(0.0, abs=1e-12)
