"""Empirical certification of restricted-uniform-boundedness recovery conditions.

Estimates the two-sided constants (C1, C2) of the lq restricted uniform
boundedness property by sampling random rank-r matrices, evaluates the
recovery-condition inequalities, converts to RIP-l2/lq and robust rank
null-space-property constants, and computes theoretical error bounds.
The Schatten-p bound takes the ``measure.NoiseSpec`` the program was
solved over, so the noise draw, the solve and the bound read one spec.

The sampled extrema are *inner* estimates: C1_hat >= true infimum and
C2_hat <= true supremum, so condition checks driven by them are
optimistic.  Every long bound formula is coded twice from independent
readings; the pair must agree to 1e-12 and the public function asserts
that agreement on every call.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .measure import NoiseSpec, apply_map, _substreams
from .linalg import _single_blas_thread, rank_split, schatten_norm

_STREAM_RUB = 3


class ConditionViolated(RuntimeError):
    """A bound was requested outside the regime where it holds (rho <= 0)."""


@dataclasses.dataclass(frozen=True)
class RubEstimate:
    """Sampled two-sided boundedness constants for rank-r inputs.

    Inner estimates: C1_hat >= C1*, C2_hat <= C2*, so downstream
    condition checks are optimistic.
    """

    q: float
    r: int
    C1_hat: float
    C2_hat: float
    mean_ratio: float
    trials: int
    seed: int
    optimistic: bool = True


@dataclasses.dataclass(frozen=True)
class NspConstants:
    D: float
    beta: float
    bound_kind: str  # lq_bounded | dantzig
    t: float
    p: float
    valid: bool  # beta < 1, required for every downstream bound


def _rank_r_sample(m: int, n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian-factor rank-r matrix, normalized to unit Frobenius norm."""
    X = rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T
    return X / np.linalg.norm(X)


@_single_blas_thread()
def estimate_rub(op, r: int, q: float, trials: int, seed: int = 0) -> RubEstimate:
    """Sample min/max of ||A(X)||_q^q / L over unit-norm rank-r matrices.

    Trial t draws its matrix from the substream keyed by (seed, t), so
    adding trials under the same seed never moves the extrema inward.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    L, m, n = op.L, op.m, op.n
    if r < 1 or r > min(m, n):
        raise ValueError(f"rank order {r} out of range for ({m}, {n})")
    ratios = np.empty(trials)
    for t, rng in enumerate(_substreams(seed, _STREAM_RUB, trials)):
        X = _rank_r_sample(m, n, r, rng)
        ratios[t] = np.sum(np.abs(apply_map(op, X)) ** q) / L
    return RubEstimate(q=q, r=r, C1_hat=float(ratios.min()),
                       C2_hat=float(ratios.max()), mean_ratio=float(ratios.mean()),
                       trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# Condition checks.


def _exp_pq(p: float, q: float) -> float:
    return (1.0 / p - 0.5) * q


def _check_pq(p, q):
    if not (0 < p <= q <= 1):
        raise ValueError("need 0 < p <= q <= 1")


def rub_order(k: float, r: int) -> int:
    """The RUB rank order (k + 1) r, for k > 1 with k*r a positive integer,
    as the exact-recovery theorems require."""
    if k <= 1:
        raise ValueError("k must exceed 1")
    if abs(k * r - round(k * r)) > 1e-9:
        raise ValueError(f"k*r must be a positive integer, got {k * r}")
    return int(round((k + 1) * r))


def check_exact_condition(C1: float, C2: float, k: float, p: float, q: float) -> bool:
    """Exact-recovery condition: C2/C1 < k^((1/p-1/2)q), strictly."""
    _check_pq(p, q)
    if C1 <= 0:
        raise ValueError("C1 must be positive")
    if k <= 1:
        raise ValueError("k must exceed 1")
    return C2 / C1 < k ** _exp_pq(p, q)


@dataclasses.dataclass(frozen=True)
class GeneralConditionResult:
    passed: bool
    ratio_ok: bool
    k_ok: bool
    ratio_threshold: float
    k_lower_bound: float

    def __bool__(self) -> bool:
        return self.passed


def check_general_condition(C1: float, C2: float, k: float, p: float, q: float) -> GeneralConditionResult:
    """General-matrix condition: C2/C1 < 2^(1-q/p) k^((1/p-1/2)q) and the k floor."""
    _check_pq(p, q)
    if C1 <= 0:
        raise ValueError("C1 must be positive")
    threshold = 2.0 ** (1.0 - q / p) * k ** _exp_pq(p, q)
    k_lower = 2.0 ** (2.0 * (q - p) / (q * (2.0 - p)))
    ratio_ok = C2 / C1 < threshold
    k_ok = k > k_lower
    return GeneralConditionResult(passed=ratio_ok and k_ok, ratio_ok=ratio_ok,
                                  k_ok=k_ok, ratio_threshold=threshold,
                                  k_lower_bound=k_lower)


def rip_from_rub(C1: float, C2: float) -> tuple[float, float]:
    """(delta_lb, delta_sub) = (1 - C1, C2 - 1); negative delta_lb is allowed."""
    return 1.0 - C1, C2 - 1.0


def rub_from_rip(delta_lb: float, delta_sub: float) -> tuple[float, float]:
    return 1.0 - delta_lb, 1.0 + delta_sub


def rip_corollary_order(r: int, tau: float, p: float, q: float) -> int:
    """s = ceil(r * tau^(2p / ((2-p) q))) for the RIP-based corollary."""
    _check_pq(p, q)
    if tau <= 1:
        raise ValueError("tau must exceed 1")
    return math.ceil(r * tau ** (2.0 * p / ((2.0 - p) * q)))


def check_rip_corollary(delta_sub_sr: float, delta_lb_r: float, tau: float) -> bool:
    """RIP-based exact-recovery check: delta_{s+r}^sub + tau delta_r^lb < tau - 1."""
    if tau <= 1:
        raise ValueError("tau must exceed 1")
    return delta_sub_sr + tau * delta_lb_r < tau - 1.0


def nsp_from_rub(C1: float, C2: float, k: float, p: float, q: float, L: int,
                 bound_kind: str, r: int = 1) -> NspConstants:
    """Robust rank null-space-property constants induced by an lq-RUB pair.

    lq_bounded: D = (C1 L)^(-p/q), beta = (C2 / (C1 k^((1/p-1/2)q)))^(p/q).
    dantzig: D = (2^(q/p+1) / (C1^(2p/q) L^p))^(p/q) * r^((1/p-1/2)p),
    beta = (2 C2 / (C1 k^((1/p-1/2)q)) + 1/2)^(p/q); the Dantzig D depends
    on the rank order r.  beta >= 1 is flagged, not raised.
    """
    _check_pq(p, q)
    if C1 <= 0 or L < 1:
        raise ValueError("need C1 > 0 and L >= 1")
    e = _exp_pq(p, q)
    if bound_kind == "lq_bounded":
        D = (C1 * L) ** (-p / q)
        beta = (C2 / (C1 * k**e)) ** (p / q)
    elif bound_kind == "dantzig":
        D = (2.0 ** (q / p + 1.0) / (C1 ** (2.0 * p / q) * L**p)) ** (p / q) \
            * r ** ((1.0 / p - 0.5) * p)
        beta = (2.0 * C2 / (C1 * k**e) + 0.5) ** (p / q)
    else:
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    return NspConstants(D=D, beta=beta, bound_kind=bound_kind, t=2.0, p=p,
                        valid=beta < 1.0)


# ---------------------------------------------------------------------------
# Error-bound formulas.  Each bound is transcribed twice; the public
# function evaluates both and insists on 1e-12 relative agreement.


def _schatten_bound_first(C1, C2, k, p, q, L, r, noise, tail_norm):
    e = (1.0 / p - 0.5) * q
    rho1 = C1 - C2 * (1.0 / k) ** e
    terms = [2.0 / L ** (1.0 - 2.0 * q) * noise.eta1**q] if noise.has_lq else []
    if tail_norm == 0.0:
        if rho1 <= 0:
            raise ConditionViolated(f"rho1 = {rho1} <= 0: exact-rank condition fails")
        front = ((1.0 / k) ** e + 1.0) / (rho1 * L**q)
        if noise.has_dantzig:
            terms.append(2.0 ** (q / p + q) / rho1 * r**e * noise.eta2**q)
        return front * min(terms)
    rho2 = C1 - C2 * 2.0 ** (q / p - 1.0) * (1.0 / k) ** e
    if rho2 <= 0:
        raise ConditionViolated(f"rho2 = {rho2} <= 0: general condition fails")
    tail_term = ((C2 * 2.0 ** (2.0 * q / p - 1.0) / rho2) * (1.0 / k) ** e + 1.0) \
        * (2.0 ** (2.0 * q / p - 1.0) * (1.0 / k) ** e + 1.0) \
        * (tail_norm / r ** (1.0 / p - 0.5)) ** q
    front = (2.0 ** (q / p - 1.0) * (1.0 / k) ** e + 1.0) / (rho2 * L**q)
    if noise.has_dantzig:
        if rho1 <= 0:
            raise ConditionViolated(f"rho1 = {rho1} <= 0: Dantzig term undefined")
        terms.append(2.0 ** (2.0 * q / p + q + 1.0) / rho1 * r**e * noise.eta2**q)
    return tail_term + front * min(terms)


def _schatten_bound_second(C1, C2, k, p, q, L, r, noise, tail_norm):
    # Independent transcription: powers through exp/log, factors regrouped.
    e = math.exp(math.log(k) * (0.5 - 1.0 / p) * q)  # k^{-(1/p-1/2)q}
    rho1 = C1 - C2 * e
    terms = [2.0 * noise.eta1**q * L ** (2.0 * q - 1.0)] if noise.has_lq else []
    if tail_norm == 0.0:
        if rho1 <= 0:
            raise ConditionViolated("rho1 <= 0")
        if noise.has_dantzig:
            terms.append(math.exp(math.log(2.0) * (q / p + q)) * noise.eta2**q
                         * r ** ((1.0 / p - 0.5) * q) / rho1)
        return (e + 1.0) * min(terms) / (rho1 * L**q)
    two_qp1 = math.exp(math.log(2.0) * (q / p - 1.0))
    rho2 = C1 - C2 * two_qp1 * e
    if rho2 <= 0:
        raise ConditionViolated("rho2 <= 0")
    if noise.has_dantzig and rho1 <= 0:
        raise ConditionViolated("rho1 <= 0")
    two_2qp1 = math.exp(math.log(2.0) * (2.0 * q / p - 1.0))
    scaled_tail = math.exp(q * (math.log(tail_norm) - (1.0 / p - 0.5) * math.log(r))) \
        if tail_norm > 0 else 0.0
    tail_term = (C2 * two_2qp1 * e / rho2 + 1.0) * (two_2qp1 * e + 1.0) * scaled_tail
    if noise.has_dantzig:
        terms.append(4.0 * two_2qp1 * (2.0**q) * r ** ((1.0 / p - 0.5) * q)
                     * noise.eta2**q / rho1)
    return tail_term + (two_qp1 * e + 1.0) * min(terms) / (rho2 * L**q)


def stability_bound_schatten(C1, C2, k, p, q, L, r, noise: NoiseSpec,
                             tail_norm=0.0) -> float:
    """Theoretical bound on ||Xhat - X||_{S_2}^q for the Schatten-p program.

    ``noise`` is the noise set the program was solved over: the lq kind
    (whose q must be the RUB exponent q), the Dantzig kind or their
    intersection; with both constraints the tighter term applies.  The
    exact-rank branch applies when tail_norm == 0 and the general branch
    otherwise.  Raises ConditionViolated when the applicable rho is
    nonpositive.
    """
    _check_pq(p, q)
    if C1 <= 0 or L < 1 or r < 1 or tail_norm < 0:
        raise ValueError("invalid bound arguments")
    if noise.kind == "none":
        raise ValueError("the stability bound needs a noise set, not kind 'none'")
    if noise.has_lq and noise.q != q:
        raise ValueError(f"the lq noise set's q={noise.q} is not the bound's q={q}")
    a = _schatten_bound_first(C1, C2, k, p, q, L, r, noise, tail_norm)
    b = _schatten_bound_second(C1, C2, k, p, q, L, r, noise, tail_norm)
    if abs(a - b) > 1e-12 * max(1.0, abs(a)):
        raise AssertionError(f"bound transcriptions disagree: {a} vs {b}")
    return a


def _leastq_bound_first(D1, beta1, p, q, r, tail_norm, noise_norm):
    return 2.0 * (1.0 + beta1) ** 2 / (1.0 - beta1) * tail_norm**p / r ** ((1.0 / p - 0.5) * p) \
        + 2.0 ** (p / q) * (3.0 + beta1) * D1 / (1.0 - beta1) * noise_norm**p


def _leastq_bound_second(D1, beta1, p, q, r, tail_norm, noise_norm):
    tail = math.exp(p * math.log(tail_norm)) if tail_norm > 0 else 0.0
    noise = math.exp(p * math.log(noise_norm)) if noise_norm > 0 else 0.0
    inv = 1.0 / (1.0 - beta1)
    return inv * ((1.0 + beta1) * (1.0 + beta1) * 2.0 * tail
                  * math.exp(-(1.0 / p - 0.5) * p * math.log(r))
                  + math.exp((p / q) * math.log(2.0)) * (beta1 + 3.0) * D1 * noise)


def stability_bound_least_q(D1, beta1, p, q, r, tail_norm, noise_norm) -> float:
    """Bound on ||Xhat - X||_{S_2}^p for least-q on the Schatten-p sphere."""
    _check_pq(p, q)
    if beta1 >= 1.0:
        raise ConditionViolated(f"beta1 = {beta1} >= 1")
    if D1 < 0 or beta1 < 0 or r < 1 or tail_norm < 0 or noise_norm < 0:
        raise ValueError("invalid bound arguments")
    a = _leastq_bound_first(D1, beta1, p, q, r, tail_norm, noise_norm)
    b = _leastq_bound_second(D1, beta1, p, q, r, tail_norm, noise_norm)
    if abs(a - b) > 1e-12 * max(1.0, abs(a)):
        raise AssertionError(f"bound transcriptions disagree: {a} vs {b}")
    return a


def nsp_error_bound(D, beta, p, t, r, Y, X, map_residual_norm) -> float:
    """Null-space-property error bound on ||Y - X||_{S_t}^p.

    ``map_residual_norm`` is ||A(Y - X)||_q for the lq flavor or
    ||A* A(Y - X)||_op for the Dantzig flavor; the formula is the same.
    """
    if not (0 < p <= t):
        raise ValueError("need 0 < p <= t")
    if beta >= 1.0:
        raise ConditionViolated(f"beta = {beta} >= 1")
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    tail = schatten_norm(rank_split(X, r).tail, p)
    gap = schatten_norm(Y, p) ** p - schatten_norm(X, p) ** p + 2.0 * tail**p
    return (1.0 + beta) ** 2 / (1.0 - beta) / r ** ((1.0 / p - 1.0 / t) * p) * gap \
        + (3.0 + beta) * D / (1.0 - beta) * map_residual_norm**p
