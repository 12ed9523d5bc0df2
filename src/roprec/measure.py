"""Rank-one projection (ROP) measurement maps.

An ensemble stores the L vector pairs (beta_j, gamma_j); the measurement
matrices A_j = beta_j gamma_j^T are never materialized by apply/adjoint,
which run in O(L(m+n)) flops.  ``RopEnsemble`` is the only operator type:
the debiased SROP map is the difference of two symmetric half-ensembles
(see ``debias``).  ``gram`` forms the L x L Gram <A_i, A_j> without any
A_j.  ``NoiseSpec``, the one noise-set spec that noise draws, feasibility
checks, solvers and bounds read, and the explicit (L, m*n) operator (for
the injective-map check and as a test oracle) live here too.

Randomness uses the Philox counter-based generator with a 64-bit seed and
a per-measurement substream keyed by (seed, j), so ensembles reproduce
bit-exactly and could be generated in parallel.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .linalg import singular_values

# Philox substream labels, so measurement / noise / trial streams never collide.
_STREAM_ENSEMBLE = 0
_STREAM_NOISE = 1
# Largest m*n of an explicit (L, m*n) operator, and largest measurement count
# on either side of a Gram (4096^2 doubles are 128 MiB).
_EXPLICIT_CAP = 4096
_GRAM_CAP = 4096


class ResourceError(RuntimeError):
    """Raised when an explicit operator or a Gram would exceed its size cap."""


@dataclasses.dataclass(frozen=True)
class RopEnsemble:
    """L rank-one measurement pairs defining a linear map R^{m x n} -> R^L.

    ``betas`` is (L, m), ``gammas`` is (L, n).  In symmetric (SROP) mode
    m == n and gammas equals betas.
    """

    betas: np.ndarray
    gammas: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        if self.betas.ndim != 2 or self.gammas.ndim != 2:
            raise ValueError("betas and gammas must be 2-D arrays")
        if self.betas.shape[0] != self.gammas.shape[0]:
            raise ValueError("betas and gammas must have the same count")
        if self.symmetric:
            if self.betas.shape != self.gammas.shape:
                raise ValueError("symmetric ensemble requires m == n")
            if not np.array_equal(self.betas, self.gammas):
                raise ValueError("symmetric ensemble requires gammas == betas")

    @property
    def m(self) -> int:
        return self.betas.shape[1]

    @property
    def n(self) -> int:
        return self.gammas.shape[1]

    @property
    def L(self) -> int:
        return self.betas.shape[0]


# The noise sets B of b - A(X): {0}, the lq ball, the Dantzig set and both.
NOISE_KINDS = ("none", "lq_bounded", "dantzig", "intersection")


@dataclasses.dataclass(frozen=True)
class NoiseSpec:
    """Noise set; ``has_lq`` / ``has_dantzig`` say which of the constraints
    ||z||_q / L <= eta1 and ||A*(z)||_op <= eta2 its kind carries."""

    kind: str  # one of NOISE_KINDS
    q: float | None = None
    eta1: float | None = None
    eta2: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.has_lq:
            if self.q is None or not (0 < self.q <= 1):
                raise ValueError("lq-bounded noise requires q in (0, 1]")
            if self.eta1 is None or self.eta1 < 0:
                raise ValueError("lq-bounded noise requires eta1 >= 0")
        if self.has_dantzig:
            if self.eta2 is None or self.eta2 < 0:
                raise ValueError("Dantzig noise requires eta2 >= 0")

    @property
    def has_lq(self) -> bool:
        return self.kind in ("lq_bounded", "intersection")

    @property
    def has_dantzig(self) -> bool:
        return self.kind in ("dantzig", "intersection")


def _substream(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), (stream << 32) | index]))


def sample_gaussian_rop(m: int, n: int, L: int, symmetric: bool = False,
                        seed: int = 0) -> RopEnsemble:
    """Draw a standard-normal ROP ensemble deterministically from ``seed``."""
    if m < 1 or n < 1 or L < 1:
        raise ValueError("m, n, L must be positive")
    if symmetric and m != n:
        raise ValueError("symmetric ensemble requires m == n")
    betas = np.empty((L, m))
    gammas = betas if symmetric else np.empty((L, n))
    for j in range(L):
        g = _substream(seed, _STREAM_ENSEMBLE, j)
        betas[j] = g.standard_normal(m)
        if not symmetric:
            gammas[j] = g.standard_normal(n)
    return RopEnsemble(betas=betas, gammas=gammas, symmetric=symmetric)


# ---------------------------------------------------------------------------
# The solver-facing operator interface.


def apply_map(op: RopEnsemble, X) -> np.ndarray:
    """Evaluate the linear map: values[j] = <A_j, X> = beta_j^T X gamma_j.

    Two matrix-vector products per measurement; A_j is never formed.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (op.m, op.n):
        raise ValueError(f"matrix shape {X.shape} does not match map ({op.m}, {op.n})")
    return np.einsum("ji,ji->j", op.betas @ X, op.gammas)


def adjoint_map(op: RopEnsemble, z) -> np.ndarray:
    """Adjoint A*(z) = sum_j z_j A_j under the trace inner product."""
    z = np.asarray(z, dtype=float)
    if z.shape != (op.L,):
        raise ValueError(f"measurement length {z.shape} does not match L={op.L}")
    return (op.betas * z[:, None]).T @ op.gammas


def debias(ens: RopEnsemble, b) -> tuple[RopEnsemble, RopEnsemble, np.ndarray]:
    """Pair consecutive SROP measurements into differences.

    Returns (plus, minus, btilde): the symmetric half-ensembles over rows
    0, 2, 4, ... and 1, 3, 5, ..., and the differenced measurements.  The
    debiased map Atilde_j = A_{2j-1} - A_{2j} is
    apply_map(plus, X) - apply_map(minus, X).  An odd final measurement
    is dropped.
    """
    if not isinstance(ens, RopEnsemble) or not ens.symmetric:
        raise ValueError("debias requires a symmetric ensemble")
    b = np.asarray(b, dtype=float)
    if b.shape != (ens.L,):
        raise ValueError(f"measurement length {b.shape} does not match L={ens.L}")
    Lt = ens.L // 2
    odd = ens.betas[0:2 * Lt:2]
    even = ens.betas[1:2 * Lt:2]
    plus = RopEnsemble(betas=odd, gammas=odd, symmetric=True)
    minus = RopEnsemble(betas=even, gammas=even, symmetric=True)
    btilde = b[0:2 * Lt:2] - b[1:2 * Lt:2]
    return plus, minus, btilde


def explicit_operator(op: RopEnsemble) -> np.ndarray:
    """(L, m*n) matrix whose row j is the row-major vectorization of A_j."""
    if op.m * op.n > _EXPLICIT_CAP:
        raise ResourceError(
            f"explicit operator for m*n={op.m * op.n} exceeds cap {_EXPLICIT_CAP}")
    return np.einsum("ji,jk->jik", op.betas, op.gammas).reshape(op.L, op.m * op.n)


def check_gram_size(L: int) -> None:
    """Raise ResourceError before a Gram with a side L past the cap is allocated."""
    if L > _GRAM_CAP:
        raise ResourceError(f"Gram of L={L} measurements exceeds cap {_GRAM_CAP}")


def gram(op: RopEnsemble, other: RopEnsemble | None = None) -> np.ndarray:
    """(Cross) Gram <A_i, A'_j> = (B B'^T) o (G G'^T) of two maps (``other``
    defaults to ``op``): M M'^T of their explicit operators, never formed."""
    other = op if other is None else other
    check_gram_size(max(op.L, other.L))
    return (op.betas @ other.betas.T) * (op.gammas @ other.gammas.T)


def lq_norm(z, q: float) -> float:
    """The l_q (quasi-)norm (sum |z_i|^q)^{1/q}."""
    z = np.asarray(z, dtype=float)
    if q <= 0:
        raise ValueError("q must be positive")
    return float(np.sum(np.abs(z) ** q) ** (1.0 / q))


def generate_noise(spec: NoiseSpec, ens, seed: int = 0) -> np.ndarray:
    """Draw Gaussian noise and rescale it exactly onto the constraint boundary.

    lq_bounded: ||z||_q / L == eta1; dantzig: ||A*(z)||_op == eta2;
    intersection: the tighter of the two scalings, so both constraints hold
    with at least one active.
    """
    L = ens.L
    if spec.kind == "none":
        return np.zeros(L)
    z = _substream(seed, _STREAM_NOISE, 0).standard_normal(L)
    scales = []
    if spec.has_lq:
        nrm = lq_norm(z, spec.q)
        scales.append(0.0 if nrm == 0 else L * spec.eta1 / nrm)
    if spec.has_dantzig:
        opnorm = singular_values(adjoint_map(ens, z))[0]
        scales.append(0.0 if opnorm == 0 else spec.eta2 / opnorm)
    return z * min(scales)


def check_feasible(spec: NoiseSpec, ens, residual, tol: float = 0.0):
    """Membership of a residual in the noise set, with per-constraint slack.

    Returns (feasible, slacks) where slacks maps constraint name to
    (allowed level) - (attained level); feasibility allows ``tol`` of
    violation.
    """
    residual = np.asarray(residual, dtype=float)
    slacks: dict[str, float] = {}
    if spec.kind == "none":
        slacks["equality"] = -float(np.max(np.abs(residual), initial=0.0))
        return slacks["equality"] >= -tol, slacks
    if spec.has_lq:
        slacks["lq"] = spec.eta1 - lq_norm(residual, spec.q) / ens.L
    if spec.has_dantzig:
        opnorm = singular_values(adjoint_map(ens, residual))[0]
        slacks["dantzig"] = spec.eta2 - opnorm
    return all(s >= -tol for s in slacks.values()), slacks
