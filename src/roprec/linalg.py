"""Dense real-matrix primitives.

SVD, Schatten (quasi-)norms, best rank-r splits, inner products and the
spectahedron projection used by the PhaseLift solver.  All public
functions are pure and operate on plain numpy arrays.

``_single_blas_thread`` runs a call with every loaded OpenBLAS pool set
to one thread.  numpy and scipy each bring their own OpenBLAS; on the
small dense kernels here their thread pools only contend with each other,
and results would otherwise depend on the thread count.  No module of the
package imports scipy at import time: the first pin loads it, before its
one scan for pools, so the pin covers scipy's pool too.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import os
import threading

import numpy as np

# Symmetry tolerance of spectahedron_project, relative to max(1, max |X|).
_SYM_TOL = 1e-8


class SvdError(RuntimeError):
    """Raised when the iterative SVD eigensolver fails to converge."""


@dataclasses.dataclass(frozen=True)
class SingularDecomposition:
    """Thin SVD: ``U @ diag(sigma) @ V.T`` reconstructs the input.

    ``sigma`` is sorted descending; U and V have orthonormal columns.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


@dataclasses.dataclass(frozen=True)
class RankSplit:
    """Best rank-r part of a matrix and its residual: head + tail == source."""

    head: np.ndarray
    tail: np.ndarray
    r: int


def _as_matrix(X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("matrix contains non-finite entries")
    return X


def svd(X) -> SingularDecomposition:
    """Thin singular value decomposition of a finite real matrix."""
    X = _as_matrix(X)
    try:
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdError(f"SVD did not converge for shape {X.shape}: {exc}") from exc
    return SingularDecomposition(U=U, sigma=s, V=Vt.T)


def singular_values(X) -> np.ndarray:
    """Singular values of X, sorted descending."""
    X = _as_matrix(X)
    try:
        return np.linalg.svd(X, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SvdError(f"SVD did not converge for shape {X.shape}: {exc}") from exc


def schatten_norm(X, p: float) -> float:
    """Schatten p-(quasi-)norm: the l_p norm of the singular value vector.

    p=1 is the nuclear norm, p=2 the Frobenius norm, p=inf the operator
    norm.  For p < 1 this is a quasi-norm; only the p-triangle inequality
    holds.
    """
    s = singular_values(X)
    if np.isinf(p):
        return float(s[0]) if s.size else 0.0
    if p <= 0:
        raise ValueError(f"p must be positive or inf, got {p}")
    return float(np.sum(s**p) ** (1.0 / p))


def rank_split(X, r: int) -> RankSplit:
    """Split X into its best rank-r approximation and the residual."""
    X = _as_matrix(X)
    if r < 0 or r > min(X.shape):
        raise ValueError(f"rank {r} out of range for shape {X.shape}")
    if r == 0:
        return RankSplit(head=np.zeros_like(X), tail=X.copy(), r=0)
    dec = svd(X)
    head = (dec.U[:, :r] * dec.sigma[:r]) @ dec.V[:, :r].T
    return RankSplit(head=head, tail=X - head, r=r)


def frobenius_inner(X, Y) -> float:
    """Trace inner product sum_ij X_ij Y_ij."""
    X = _as_matrix(X)
    Y = _as_matrix(Y)
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    return float(np.sum(X * Y))


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def spectahedron_project(X) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix with unit trace.

    Eigendecomposes the symmetric input, projects the eigenvalues onto
    the probability simplex, and recomposes.
    """
    X = _as_matrix(X)
    if X.shape[0] != X.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {X.shape}")
    scale = max(1.0, float(np.abs(X).max()))
    if np.abs(X - X.T).max() > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    S = 0.5 * (X + X.T)
    w, Q = np.linalg.eigh(S)
    w_proj = simplex_project(w)
    return (Q * w_proj) @ Q.T


# ---------------------------------------------------------------------------
# BLAS threading.


# (get, set) thread-count symbol names: the OpenBLAS builds bundled in the
# numpy and scipy wheels prefix them, and 64-bit-integer builds add a suffix.
_OPENBLAS_SYMBOLS = tuple((f"{prefix}get_num_threads{suffix}",
                           f"{prefix}set_num_threads{suffix}")
                          for prefix in ("scipy_openblas_", "openblas_")
                          for suffix in ("64_", ""))


@functools.cache
def _openblas_pools() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped into this process.

    Empty where /proc/self/maps is missing or no OpenBLAS exports them.
    Looked up on first use, not at import.  scipy.linalg, which the solvers
    import only where they call it, is loaded before the scan: a library
    mapped after this one scan would never be pinned, and a solve's result
    would then depend on the thread count.
    """
    import scipy.linalg  # noqa: F401

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return ()
    pools = []
    for path in sorted(p for p in paths if os.path.isfile(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return tuple(pools)


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = ()


@contextlib.contextmanager
def _single_blas_thread():
    """Run the body (or, used as a decorator, each call) on one BLAS thread.

    The thread counts are process-wide, so nested and concurrent entries
    share one pin: the outermost entry sets every OpenBLAS pool to one
    thread, and the last exit restores each pool's previous count, also
    when the body raises.
    """
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = tuple((put, get()) for get, put in _openblas_pools())
            for put, _ in _pin_saved:
                put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for put, count in _pin_saved:
                    put(count)
