"""Text file formats: matrices, ensembles, measurements, reports, configs.

All numeric output is written with shortest round-trip float formatting
(repr), so write-then-read is bit identical and repeated runs with the
same seed produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .measure import RopEnsemble


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


def _fmt(x: float) -> str:
    return repr(float(x))


# -- matrix: first line "m n", then m rows of n space-separated decimals ----


def write_matrix(path, X) -> None:
    X = np.asarray(X, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{X.shape[0]} {X.shape[1]}\n")
        for row in X:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: line 1: empty matrix file")
    try:
        m, n = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise ParseError(f"{path}: line 1: expected 'm n' header") from exc
    if len(lines) < m + 1:
        raise ParseError(f"{path}: line {len(lines) + 1}: expected {m} rows, file truncated")
    rows = []
    for i in range(m):
        parts = lines[1 + i].split()
        if len(parts) != n:
            raise ParseError(f"{path}: line {i + 2}: expected {n} values, got {len(parts)}")
        try:
            rows.append([float(t) for t in parts])
        except ValueError as exc:
            raise ParseError(f"{path}: line {i + 2}: bad float") from exc
    return np.array(rows)


# -- ensemble: "ROP m n L symmetric", then L "beta: ... gamma: ..." lines ---


def write_ensemble(path, ens: RopEnsemble) -> None:
    with open(path, "w") as fh:
        fh.write(f"ROP {ens.m} {ens.n} {ens.L} {int(ens.symmetric)}\n")
        for j in range(ens.L):
            beta = " ".join(_fmt(v) for v in ens.betas[j])
            gamma = " ".join(_fmt(v) for v in ens.gammas[j])
            fh.write(f"beta: {beta} gamma: {gamma}\n")


def read_ensemble(path) -> RopEnsemble:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("ROP "):
        raise ParseError(f"{path}: line 1: expected 'ROP m n L symmetric' header")
    try:
        m, n, L, sym = (int(t) for t in lines[0].split()[1:])
    except ValueError as exc:
        raise ParseError(f"{path}: line 1: bad header fields") from exc
    if len(lines) < L + 1:
        raise ParseError(f"{path}: line {len(lines) + 1}: expected {L} measurement lines, file truncated")
    betas = np.empty((L, m))
    gammas = np.empty((L, n))
    for j in range(L):
        parts = lines[1 + j].split()
        if len(parts) != m + n + 2 or parts[0] != "beta:" or parts[m + 1] != "gamma:":
            raise ParseError(f"{path}: line {j + 2}: expected 'beta: <{m} floats> gamma: <{n} floats>'")
        try:
            betas[j] = [float(t) for t in parts[1:m + 1]]
            gammas[j] = [float(t) for t in parts[m + 2:]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {j + 2}: bad float") from exc
    _check_finite(path, np.isfinite(betas).all(axis=1) & np.isfinite(gammas).all(axis=1))
    try:  # a symmetric ensemble checks that its gammas equal its betas
        return RopEnsemble(betas=betas, gammas=gammas, symmetric=bool(sym))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# -- measurements: "MEAS L", then L floats one per line ---------------------


def write_measurements(path, b) -> None:
    b = np.asarray(b, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"MEAS {b.size}\n")
        for v in b:
            fh.write(_fmt(v) + "\n")


def read_measurements(path) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("MEAS "):
        raise ParseError(f"{path}: line 1: expected 'MEAS L' header")
    try:
        L = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"{path}: line 1: bad header") from exc
    if len(lines) < L + 1:
        raise ParseError(f"{path}: line {len(lines) + 1}: expected {L} values, file truncated")
    try:
        b = np.array([float(lines[1 + j]) for j in range(L)])
    except ValueError as exc:
        raise ParseError(f"{path}: bad float in measurement body") from exc
    _check_finite(path, np.isfinite(b))
    return b


def _check_finite(path, finite_rows) -> None:
    """float() reads 'nan' and 'inf'; no ensemble or measurement holds one."""
    if not finite_rows.all():
        raise ParseError(f"{path}: line {int(np.argmin(finite_rows)) + 2}: non-finite value")


# -- reports and configs ----------------------------------------------------


def write_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_config(path) -> dict:
    """key=value text config; '#' starts a comment, blank lines ignored."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """Deterministic CSV: repr floats, no quoting (fields never hold commas)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
