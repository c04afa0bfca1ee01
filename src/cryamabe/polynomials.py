"""Polynomials in (zeta, conj(zeta)) on C^{N+1} with exact differential operators.

A polynomial is a dict mapping (alpha, beta) -> complex coefficient, where
alpha and beta are exponent tuples of length N+1 for zeta and conj(zeta).
It carries the eigenvalue checks of the sphere harmonic basis: tangential
operators T_j = d/dzeta_j - conj(zeta_j) * sum_k zeta_k d/dzeta_k act exactly
on monomials, so those checks need no quadrature.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

Multi = Tuple[int, ...]
Poly = Dict[Tuple[Multi, Multi], complex]

_EVAL_ENTRIES = 2**22  # monomial-table entries per chunk in poly_eval (64 MiB)


def poly_add(p: Poly, q: Poly, coeff: complex = 1.0) -> Poly:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0.0) + coeff * c
    return {k: v for k, v in out.items() if v != 0.0}


def poly_scale(p: Poly, c: complex) -> Poly:
    return {k: c * v for k, v in p.items()}


def monomial(alpha: Multi, beta: Multi) -> Poly:
    return {(tuple(alpha), tuple(beta)): 1.0 + 0.0j}


def _bump(idx: Multi, j: int, step: int) -> Multi:
    lst = list(idx)
    lst[j] += step
    return tuple(lst)


def d_zeta(p: Poly, j: int) -> Poly:
    out: Poly = {}
    for (alpha, beta), c in p.items():
        if alpha[j] > 0:
            key = (_bump(alpha, j, -1), beta)
            out[key] = out.get(key, 0.0) + c * alpha[j]
    return out


def d_zbar(p: Poly, j: int) -> Poly:
    out: Poly = {}
    for (alpha, beta), c in p.items():
        if beta[j] > 0:
            key = (alpha, _bump(beta, j, -1))
            out[key] = out.get(key, 0.0) + c * beta[j]
    return out


def mul_zeta(p: Poly, j: int) -> Poly:
    return {(_bump(alpha, j, 1), beta): c for (alpha, beta), c in p.items()}


def mul_zbar(p: Poly, j: int) -> Poly:
    return {(alpha, _bump(beta, j, 1)): c for (alpha, beta), c in p.items()}


def radial_z(p: Poly) -> Poly:
    """sum_k zeta_k d/dzeta_k; multiplies each monomial by its zeta-degree."""
    return {key: c * sum(key[0]) for key, c in p.items() if sum(key[0])}


def radial_zbar(p: Poly) -> Poly:
    return {key: c * sum(key[1]) for key, c in p.items() if sum(key[1])}


def t_op(p: Poly, j: int) -> Poly:
    """T_j = d/dzeta_j - conj(zeta_j) sum_k zeta_k d/dzeta_k."""
    return poly_add(d_zeta(p, j), mul_zbar(radial_z(p), j), coeff=-1.0)


def tbar_op(p: Poly, j: int) -> Poly:
    return poly_add(d_zbar(p, j), mul_zeta(radial_zbar(p), j), coeff=-1.0)


def conformal_sublaplacian(p: Poly, N: int) -> Poly:
    """-(1/2) sum_j (T_j Tbar_j + Tbar_j T_j) + N^2/4, exactly on polynomials."""
    acc: Poly = {}
    for j in range(N + 1):
        acc = poly_add(acc, t_op(tbar_op(p, j), j))
        acc = poly_add(acc, tbar_op(t_op(p, j), j))
    return poly_add(poly_scale(acc, -0.5), poly_scale(p, N * N / 4.0))


def ambient_laplacian(p: Poly, N: int) -> Poly:
    """Flat Laplacian 4 sum_j d2/dzeta_j dzbar_j on C^{N+1}; zero iff harmonic."""
    acc: Poly = {}
    for j in range(N + 1):
        acc = poly_add(acc, d_zbar(d_zeta(p, j), j), coeff=4.0)
    return acc


def monomial_values(keys, zeta: np.ndarray) -> np.ndarray:
    """Values of each monomial (alpha, beta) at each point: (n_mon, n_pts).

    Powers of every coordinate and its conjugate come from one table, so each
    monomial costs one product per nonzero exponent.
    """
    zeta = zeta.reshape(-1, zeta.shape[-1])
    npts, nvar = zeta.shape
    maxdeg = max((max(max(a), max(b)) for a, b in keys), default=0)
    pows = np.empty((nvar, maxdeg + 1, npts), dtype=np.complex128)
    pows[:, 0] = 1.0
    for p in range(1, maxdeg + 1):
        pows[:, p] = pows[:, p - 1] * zeta.T
    cpows = np.conj(pows)
    out = np.empty((len(keys), npts), dtype=np.complex128)
    for i, (alpha, beta) in enumerate(keys):
        acc = pows[0, alpha[0]].copy()
        for v in range(1, nvar):
            if alpha[v]:
                acc *= pows[v, alpha[v]]
        for v in range(nvar):
            if beta[v]:
                acc *= cpows[v, beta[v]]
        out[i] = acc
    return out


def poly_eval(p: Poly, zeta: np.ndarray) -> np.ndarray:
    """Evaluate at points of shape (..., N+1), in chunks of points that bound the monomial table."""
    zeta = np.asarray(zeta, dtype=np.complex128)
    keys = list(p)
    weights = np.array([p[key] for key in keys], dtype=np.complex128)
    flat = zeta.reshape(-1, zeta.shape[-1])
    out = np.empty(flat.shape[0], dtype=np.complex128)
    chunk = max(1, _EVAL_ENTRIES // max(len(keys), 1))
    for c0 in range(0, flat.shape[0], chunk):
        out[c0 : c0 + chunk] = weights @ monomial_values(keys, flat[c0 : c0 + chunk])
    return out.reshape(zeta.shape[:-1])
