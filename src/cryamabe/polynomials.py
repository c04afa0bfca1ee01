"""Polynomials in (zeta, conj(zeta)) on C^{N+1} with exact differential operators.

A polynomial is a dict mapping (alpha, beta) -> complex coefficient, where
alpha and beta are exponent tuples of length N+1 for zeta and conj(zeta).
It carries the eigenvalue checks of the sphere harmonic basis: tangential
operators T_j = d/dzeta_j - conj(zeta_j) * sum_k zeta_k d/dzeta_k act exactly
on monomials, so those checks need no quadrature.

``eval_terms`` is the one evaluator, for exponent arrays (as the harmonic
basis keeps them) and, through ``poly_eval``, for dict tables.  The
polynomial sum_{a,b} C[a_0, b_0, ..., a_N, b_N] prod_v zeta_v^a_v
conj(zeta_v)^b_v is separable, so the coefficients go into a dense tensor over
the live exponent range and are contracted one coordinate at a time; no table
of monomial values is built.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

Multi = Tuple[int, ...]
Poly = Dict[Tuple[Multi, Multi], complex]

# Entries per block of eval_terms' intermediates (125 KiB complex).  Blocks
# this small stay in cache and below glibc's default 128 KiB mmap threshold, so
# they reuse freed heap memory instead of page-faulting in fresh mappings.
_EVAL_BLOCK = 8000


def poly_add(p: Poly, q: Poly, coeff: complex = 1.0) -> Poly:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0.0) + coeff * c
    return {k: v for k, v in out.items() if v != 0.0}


def poly_scale(p: Poly, c: complex) -> Poly:
    return {k: c * v for k, v in p.items()}


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


def _contract(T: np.ndarray, zeta: np.ndarray, d: int) -> np.ndarray:
    """Values (n,) at points (n, nvar) of the dense coefficient tensor T.

    T holds (d*d)^nvar entries, index a*d + b for the exponents (a, b) of each
    coordinate.  The last coordinate is one matrix product with the table
    z^a conj(z)^b; each earlier one is a multiply-reduce over b, then over a.
    Powers come by repeated multiplication, so a constant (d = 1) is exact.
    """
    n, nvar = zeta.shape
    zt = np.ascontiguousarray(zeta.T)
    pows = np.empty((d, nvar, n), dtype=np.complex128)
    pows[0] = 1.0
    for p in range(1, d):
        np.multiply(pows[p - 1], zt, out=pows[p])
    cpows = np.conj(pows)
    acc = T.reshape(-1, d * d) @ (pows[:, None, -1] * cpows[None, :, -1]).reshape(d * d, n)
    for v in range(nvar - 2, -1, -1):
        acc = (acc.reshape(-1, d, d, n) * cpows[:, v]).sum(axis=-2)
        acc = (acc * pows[:, v]).sum(axis=-2)
    return acc.reshape(n)


def eval_terms(exps: np.ndarray, coeffs: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Sum of coeffs[i] zeta^exps[i, 0] conj(zeta)^exps[i, 1] at points (..., nvar).

    ``exps`` is an integer array (n_terms, 2, nvar) of exponent pairs and
    ``coeffs`` a vector (n_terms,); the values have shape (...).  The
    coefficients are added into one dense tensor over the live exponent range
    d (d = 1 for a constant), so a repeated pair counts with the sum of its
    coefficients, and the tensor is contracted one coordinate at a time
    (``_contract``), with the points in blocks so that no intermediate holds
    more than max(``_EVAL_BLOCK``, (d*d)^nvar) entries.
    """
    zeta = np.asarray(zeta, dtype=np.complex128)
    nvar = zeta.shape[-1]
    flat = zeta.reshape(-1, nvar)
    exps = np.asarray(exps, dtype=np.int64).reshape(-1, 2, nvar)
    out = np.zeros(len(flat), dtype=np.complex128)
    if len(exps):
        d = int(exps.max()) + 1
        T = np.zeros((d * d) ** nvar, dtype=np.complex128)
        np.add.at(T, np.ravel_multi_index(tuple(exps[:, 0].T * d + exps[:, 1].T), (d * d,) * nvar), coeffs)
        chunk = max(1, _EVAL_BLOCK // max(T.size // (d * d), d * d))
        for c0 in range(0, len(flat), chunk):
            out[c0 : c0 + chunk] = _contract(T, flat[c0 : c0 + chunk], d)
    return out.reshape(zeta.shape[:-1])


def poly_eval(p: Poly, zeta: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial table at points of shape (..., N+1) through ``eval_terms``."""
    return eval_terms(np.array(list(p), dtype=np.int64), np.array(list(p.values()), dtype=np.complex128), zeta)
