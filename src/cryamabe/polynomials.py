"""Polynomials in (zeta, conj(zeta)) on C^{N+1} as term arrays, with the exact sub-Laplacian.

A polynomial is a pair of arrays: ``exps`` (n_terms, 2, N+1) of integer
exponent pairs (alpha, beta) and ``coeffs`` (n_terms,) of complex
coefficients, the sum of coeffs[i] zeta^alpha_i conj(zeta)^beta_i.  An
exponent pair may recur; its terms add.  The harmonic basis keeps its elements
in this form.

The tangential fields T_j = d/dzeta_j - conj(zeta_j) sum_k zeta_k d/dzeta_k
and their conjugates map a monomial to two shifted monomials with integer
factors (Folland, Trans. AMS 1972), so ``conformal_sublaplacian`` is exact
differentiation and needs no quadrature.

``poly_eval`` is the one evaluator.  The polynomial sum_{a,b} C[a_0, b_0,
..., a_N, b_N] prod_v zeta_v^a_v conj(zeta_v)^b_v is separable, so the
coefficients go into a dense tensor over the live exponent range and are
contracted one coordinate at a time; no table of monomial values is built.
"""

from __future__ import annotations

import numpy as np

# Entries per block of poly_eval's intermediates (125 KiB complex).  Blocks
# this small stay in cache and below glibc's default 128 KiB mmap threshold, so
# they reuse freed heap memory instead of page-faulting in fresh mappings.
_EVAL_BLOCK = 8000


def _tangential(exps: np.ndarray, coeffs: np.ndarray, j: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """T_j (s = 0) or Tbar_j (s = 1) of the terms, two shifted copies per term.

    T_j sends zeta^alpha conj(zeta)^beta to alpha_j times alpha lowered at j
    and -|alpha| times beta raised at j; Tbar_j swaps the roles of alpha and
    beta.  Copies whose factor is zero are dropped.
    """
    lowered, raised = exps.copy(), exps.copy()
    lowered[:, s, j] -= 1
    raised[:, 1 - s, j] += 1
    factors = np.concatenate([exps[:, s, j], -exps[:, s].sum(axis=1)])
    keep = factors != 0
    return np.concatenate([lowered, raised])[keep], (factors * np.concatenate([coeffs, coeffs]))[keep]


def conformal_sublaplacian(exps: np.ndarray, coeffs: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """-(1/2) sum_j (T_j Tbar_j + Tbar_j T_j) + N^2/4 of a term array, exactly.

    The result repeats exponent pairs; ``poly_eval`` adds them.
    """
    exps = np.asarray(exps, dtype=np.int64).reshape(-1, 2, N + 1)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    out_exps, out_coeffs = [exps], [N * N / 4.0 * coeffs]
    for j in range(N + 1):
        for s in (0, 1):
            e, c = _tangential(*_tangential(exps, coeffs, j, 1 - s), j, s)
            out_exps.append(e)
            out_coeffs.append(-0.5 * c)
    return np.concatenate(out_exps), np.concatenate(out_coeffs)


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


def poly_eval(exps: np.ndarray, coeffs: np.ndarray, zeta: np.ndarray) -> np.ndarray:
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
