"""Bidegree harmonic bases on S^{2N+1}, sphere quadrature, and fractional multipliers.

L^2 of the sphere splits into blocks H_{j,l} of restrictions of harmonic
polynomials homogeneous of degree j in zeta and l in conj(zeta).  The basis
built here is real-valued and orthonormal for the contact volume form dv_S,
whose total mass is 2^{2N+2} pi^{N+1}.  All inner products used during
construction come from closed-form monomial moments, so orthonormality is
limited only by linear-algebra conditioning, never by quadrature.  The basis
construction is N-generic; the quadrature and the transforms on it are the
deterministic N = 1 rule on S^3 (FFT over the two Hopf phases, Gauss-Legendre
in |zeta_1|^2), the only sphere the runners use.

The fractional operator of order 2k acts diagonally: the element with label
(j, l) is multiplied by lam_j(k) * lam_l(k), with Gamma-ratio multipliers
lam_j(k) = Gamma((Q+2k)/4 + j) / Gamma((Q-2k)/4 + j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import BasisConstructionError, DomainError
from .polynomials import Poly, conformal_sublaplacian, eval_terms, poly_eval

Array = np.ndarray

# Largest truncation degree whose N = 1 basis passes verify-spectral's
# orthonormality check (1e-8); jmax 9 misses it and jmax 10 fails to build.
JMAX_VERIFIED = 8

# ---------------------------------------------------------------------------
# closed-form combinatorics


def surface_measure(N: int) -> float:
    """Euclidean surface measure of S^{2N+1}: 2 pi^{N+1} / N!."""
    return 2.0 * math.pi ** (N + 1) / math.factorial(N)


def total_sphere_mass(N: int) -> float:
    """Mass of dv_S: 2^{2N+1} N! times the surface measure, i.e. 2^{2N+2} pi^{N+1}."""
    return float(2 ** (2 * N + 1) * math.factorial(N) * surface_measure(N))


def dim_H(j: int, l: int, N: int) -> int:
    """Dimension of the bidegree-(j, l) harmonic block."""
    if j < 0 or l < 0 or N < 1:
        raise DomainError("need j, l >= 0 and N >= 1")
    num = (
        Fraction(math.factorial(j + N - 1))
        * math.factorial(l + N - 1)
        * (j + l + N)
    )
    den = (
        Fraction(math.factorial(N))
        * math.factorial(N - 1)
        * math.factorial(j)
        * math.factorial(l)
    )
    val = num / den
    assert val.denominator == 1
    return int(val)


def _moment_fraction(kappa: tuple[int, ...], N: int) -> float:
    num = Fraction(1)
    for a in kappa:
        num *= math.factorial(a)
    return float(num * math.factorial(N) / math.factorial(N + sum(kappa)))


def monomial_moment(alpha: Sequence[int], beta: Sequence[int], N: int, total_mass: float | None = None) -> float:
    """Integral of zeta^alpha conj(zeta)^beta over the sphere against dv_S.

    Vanishes unless alpha == beta; the diagonal value is
    total_mass * alpha! N! / (N + |alpha|)!.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if alpha != beta:
        return 0.0
    mass = total_sphere_mass(N) if total_mass is None else total_mass
    return mass * _moment_fraction(alpha, N)


def lambda_jk(j: int, k: float, Q: int) -> float:
    """Gamma-ratio multiplier of the order-2k operator on degree index j."""
    if not (0 < 2 * k < Q):
        raise DomainError(f"need 0 < 2k < Q, got k={k}, Q={Q}")
    return math.exp(math.lgamma((Q + 2 * k) / 4.0 + j) - math.lgamma((Q - 2 * k) / 4.0 + j))


def _multiindices(degree: int, length: int) -> list[tuple[int, ...]]:
    if length == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in _multiindices(degree - first, length - 1):
            out.append((first,) + rest)
    return out


# ---------------------------------------------------------------------------
# harmonic basis construction


@dataclass
class HarmonicBasis:
    """Real orthonormal basis adapted to the bidegree decomposition.

    Elements carry labels (j, l, m); the coefficient matrix expresses each
    element over a global list of ambient monomials zeta^alpha conj(zeta)^beta,
    whose exponents ``exps[i] = (alpha, beta)`` form an integer array.  The
    coefficients are Hermitian-symmetric, so every element is a real function.
    """

    N: int
    jmax: int
    lmax: int
    exps: Array  # (n_mon, 2, N+1) int
    coeff: Array  # (n_basis, n_mon) complex
    labels_j: Array
    labels_l: Array
    block_slices: dict[tuple[int, int], slice]

    @property
    def n_basis(self) -> int:
        return self.coeff.shape[0]

    @property
    def mon_keys(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The monomials as (alpha, beta) keys of a polynomial table."""
        return [(tuple(a), tuple(b)) for a, b in self.exps.tolist()]

    @property
    def total_mass(self) -> float:
        return total_sphere_mass(self.N)

    def index_of(self, j: int, l: int, m: int = 0) -> int:
        return self.block_slices[(j, l)].start + m

    def multipliers(self, k: float) -> Array:
        """lam_j(k) * lam_l(k) per element, from one lam per degree."""
        lam = np.array([lambda_jk(d, k, 2 * self.N + 2) for d in range(max(self.jmax, self.lmax) + 1)])
        return lam[self.labels_j] * lam[self.labels_l]


def _exponents(j: int, l: int, N: int) -> tuple[Array, Array]:
    """Exponent arrays (A, B), each (n, N+1), of the monomials zeta^A conj(zeta)^B of bidegree (j, l)."""
    if j < 0 or l < 0:
        return np.zeros((0, N + 1), dtype=np.int64), np.zeros((0, N + 1), dtype=np.int64)
    a = np.array(_multiindices(j, N + 1), dtype=np.int64)
    b = np.array(_multiindices(l, N + 1), dtype=np.int64)
    return np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))


def _gram(A1: Array, B1: Array, A2: Array, B2: Array, N: int, mass: float) -> Array:
    """Closed-form Hermitian Gram: entry (r, c) integrates mono1_r * conj(mono2_c).

    mono1_r = zeta^A1[r] conj(zeta)^B1[r], likewise mono2_c.  Passing (B2, A2)
    for (A2, B2) gives the bilinear pairing (no conjugation).
    """
    left = A1[:, None] + B2[None]
    right = B1[:, None] + A2[None]
    mask = np.all(left == right, axis=-1)
    kappas, inv = np.unique(left[mask], axis=0, return_inverse=True)
    mu = np.array([mass * _moment_fraction(k, N) for k in kappas.tolist()])
    G = np.zeros(mask.shape)
    G[mask] = mu[inv.reshape(-1)]
    return G


_EIG_CUT = 1e-10


def _orthonormal_block(G: Array, expected: int, j: int, l: int) -> tuple[Array, Array]:
    """Top eigenvectors of a (possibly complex) Gram matrix, rank-checked."""
    vals, vecs = np.linalg.eigh(G)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    top = vals[0] if vals.size else 0.0
    if top <= 0:
        raise BasisConstructionError(j, l, "Gram matrix is not positive")
    rank = int(np.sum(vals > _EIG_CUT * top))
    if rank != expected:
        raise BasisConstructionError(j, l, f"rank {rank} != expected dim {expected}")
    return vals[:expected], vecs[:, :expected]


def _keys(A: Array, B: Array) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return list(zip(map(tuple, A.tolist()), map(tuple, B.tolist())))


def build_basis(N: int, jmax: int, lmax: int | None = None) -> HarmonicBasis:
    """Construct the real orthonormal bidegree basis up to (jmax, lmax).

    Per block: project the bidegree-(j, l) monomials off the span of the
    (j-1, l-1) monomials (which carries every lower block), orthonormalize the
    remainder by a symmetric eigen-decomposition, then realify.  Elements are
    dense rows over the block's monomials, the (j, l) ones then the (j-1, l-1)
    ones.  For j > l the real and imaginary parts of the complex block fill
    the (j, l) and (l, j) labels, with the conjugate on the swapped exponents;
    the diagonal blocks are realified through their 2d real Gram.
    """
    lmax = jmax if lmax is None else lmax
    if not (0 <= jmax <= JMAX_VERIFIED and 0 <= lmax <= JMAX_VERIFIED):
        raise DomainError(f"truncation degrees must lie in [0, {JMAX_VERIFIED}]")
    mass = total_sphere_mass(N)
    blocks: dict[tuple[int, int], tuple[Array, list]] = {}  # label -> (rows, column keys)
    for j in range(max(jmax, lmax) + 1):
        for l in range(j + 1):
            if not (l <= lmax and j <= jmax or l <= jmax and j <= lmax):
                continue
            A, B = _exponents(j, l, N)
            A0, B0 = _exponents(j - 1, l - 1, N)
            G_perp = _gram(A, B, A, B, N, mass)
            X = np.zeros((0, len(A)))
            if len(A0):
                G_low = _gram(A0, B0, A0, B0, N, mass)
                G_lu = _gram(A0, B0, A, B, N, mass)
                X = np.linalg.lstsq(G_low, G_lu, rcond=None)[0]  # real moments: conj(X) == X
                G_perp = G_perp - G_lu.T @ X
            CA, CB = np.vstack([A, A0]), np.vstack([B, B0])
            d = dim_H(j, l, N)
            if j > l:
                vals, vecs = _orthonormal_block(G_perp, d, j, l)
                W = (vecs / np.sqrt(vals)).T.copy()
                Y = np.hstack([W, np.array([-X @ w for w in W])])  # [w, -X w]; matvecs round as the tests' reference
                cols = _keys(CA, CB) + _keys(CB, CA)
                blocks[(j, l)] = np.hstack([Y * (1 / math.sqrt(2)), Y * (1 / math.sqrt(2))]), cols
                blocks[(l, j)] = np.hstack([Y * (-1j / math.sqrt(2)), Y * (1j / math.sqrt(2))]), cols
                continue
            # diagonal block: orthonormalize { Re q_a, Im q_a } with the real Gram
            n_up = len(A)
            Bq = _gram(A, B, B, A, N, mass)  # bilinear pairing of the projected generators
            if len(A0):
                B_ul = _gram(A, B, B0, A0, N, mass)
                B_ll = _gram(A0, B0, B0, A0, N, mass)
                Bq = Bq - B_ul @ X - X.T @ B_ul.T + X.T @ B_ll @ X
            S = np.zeros((2 * n_up, 2 * n_up))
            S[:n_up, :n_up] = 0.5 * (Bq + G_perp)
            S[n_up:, n_up:] = 0.5 * (G_perp - Bq)
            # real moments make the mixed Re/Im pairings vanish identically
            vals, vecs = _orthonormal_block(S, d, j, l)
            V = vecs / np.sqrt(vals)
            s_q = 0.5 * V[:n_up] - 0.5j * V[n_up:]  # Re q = (q + conj q)/2, Im q = (q - conj q)/(2i)
            s_qc = 0.5 * V[:n_up] + 0.5j * V[n_up:]
            cols = _keys(CA, CB)
            where = {key: i for i, key in enumerate(cols)}
            swap = np.array([where[(b, a)] for a, b in cols])  # conj(q)[i] = q[swap[i]]
            Q = np.hstack([np.eye(n_up), -X.T])  # q_a = [e_a, -X[:, a]]
            rows = np.zeros((d, len(cols)), dtype=np.complex128)
            for a in range(n_up):
                rows += s_q[a][:, None] * Q[a]
                rows += s_qc[a][:, None] * Q[a, swap]
            # columns in the order the accumulation first touches them
            touched = np.concatenate([np.r_[nz, swap[nz]] for nz in map(np.flatnonzero, Q)])
            touched = touched[np.sort(np.unique(touched, return_index=True)[1])]
            blocks[(j, j)] = rows[:, touched], [cols[i] for i in touched]

    # a monomial's column is placed at its first nonzero coefficient, rows in label order
    labels = sorted(blocks)
    sizes = [len(blocks[key][0]) for key in labels]
    starts = np.cumsum([0] + sizes)
    block_slices = {key: slice(int(a), int(b)) for key, a, b in zip(labels, starts, starts[1:])}
    mon_index: dict[tuple, int] = {}
    for key in labels:
        rows, cols = blocks[key]
        live, first = np.unique(np.nonzero(rows)[1], return_index=True)
        for c in live[np.argsort(first)]:
            mon_index.setdefault(cols[c], len(mon_index))
    coeff = np.zeros((starts[-1], len(mon_index)), dtype=np.complex128)
    for key, (rows, cols) in blocks.items():
        kept = [i for i, col in enumerate(cols) if col in mon_index]  # the others are zero here
        coeff[block_slices[key], [mon_index[cols[i]] for i in kept]] = rows[:, kept]
    lj = np.repeat(np.array([key[0] for key in labels], dtype=np.int64), sizes)
    ll = np.repeat(np.array([key[1] for key in labels], dtype=np.int64), sizes)
    exps = np.array(list(mon_index), dtype=np.int64)
    return HarmonicBasis(N, jmax, lmax, exps, coeff, lj, ll, block_slices)


# ---------------------------------------------------------------------------
# quadrature


@dataclass
class SphereQuadrature:
    """Quadrature for dv_S on S^3 (N = 1), deterministic.

    Tensor-product rule in Hopf coordinates: Gauss-Legendre in s = |zeta_1|^2,
    uniform in the two phases; exact for bidegree polynomials of total degree
    <= ``degree``.  The runners support N = 1 only, so no other rule exists.
    """

    N: int
    degree: int
    total_mass: float
    s_nodes: Array
    s_weights: Array  # normalized to sum 1
    n_phi: int
    _flat_nodes: Array | None = field(default=None, repr=False)

    @staticmethod
    def build(N: int, degree: int) -> "SphereQuadrature":
        if N != 1:
            raise DomainError(f"the sphere quadrature is the N = 1 Hopf rule, got N={N!r}")
        x, w = np.polynomial.legendre.leggauss(degree // 4 + 1)
        return SphereQuadrature(N, degree, total_sphere_mass(N), 0.5 * (x + 1.0), 0.5 * w, degree + 1)

    # --- node access --------------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (len(self.s_nodes), self.n_phi, self.n_phi)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.grid_shape))

    def nodes(self) -> Array:
        """All nodes as a (n_nodes, 2) complex array."""
        if self._flat_nodes is None:
            s = self.s_nodes[:, None, None]
            phi = 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi
            e1 = np.exp(1.0j * phi)[None, :, None]
            e2 = np.exp(1.0j * phi)[None, None, :]
            z1 = np.sqrt(s) * e1 * np.ones((1, 1, self.n_phi))
            z2 = np.sqrt(1.0 - s) * e2 * np.ones((1, self.n_phi, 1))
            self._flat_nodes = np.stack([z1, z2], axis=-1).reshape(-1, 2)
        return self._flat_nodes

    def _ring_weights(self) -> Array:
        """Weight of each node on the ring of each s node."""
        return self.total_mass * self.s_weights / self.n_phi**2

    def weights(self) -> Array:
        return np.repeat(self._ring_weights(), self.n_phi**2)

    def integrate(self, values: Array) -> float:
        v = np.asarray(values).reshape(self.grid_shape)
        return float(np.einsum("s,sab->", self._ring_weights(), v))

    def eval_fn(self, fn: Callable[[Array], Array]) -> Array:
        return np.asarray(fn(self.nodes()), dtype=np.float64)

    # --- spectral transforms --------------------------------------------------

    def _profiles(self, basis: HarmonicBasis) -> tuple[Array, Array, Array]:
        key = "_prof_cache"
        cache = getattr(self, key, None)
        if cache is not None and cache[0] is basis.exps:
            return cache[1], cache[2], cache[3]
        s = self.s_nodes
        prof = np.empty((len(basis.exps), len(s)))
        bins = np.empty((len(basis.exps), 2), dtype=np.int64)
        c = np.sqrt(s)
        q = np.sqrt(1.0 - s)
        for i, (alpha, beta) in enumerate(basis.exps.tolist()):
            a, b = alpha[0] + beta[0], alpha[1] + beta[1]
            prof[i] = c**a * q**b
            bins[i, 0] = (alpha[0] - beta[0]) % self.n_phi
            bins[i, 1] = (alpha[1] - beta[1]) % self.n_phi
        setattr(self, key, (basis.exps, prof, bins[:, 0], bins[:, 1]))
        return prof, bins[:, 0], bins[:, 1]

    def analyze_values(self, values: Array, basis: HarmonicBasis) -> tuple[Array, float]:
        """Coefficients of the basis expansion; returns (coeffs, imag_residual)."""
        v = np.asarray(values, dtype=np.complex128).reshape(self.grid_shape)
        vhat = np.fft.fft2(v, axes=(1, 2))
        prof, b1, b2 = self._profiles(basis)
        gathered = vhat[:, b1, b2].T  # (n_mon, n_s)
        mono_int = np.einsum("ms,s,ms->m", prof, self._ring_weights(), gathered)
        raw = np.conj(basis.coeff) @ mono_int
        resid = float(np.max(np.abs(raw.imag), initial=0.0))
        return raw.real.copy(), resid

    def synthesize_values(self, coeffs: Array, basis: HarmonicBasis) -> Array:
        """Values of sum_m c_m y_m on the quadrature grid."""
        mon_c = basis.coeff.T @ np.asarray(coeffs, dtype=np.complex128)
        prof, b1, b2 = self._profiles(basis)
        n_s = len(self.s_nodes)
        fhat = np.zeros((n_s, self.n_phi, self.n_phi), dtype=np.complex128)
        flat = fhat.reshape(n_s, -1)
        idx = b1 * self.n_phi + b2
        np.add.at(flat.T, idx, (mon_c[:, None] * prof))
        vals = np.fft.ifft2(fhat, axes=(1, 2)) * self.n_phi**2
        return vals.real.reshape(-1)


# ---------------------------------------------------------------------------
# spectral functions


@dataclass
class SpectralFunction:
    """A real function on the sphere stored by coefficients in a HarmonicBasis."""

    coeffs: Array
    basis: HarmonicBasis
    tail_energy: float | None = None
    imag_residual: float | None = None

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.basis.n_basis,):
            raise DomainError("coefficient vector does not match the basis size")

    def copy_with(self, coeffs: Array) -> "SpectralFunction":
        return SpectralFunction(coeffs, self.basis)

    def __add__(self, other: "SpectralFunction") -> "SpectralFunction":
        return SpectralFunction(self.coeffs + other.coeffs, self.basis)

    def __sub__(self, other: "SpectralFunction") -> "SpectralFunction":
        return SpectralFunction(self.coeffs - other.coeffs, self.basis)

    def __mul__(self, scalar: float) -> "SpectralFunction":
        return SpectralFunction(self.coeffs * scalar, self.basis)

    __rmul__ = __mul__

    def to_poly(self) -> Poly:
        mon_c = self.basis.coeff.T @ self.coeffs.astype(np.complex128)
        return {key: c for key, c in zip(self.basis.mon_keys, mon_c) if c != 0}

    def eval(self, zeta: Array) -> Array:
        """Values at points (..., N+1), from the live monomials of the ambient polynomial.

        The monomial coefficients of the nonzero elements go through
        ``polynomials.eval_terms``, a per-coordinate contraction; no
        polynomial table is built.
        """
        mon_c = self.basis.coeff.T @ self.coeffs.astype(np.complex128)
        live = mon_c != 0
        return eval_terms(self.basis.exps[live], mon_c[live], zeta).real


def constant_function(value: float, basis: HarmonicBasis) -> SpectralFunction:
    c = np.zeros(basis.n_basis)
    c[basis.index_of(0, 0, 0)] = value * math.sqrt(basis.total_mass)
    return SpectralFunction(c, basis)


def basis_element(basis: HarmonicBasis, j: int, l: int, m: int = 0) -> SpectralFunction:
    c = np.zeros(basis.n_basis)
    c[basis.index_of(j, l, m)] = 1.0
    return SpectralFunction(c, basis)


def analyze(data, quad: SphereQuadrature, basis: HarmonicBasis) -> SpectralFunction:
    """Project samples or a callable onto the basis; reports tail diagnostics.

    ``tail_energy`` is the quadrature L^2 mass not captured by the truncation
    (zero for band-limited input up to rounding).
    """
    values = quad.eval_fn(data) if callable(data) else np.asarray(data, dtype=np.float64)
    coeffs, resid = quad.analyze_values(values, basis)
    l2 = quad.integrate(values * values)
    tail = max(l2 - float(np.sum(coeffs**2)), 0.0)
    return SpectralFunction(coeffs, basis, tail_energy=tail, imag_residual=resid)


def apply_A2k(u: SpectralFunction, k: float) -> SpectralFunction:
    """Order-2k operator: multiply the (j, l) coefficients by lam_j(k) lam_l(k)."""
    return u.copy_with(u.coeffs * u.basis.multipliers(k))


def hk_form(coeffs: Array, mult: Array) -> float:
    """Squared H^k norm sum_m mult_m c_m^2 of a coefficient vector."""
    return float(np.sum(mult * coeffs**2))


def h_minus_k_form(coeffs: Array, mult: Array) -> float:
    """Squared H^{-k} norm sum_m c_m^2 / mult_m of a coefficient vector."""
    return float(np.sum(coeffs**2 / mult))


def norm_Hk(u: SpectralFunction, k: float) -> float:
    return math.sqrt(hk_form(u.coeffs, u.basis.multipliers(k)))


def norm_H_minus_k(f: SpectralFunction, k: float) -> float:
    return math.sqrt(h_minus_k_form(f.coeffs, f.basis.multipliers(k)))


def pairing(f: SpectralFunction, u: SpectralFunction) -> float:
    """L^2 duality pairing; coefficients are in the same orthonormal basis."""
    return float(np.dot(f.coeffs, u.coeffs))


def apply_A2_differential(u, zeta) -> float | Array:
    """Apply the second-order conformal sub-Laplacian by exact differentiation.

    ``u`` may be a SpectralFunction or a polynomial table; the operator is
    applied symbolically to the ambient polynomial and evaluated at ``zeta``.
    """
    if isinstance(u, SpectralFunction):
        N = u.basis.N
        p = u.to_poly()
    else:
        p = u
        N = len(next(iter(p))[0]) - 1
    ap = conformal_sublaplacian(p, N)
    out = poly_eval(ap, np.asarray(zeta, dtype=np.complex128)).real
    return float(out) if out.ndim == 0 else out
