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

Functions are real, so the transforms work on the real half spectrum of the
two phases: analysis takes rfft2 of the values and reads a phase bin
(p, q) with q > n_phi//2 as the conjugate of its partner (-p, -q); synthesis
fills the bins with q <= n_phi//2 and inverts with irfft2.  Analysis forms
conj(coeff @ conj(mono_int)), which equals conj(coeff) @ mono_int entry for
entry, so the dense coefficient matrix is never copied.  ``YamabeProblem.values``
keeps a function's synthesized values with it, so each coefficient vector is
synthesized once.

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

    The transforms run on the rfft2 half spectrum over the two phases, and
    analysis applies the coefficient matrix as conj(coeff @ conj(.)), not
    copying it (see the module docstring; the values memo is
    ``YamabeProblem.values``).  Their per-basis gather and scatter plan is
    built on the first transform with a basis and kept in ``_plan``, like
    the nodes in ``_flat_nodes``.  Any degree >= 1 works: an odd n_phi, an
    even one (whose Nyquist bin q = n_phi/2 is its own partner), and a rule
    below 4 (jmax + lmax), whose phase bins wrap around.
    """

    N: int
    degree: int
    total_mass: float
    s_nodes: Array
    s_weights: Array  # normalized to sum 1
    n_phi: int
    _flat_nodes: Array | None = field(default=None, repr=False)
    _plan: _TransformPlan | None = field(default=None, repr=False)

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

    def _plan_for(self, basis: HarmonicBasis) -> _TransformPlan:
        if self._plan is None or self._plan.exps is not basis.exps:
            self._plan = _TransformPlan.build(self, basis.exps)
        return self._plan

    def analyze_values(self, values: Array, basis: HarmonicBasis) -> tuple[Array, float]:
        """Coefficients of the basis expansion; returns (coeffs, imag_residual)."""
        plan = self._plan_for(basis)
        v = np.asarray(values, dtype=np.float64).reshape(self.grid_shape)
        vhat = np.fft.rfft2(v).reshape(len(self.s_nodes), -1)
        mono_int = np.einsum("sm,sm->m", plan.prof_w, vhat[:, plan.gather])
        mono_int = np.where(plan.flip, np.conj(mono_int), mono_int)
        raw = np.conj(basis.coeff @ np.conj(mono_int))  # == conj(coeff) @ mono_int, with no copy of coeff
        resid = float(np.max(np.abs(raw.imag), initial=0.0))
        return raw.real.copy(), resid

    def synthesize_values(self, coeffs: Array, basis: HarmonicBasis) -> Array:
        """Values of sum_m c_m y_m on the quadrature grid."""
        plan = self._plan_for(basis)
        mon_c = basis.coeff.T @ np.asarray(coeffs, dtype=np.complex128)
        terms = mon_c[plan.order, None] * plan.prof_kept
        n_s, n = len(self.s_nodes), self.n_phi
        half = np.zeros((n_s, n * (n // 2 + 1)), dtype=np.complex128)
        half[:, plan.bins] = np.add.reduceat(terms, plan.starts, axis=0).T
        vals = np.fft.irfft2(half.reshape(n_s, n, -1), s=(n, n), norm="forward")
        return vals.reshape(-1)


@dataclass
class _TransformPlan:
    """Gather and scatter indices of the half-spectrum transforms, for one basis.

    Monomial i sits in the phase bin (p, q) = (alpha_1 - beta_1, alpha_2 - beta_2)
    mod n_phi with radial profile |zeta_1|^{alpha_1+beta_1} |zeta_2|^{alpha_2+beta_2}
    over the s nodes.  Analysis reads every monomial from the rfft2 half
    spectrum; synthesis sums only the monomials with q <= n_phi//2, in bin order.
    """

    exps: Array  # the basis exponents the plan was built for
    gather: Array  # (n_mon,) flat half-spectrum index read by analysis
    flip: Array  # (n_mon,) bool, the bin is the conjugate of the gathered one
    prof_w: Array  # (n_s, n_mon) radial profile times ring weight
    order: Array  # monomials with q <= n_phi//2, sorted by bin
    prof_kept: Array  # (len(order), n_s) their radial profiles
    starts: Array  # first position of each occupied bin in ``order``
    bins: Array  # flat half-spectrum index of each occupied bin

    @staticmethod
    def build(quad: SphereQuadrature, exps: Array) -> _TransformPlan:
        n, h = quad.n_phi, quad.n_phi // 2 + 1
        alpha, beta = exps[:, 0], exps[:, 1]
        deg = alpha + beta
        c, q_rad = np.sqrt(quad.s_nodes), np.sqrt(1.0 - quad.s_nodes)
        powers = range(int(deg.max()) + 1)
        cpow, qpow = np.stack([c**d for d in powers]), np.stack([q_rad**d for d in powers])
        prof = cpow[deg[:, 0]] * qpow[deg[:, 1]]  # (n_mon, n_s)
        p = (alpha[:, 0] - beta[:, 0]) % n
        q = (alpha[:, 1] - beta[:, 1]) % n
        flip = q > n // 2
        gather = np.where(flip, -p % n, p) * h + np.where(flip, n - q, q)
        order = np.flatnonzero(~flip)
        order = order[np.argsort(gather[order], kind="stable")]
        bins, starts = np.unique(gather[order], return_index=True)
        prof_w = (prof * quad._ring_weights()).T.copy()
        return _TransformPlan(exps, gather, flip, prof_w, order, prof[order], starts, bins)


# ---------------------------------------------------------------------------
# spectral functions


@dataclass
class SpectralFunction:
    """A real function on the sphere stored by coefficients in a HarmonicBasis."""

    coeffs: Array
    basis: HarmonicBasis
    tail_energy: float | None = None
    imag_residual: float | None = None
    # (quad, basis, coeffs copy, read-only values) of the last synthesis; see YamabeProblem.values
    _values_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        live = np.flatnonzero(mon_c)
        return {(tuple(a), tuple(b)): c for (a, b), c in zip(self.basis.exps[live].tolist(), mon_c[live])}

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
