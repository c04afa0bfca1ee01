"""Bidegree harmonic basis on S^3, sphere quadrature, and fractional multipliers.

L^2 of the sphere splits into blocks H_{j,l} of restrictions of harmonic
polynomials homogeneous of degree j in zeta and l in conj(zeta).  The basis
built here is real-valued and orthonormal for the contact volume form dv_S,
whose total mass is 2^{2N+2} pi^{N+1} (16 pi^2 on S^3).  It is the N = 1
closed form: each block has one element per torus weight (p, q), a
Jacobi polynomial in s = |zeta_1|^2 times a phase, written as a homogeneous
polynomial with integer binomial coefficients and divided by its closed-form
norm (``build_basis``).  So the basis is canonical, needs no linear algebra,
and is orthonormal to rounding.  The quadrature and the transforms on it are
the deterministic N = 1 rule on S^3 (a DFT over the two Hopf phases,
Gauss-Legendre in |zeta_1|^2), the only sphere the runners use.

A function in the span of the blocks H_{j,l}, j, l <= 8, occupies only the
phase bins |p|, |q| <= 8 of the 65 x 65 that the default jmax-8 rule
resolves.  So the phase DFT is pruned to the occupied bins (Markel, "FFT
pruning", IEEE Trans. Audio Electroacoust. 1971): per Gauss-Legendre ring it
is two small dense products, a real cos/sin factor over phi_2 and a complex
factor over phi_1.
Functions are real, so only the half spectrum q <= n_phi//2 is formed (17
p-bins by 9 q-bins at jmax 8).  Each element sits at one torus weight, so
its half-spectrum terms fold into one complex radial profile per bin, a
piece (801 for the 729 elements at jmax 8): synthesis adds each coefficient
times its pieces into their bins, and analysis, its adjoint, reads each
piece's bin once (Driscoll and Healy, Adv. Appl. Math. 15, 1994).  No dense
element-by-monomial matrix exists.
``YamabeProblem.values`` keeps a function's synthesized values with it, so
each coefficient vector is synthesized once.

The fractional operator of order 2k acts diagonally: the element with label
(j, l) is multiplied by lam_j(k) * lam_l(k), with Gamma-ratio multipliers
lam_j(k) = Gamma((Q+2k)/4 + j) / Gamma((Q-2k)/4 + j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .polynomials import conformal_sublaplacian, poly_eval

Array = np.ndarray

# Largest truncation degree the runners accept.  Neither conditioning (the
# closed-form basis is orthonormal to 1e-14 at 8) nor memory (its terms take
# 0.24 MB at 8) limits it; the bound is the fixed workload, and raising it
# needs its own acceptance record.
JMAX_VERIFIED = 8

# ---------------------------------------------------------------------------
# closed-form combinatorics


def surface_measure(N: int) -> float:
    """Euclidean surface measure of S^{2N+1}: 2 pi^{N+1} / N!."""
    return 2.0 * math.pi ** (N + 1) / math.factorial(N)


def total_sphere_mass(N: int) -> float:
    """Mass of dv_S: 2^{2N+1} N! times the surface measure, i.e. 2^{2N+2} pi^{N+1}."""
    return float(2 ** (2 * N + 1) * math.factorial(N) * surface_measure(N))


def lambda_jk(j: int, k: float, Q: int) -> float:
    """Gamma-ratio multiplier of the order-2k operator on degree index j."""
    if not (0 < 2 * k < Q):
        raise DomainError(f"need 0 < 2k < Q, got k={k}, Q={Q}")
    return math.exp(math.lgamma((Q + 2 * k) / 4.0 + j) - math.lgamma((Q - 2 * k) / 4.0 + j))


# ---------------------------------------------------------------------------
# harmonic basis construction


@dataclass
class HarmonicBasis:
    """Real orthonormal basis adapted to the bidegree decomposition.

    Elements carry labels (j, l, m).  Each element is a short sum of ambient
    monomials zeta^alpha conj(zeta)^beta, and the basis keeps only these
    terms: three flat arrays, in row order, give each term's element, its
    exponents ``term_exps[i] = (alpha, beta)`` and its complex coefficient.  A
    monomial recurs in the elements that share its torus weight.  The
    coefficients are Hermitian-symmetric, so every element is a real function.
    """

    N: int
    jmax: int
    lmax: int
    term_elem: Array  # (n_terms,) int, the element of each term
    term_exps: Array  # (n_terms, 2, N+1) int
    term_coeff: Array  # (n_terms,) complex
    labels_j: Array
    labels_l: Array
    block_slices: dict[tuple[int, int], slice]

    @property
    def n_basis(self) -> int:
        return len(self.labels_j)

    @property
    def total_mass(self) -> float:
        return total_sphere_mass(self.N)

    def index_of(self, j: int, l: int, m: int = 0) -> int:
        """Position of element (j, l, m); the block must be built and m lie below its size."""
        sl = self.block_slices.get((j, l), slice(0, 0))
        if not 0 <= m < sl.stop - sl.start:
            raise DomainError(f"the basis has no element ({j},{l},{m})")
        return sl.start + m

    def multipliers(self, k: float) -> Array:
        """lam_j(k) * lam_l(k) per element, from one lam per degree."""
        lam = np.array([lambda_jk(d, k, 2 * self.N + 2) for d in range(max(self.jmax, self.lmax) + 1)])
        return lam[self.labels_j] * lam[self.labels_l]


def _weight_element(j: int, l: int, p: int) -> tuple[Array, Array]:
    """Exponents (n+1, 2, 2) and coefficients of the unit element of H_{j,l} of weight (p, j-l-p).

    The element is f = zeta_1^{p+} conj(zeta_1)^{p-} zeta_2^{q+} conj(zeta_2)^{q-}
    sum_m (-1)^{n-m} C(n+|q|, m) C(n+|p|, n-m) |zeta_1|^{2m} |zeta_2|^{2(n-m)},
    divided by its norm; see ``build_basis``.
    """
    q = j - l - p
    a, b = abs(p), abs(q)
    n = (j + l - a - b) // 2
    m = np.arange(n + 1)
    exps = np.zeros((n + 1, 2, 2), dtype=np.int64)  # exps[i] = (alpha, beta)
    exps[:, 0, 0], exps[:, 1, 0] = max(p, 0) + m, max(-p, 0) + m
    exps[:, 0, 1], exps[:, 1, 1] = max(q, 0) + n - m, max(-q, 0) + n - m
    ints = [(-1) ** (n - i) * math.comb(n + b, i) * math.comb(n + a, n - i) for i in range(n + 1)]
    f = math.factorial
    norm2 = Fraction(f(n + b) * f(n + a), (2 * n + a + b + 1) * f(n + a + b) * f(n))
    return exps, np.array(ints, dtype=np.float64) / math.sqrt(total_sphere_mass(1) * norm2)


def build_basis(N: int, jmax: int, lmax: int | None = None) -> HarmonicBasis:
    """The real orthonormal bidegree basis of S^3 up to (jmax, lmax), in closed form.

    On S^3 the block H_{j,l} has the orthogonal basis of its torus weights
    (p, q): p + q = j - l, |p| + |q| <= j + l with the same parity, and
    n = (j + l - |p| - |q|)/2.  With s = |zeta_1|^2 the element of weight
    (p, q) is e^{i(p phi_1 + q phi_2)} s^{|p|/2} (1-s)^{|q|/2} P_n^{(|q|,|p|)}(2s-1)
    (Folland, Trans. AMS 1972; Szego, Orthogonal Polynomials, ch. IV).  Since
    (x+1)/2 = |zeta_1|^2 and (x-1)/2 = -|zeta_2|^2 on the sphere, it is the
    homogeneous bidegree-(j, l) polynomial

        f = zeta_1^{p+} conj(zeta_1)^{p-} zeta_2^{q+} conj(zeta_2)^{q-}
            sum_{m=0..n} (-1)^{n-m} C(n+|q|, m) C(n+|p|, n-m) |zeta_1|^{2m} |zeta_2|^{2(n-m)},

    p+ = max(p, 0), p- = max(-p, 0), likewise for q: n+1 monomials with
    integer coefficients, so f is its own harmonic extension.  Its squared
    norm is 16 pi^2 (n+|q|)! (n+|p|)! / ((2n+|p|+|q|+1) (n+|p|+|q|)! n!).

    Labels, with f normalized: for j > l, element (j, l, m) is sqrt(2) Re f and
    (l, j, m) is sqrt(2) Im f, where m = p + l ranks p = -l..j.  For j = l,
    (j, j, 0) is the real f of p = 0, and (j, j, 2p-1), (j, j, 2p) are
    sqrt(2) Re f and sqrt(2) Im f of p = 1..j.  So (0, 0, 0) is +1/sqrt(M).
    The blocks are every (j, l) and (l, j) with j <= jmax, l <= lmax; rows
    run in label order, and each row's terms are f's monomials, then those of
    conj(f) (f alone when it is real).  Only N = 1 has a basis here.
    """
    lmax = jmax if lmax is None else lmax
    if N != 1:
        raise DomainError(f"the harmonic basis is the N = 1 closed form, got N={N!r}")
    if not (0 <= jmax <= JMAX_VERIFIED and 0 <= lmax <= JMAX_VERIFIED):
        raise DomainError(f"truncation degrees must lie in [0, {JMAX_VERIFIED}]")
    half = 1 / math.sqrt(2)
    blocks: dict[tuple[int, int], list[tuple[Array, Array]]] = {}  # label -> rows of (exponents, coefficients)
    for j in range(max(jmax, lmax) + 1):
        for l in range(j + 1):
            if not (l <= lmax and j <= jmax or l <= jmax and j <= lmax):
                continue
            re, im = [], []
            for p in range(-l if j > l else 0, j + 1):
                e, c = _weight_element(j, l, p)
                if j == l and p == 0:
                    re.append((e, c))
                    continue
                both = np.concatenate([e, e[:, ::-1]])  # f, then conj(f) on the swapped exponents
                re.append((both, np.concatenate([c, c]) * half))
                im.append((both, np.concatenate([-1j * c, 1j * c]) * half))
            if j > l:
                blocks[(j, l)], blocks[(l, j)] = re, im
            else:
                blocks[(j, j)] = re[:1] + [row for pair in zip(re[1:], im) for row in pair]

    labels = sorted(blocks)
    sizes = [len(blocks[key]) for key in labels]
    starts = np.cumsum([0] + sizes)
    block_slices = {key: slice(int(a), int(b)) for key, a, b in zip(labels, starts, starts[1:])}
    rows = [row for key in labels for row in blocks[key]]
    term_elem = np.repeat(np.arange(len(rows)), [len(c) for _, c in rows])
    term_exps = np.concatenate([e for e, _ in rows])
    term_coeff = np.concatenate([c for _, c in rows], dtype=np.complex128)
    lj = np.repeat(np.array([key[0] for key in labels], dtype=np.int64), sizes)
    ll = np.repeat(np.array([key[1] for key in labels], dtype=np.int64), sizes)
    return HarmonicBasis(N, jmax, lmax, term_elem, term_exps, term_coeff, lj, ll, block_slices)


# ---------------------------------------------------------------------------
# quadrature


@dataclass
class SphereQuadrature:
    """Quadrature for dv_S on S^3 (N = 1), deterministic.

    Tensor-product rule in Hopf coordinates: Gauss-Legendre in s = |zeta_1|^2,
    uniform in the two phases; exact for bidegree polynomials of total degree
    <= ``degree``.  The runners support N = 1 only, so no other rule exists.

    The transforms evaluate the phase DFT on the occupied half-spectrum bins
    only, ring by ring, and work on the spectrum pieces of the elements (see
    the module docstring; the values memo is ``YamabeProblem.values``).
    Their per-basis plan (pieces, occupied bins, DFT factors) is built on
    the first transform with a basis and kept in ``_plans``, one per basis,
    so alternating bases rebuilds nothing, like the nodes in
    ``_flat_nodes``; ``rotated_values`` keeps the plan of its monomials in
    ``_rotations`` the same way and shares the synthesis tail.  Any degree
    >= 1 works: an odd n_phi, an even one (whose Nyquist bin q = n_phi/2 is
    its own partner), and a rule below 4 (jmax + lmax), whose phase bins
    wrap around.
    """

    N: int
    degree: int
    total_mass: float
    s_nodes: Array
    s_weights: Array  # normalized to sum 1
    n_phi: int
    _flat_nodes: Array | None = field(default=None, init=False, repr=False)
    _plans: dict[int, _TransformPlan] = field(default_factory=dict, init=False, repr=False)
    _rotations: dict[int, _RotationPlan] = field(default_factory=dict, init=False, repr=False)

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

    def nodes(self) -> Array:
        """All nodes as a (prod(grid_shape), 2) complex array."""
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

    def integrate(self, values: Array) -> float:
        v = np.asarray(values).reshape(self.grid_shape)
        return float(np.einsum("s,sab->", self._ring_weights(), v))

    # --- spectral transforms --------------------------------------------------

    def _plan_for(self, basis: HarmonicBasis) -> _TransformPlan:
        # keyed on the id of the term exponents: the plan holds that array, so
        # the id cannot be reused while the plan is kept
        key = id(basis.term_exps)
        if key not in self._plans:
            self._plans[key] = _TransformPlan.build(self, basis.term_exps, basis.term_coeff, basis.term_elem)
        return self._plans[key]

    def analyze_values(self, values: Array, basis: HarmonicBasis) -> Array:
        """Coefficients of the basis expansion: the adjoint of ``synthesize_values`` under the rule."""
        plan = self._plan_for(basis)
        v = np.asarray(values, dtype=np.float64).reshape(self.grid_shape)
        # (n_s, n, n) @ (n, 2 n_q): interleaved columns give V_cos - i V_sin as a complex view
        G = (v @ plan.ana_q).view(np.complex128)
        vhat = (plan.ana_p @ G).reshape(len(self.s_nodes), -1)
        piece_int = np.einsum("sk,sk->k", plan.ana_prof, vhat[:, plan.piece_bin]).real
        return np.bincount(plan.src, piece_int, minlength=basis.n_basis)

    def synthesize_values(self, coeffs: Array, basis: HarmonicBasis) -> Array:
        """Values of sum_m c_m y_m on the quadrature grid."""
        plan = self._plan_for(basis)
        return self._synthesize(plan, np.asarray(coeffs, dtype=np.float64)[plan.src])

    def rotated_values(self, coeffs: Array, basis: HarmonicBasis, g: Array) -> Array:
        """Values of u(g zeta) at the nodes zeta, u = sum_m c_m y_m, for a complex 2 x 2 matrix g.

        No point is evaluated.  The terms of u are added into one coefficient
        matrix C_{a,b} over (alpha_1, beta_1) per bidegree (a, b), where g
        acts through its symmetric powers: (g zeta)^alpha = sum_alpha'
        Sym^a(g)[alpha, alpha'] zeta^alpha', so C_{a,b} goes to
        Sym^a(g)^T C_{a,b} conj(Sym^b(g)) (``_symmetric_powers``).  For a
        unitary g each H_{j,l} is invariant (Folland, Trans. AMS 1972), so
        u o g stays in the span of the basis.  The rotated monomials are
        synthesized through the plan of the monomial list of the basis's
        bidegrees (225 at jmax 4, each its own source, numbered by its slot
        in C), kept per basis like ``_plans``.  u o g is real for every g,
        since u is real on all of C^2, so the half-spectrum synthesis applies.
        """
        rot = self._rotations.get(id(basis.term_exps))
        if rot is None:
            rot = self._rotations[id(basis.term_exps)] = _RotationPlan.build(self, basis.term_exps)
        d = rot.dmax + 1
        c = np.asarray(coeffs, dtype=np.float64)[basis.term_elem] * basis.term_coeff
        C = np.bincount(rot.term_slot, c.real, minlength=d**4) + 1j * np.bincount(rot.term_slot, c.imag, minlength=d**4)
        S = _symmetric_powers(np.asarray(g, dtype=np.complex128), rot.dmax)
        C = np.swapaxes(S, 1, 2)[:, None] @ C.reshape((d,) * 4) @ np.conj(S)[None, :]
        return self._synthesize(rot.mono, C.reshape(-1)[rot.mono.src])

    def _synthesize(self, plan: _TransformPlan, c: Array) -> Array:
        """Values on the grid of sum_k c[k] times piece k of the plan; the tail of both syntheses."""
        pieces = c[:, None] * plan.syn_prof
        n_s, n_p, n_q = len(self.s_nodes), plan.syn_p.shape[1], plan.syn_q.shape[0] // 2
        H = np.zeros((n_s, n_p * n_q), dtype=np.complex128)
        H[:, plan.bins] = np.add.reduceat(pieces, plan.starts, axis=0).T
        G = plan.syn_p @ H.reshape(n_s, n_p, n_q)
        # [Re G, Im G] interleaved, (n_s, n, 2 n_q) @ (2 n_q, n)
        return (G.view(np.float64) @ plan.syn_q).reshape(-1)


@dataclass
class _TransformPlan:
    """Spectrum pieces, occupied phase bins and pruned DFT factors, for one list of sources.

    The sources are sums of terms coeff * zeta^alpha conj(zeta)^beta: the
    elements of a basis, or the monomials of ``rotated_values``.  Term i
    sits in the phase bin (p, q) = (alpha_1 - beta_1, alpha_2 - beta_2) mod
    n_phi with radial profile |zeta_1|^{alpha_1+beta_1} |zeta_2|^{alpha_2+beta_2}
    over the s nodes.  Only the terms of the half spectrum q <= n_phi//2
    are kept; a real source's other terms are the conjugates of these.  A
    piece is one (source, bin) pair of kept terms, and its complex profile
    P(s) is the sum of coefficient times radial profile over the source's
    terms in that bin.  The transforms see only the compact spectrum, the
    n_p distinct p-bins times the n_q distinct q-bins of the pieces.

    Synthesis adds c[src] P into each piece's bin (pieces are sorted by
    bin, so one ``reduceat``).  Analysis is its exact adjoint under the
    rule: c_e = sum over the pieces of e of w_q Re sum_s rho_s conj(P(s))
    vhat[s, bin], with ring weight rho_s and the q-weight w_q that
    synthesis applies, so ``ana_prof`` = rho_s w_q conj(P).

    The DFT factors, with w = e^{-2 pi i / n_phi}: analysis multiplies each
    ring's values (phi_1, phi_2) by ``ana_q`` (n_phi, 2 n_q), the real and
    imaginary parts of w^{q b} in interleaved columns, so the product viewed
    as complex is the phi_2 transform, and then by ``ana_p`` = w^{p a}
    (n_p, n_phi).  Synthesis multiplies by ``syn_p`` = w^{-a p} (n_phi, n_p)
    and then by ``syn_q`` (2 n_q, n_phi), whose interleaved row pairs give
    sum_q w_q Re(G_q w^{-q b}); w_q is 1 at q = 0 and at the Nyquist bin of
    an even n_phi and 2 elsewhere, as in an inverse real FFT.

    Every product stays 3-D, batched over the s rings, so that each BLAS call
    is one ring (at most 65 x 65 x 18 at jmax 8), below OpenBLAS's threshold
    for multithreading.  Flat 2-D products over all rings (1105 x 65 @ 65 x
    18) do thread, and lose wherever another process competes for the cores:
    on 2 vCPUs (OpenBLAS 0.3.31) beside one busy-loop process, a
    spectral-descent pass read 0.72-0.92 s with them at 2 BLAS threads
    against 0.26-0.37 s with the per-ring products (BENCH_15.json).
    """

    exps: Array  # the term exponents the plan was built for
    src: Array  # (n_pieces,) source of each piece, pieces sorted by bin
    piece_bin: Array  # (n_pieces,) flat compact-spectrum index of each piece
    syn_prof: Array  # (n_pieces, n_s) complex profile P
    ana_prof: Array  # (n_s, n_pieces) rho_s w_q conj(P)
    starts: Array  # first piece of each occupied bin
    bins: Array  # flat compact-spectrum index of each occupied bin
    ana_q: Array  # (n_phi, 2 n_q) real
    ana_p: Array  # (n_p, n_phi) complex
    syn_p: Array  # (n_phi, n_p) complex
    syn_q: Array  # (2 n_q, n_phi) real

    @staticmethod
    def build(quad: SphereQuadrature, exps: Array, coeff: Array, src: Array) -> _TransformPlan:
        n = quad.n_phi
        p, q = ((exps[:, 0] - exps[:, 1]) % n).T
        kept = q <= n // 2
        coeff, src, p, q, deg = coeff[kept], src[kept], p[kept], q[kept], exps[kept, 0] + exps[kept, 1]
        prof = np.sqrt(quad.s_nodes) ** deg[:, :1] * np.sqrt(1.0 - quad.s_nodes) ** deg[:, 1:]  # (n_kept, n_s)
        p_bins, p_at = np.unique(p, return_inverse=True)
        q_bins, q_at = np.unique(q, return_inverse=True)
        n_src = int(src.max()) + 1
        key = (p_at * len(q_bins) + q_at) * n_src + src  # piece of each term, in bin order
        order = np.argsort(key, kind="stable")
        keys, first = np.unique(key[order], return_index=True)
        syn_prof = np.add.reduceat(coeff[order, None] * prof[order], first, axis=0)
        piece_bin, piece_src = np.divmod(keys, n_src)
        bins, starts = np.unique(piece_bin, return_index=True)

        w = np.exp(-2j * np.pi * np.arange(n) / n)  # w[k] = e^{-2 pi i k / n}, indexed by k mod n
        phase = np.arange(n)
        ana_q = w[np.outer(phase, q_bins) % n].view(np.float64)
        ana_p = w[np.outer(p_bins, phase) % n]
        weight = np.where((q_bins == 0) | (2 * q_bins == n), 1.0, 2.0)
        ana_prof = quad._ring_weights()[:, None] * (weight[piece_bin % len(q_bins), None] * np.conj(syn_prof)).T
        syn_q = (np.repeat(weight, 2)[:, None] * ana_q.T).copy()  # row pairs weight * (cos, -sin)
        syn_p = np.conj(ana_p.T).copy()
        return _TransformPlan(exps, piece_src, piece_bin, syn_prof, ana_prof, starts, bins, ana_q, ana_p, syn_p, syn_q)


def _symmetric_powers(g: Array, dmax: int) -> Array:
    """Sym^d(g), d = 0..dmax, of a 2 x 2 matrix g, padded to (dmax+1)^3.

    S[d, a, b] is the coefficient of zeta_1^b zeta_2^(d-b) in
    (g zeta)_1^a (g zeta)_2^(d-a).  Row a >= 1 of degree d is row a-1 of
    degree d-1 times (g zeta)_1 = g_11 zeta_1 + g_12 zeta_2, and row 0 is row 0
    of degree d-1 times (g zeta)_2.
    """
    S = np.zeros((dmax + 1,) * 3, dtype=np.complex128)
    S[0, 0, 0] = 1.0
    for d in range(1, dmax + 1):
        prev, cur = S[d - 1, :d], S[d]
        cur[1 : d + 1, 1:] = g[0, 0] * prev[:, :-1]
        cur[1 : d + 1] += g[0, 1] * prev
        cur[0, 1:] = g[1, 0] * prev[0, :-1]
        cur[0] += g[1, 1] * prev[0]
    return S


@dataclass
class _RotationPlan:
    """Where a basis's terms sit among the monomials of its bidegrees, for ``rotated_values``.

    The monomial zeta^alpha conj(zeta)^beta has the slot (a, b, alpha_1,
    beta_1) of a dense tensor of side dmax + 1, with a = |alpha|, b = |beta|.
    The plan's monomials are every slot with alpha_1 <= a, beta_1 <= b whose
    bidegree (a, b) some basis term has; ``mono`` is their synthesis plan,
    with each monomial the source numbered by its slot.
    """

    exps: Array  # the basis term exponents the plan was built for (holds the id key, as in _plan_for)
    dmax: int
    term_slot: Array  # (n_terms,) flat slot of each basis term
    mono: _TransformPlan

    @staticmethod
    def build(quad: SphereQuadrature, exps: Array) -> _RotationPlan:
        a, b = exps[:, 0].sum(axis=1), exps[:, 1].sum(axis=1)
        dmax = int(max(a.max(), b.max()))
        shape = (dmax + 1,) * 4
        term_slot = np.ravel_multi_index((a, b, exps[:, 0, 0], exps[:, 1, 0]), shape)
        sa, sb, si, sk = np.indices(shape).reshape(4, -1)
        bidegrees = np.ravel_multi_index((a, b), shape[:2])
        slots = np.flatnonzero((si <= sa) & (sk <= sb) & np.isin(np.ravel_multi_index((sa, sb), shape[:2]), bidegrees))
        sa, sb, si, sk = sa[slots], sb[slots], si[slots], sk[slots]
        mono_exps = np.stack([np.stack([si, sa - si], -1), np.stack([sk, sb - sk], -1)], 1)
        mono = _TransformPlan.build(quad, mono_exps, np.ones(len(slots), dtype=np.complex128), slots)
        return _RotationPlan(exps, dmax, term_slot, mono)


# ---------------------------------------------------------------------------
# spectral functions


@dataclass
class SpectralFunction:
    """A real function on the sphere stored by coefficients in a HarmonicBasis."""

    coeffs: Array
    basis: HarmonicBasis
    tail_energy: float | None = None
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

    def _live_terms(self) -> tuple[Array, Array]:
        """Exponents and scaled coefficients of the terms of the nonzero elements."""
        elem = self.basis.term_elem
        live = self.coeffs[elem] != 0
        return self.basis.term_exps[live], self.coeffs[elem[live]] * self.basis.term_coeff[live]

    def eval(self, zeta: Array) -> Array:
        """Values at points (..., N+1): ``polynomials.poly_eval`` of the live terms.

        That per-coordinate contraction adds up a monomial's terms and builds
        no polynomial table.
        """
        return poly_eval(*self._live_terms(), zeta).real


def constant_function(value: float, basis: HarmonicBasis) -> SpectralFunction:
    c = np.zeros(basis.n_basis)
    c[basis.index_of(0, 0, 0)] = value * math.sqrt(basis.total_mass)
    return SpectralFunction(c, basis)


def basis_element(basis: HarmonicBasis, j: int, l: int, m: int = 0) -> SpectralFunction:
    c = np.zeros(basis.n_basis)
    c[basis.index_of(j, l, m)] = 1.0
    return SpectralFunction(c, basis)


def analyze(values: Array, quad: SphereQuadrature, basis: HarmonicBasis) -> SpectralFunction:
    """Project samples at the quadrature nodes onto the basis; reports tail diagnostics.

    ``tail_energy`` is the quadrature L^2 mass not captured by the truncation
    (zero for band-limited input up to rounding).
    """
    values = np.asarray(values, dtype=np.float64)
    coeffs = quad.analyze_values(values, basis)
    l2 = quad.integrate(values * values)
    tail = max(l2 - float(np.sum(coeffs**2)), 0.0)
    return SpectralFunction(coeffs, basis, tail_energy=tail)


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


def apply_A2_differential(u: SpectralFunction, zeta) -> float | Array:
    """Apply the second-order conformal sub-Laplacian by exact differentiation.

    ``polynomials.conformal_sublaplacian`` maps the live terms of ``u`` to the
    terms of A_2 u, which are evaluated at ``zeta``.
    """
    out = poly_eval(*conformal_sublaplacian(*u._live_terms(), u.basis.N), zeta).real
    return float(out) if out.ndim == 0 else out
