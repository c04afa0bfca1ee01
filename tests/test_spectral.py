import functools
import math
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cryamabe.energy import cached_basis
from cryamabe.errors import DomainError
from cryamabe.polynomials import _tangential, conformal_sublaplacian, poly_eval
from cryamabe.spectral import (
    HarmonicBasis,
    SphereQuadrature,
    SpectralFunction,
    _TransformPlan,
    analyze,
    apply_A2_differential,
    apply_A2k,
    basis_element,
    build_basis,
    constant_function,
    lambda_jk,
    norm_H_minus_k,
    norm_Hk,
    total_sphere_mass,
)


# closed-form monomial moments and the moment-Gram helpers of the reference build
def _moment_fraction(kappa, N):
    num = Fraction(1)
    for a in kappa:
        num *= math.factorial(a)
    return float(num * math.factorial(N) / math.factorial(N + sum(kappa)))


def monomial_moment(alpha, beta, N):
    """Integral of zeta^alpha conj(zeta)^beta against dv_S: zero unless alpha == beta,
    else the total mass times alpha! N! / (N + |alpha|)!."""
    alpha, beta = tuple(alpha), tuple(beta)
    return total_sphere_mass(N) * _moment_fraction(alpha, N) if alpha == beta else 0.0


def _multiindices(degree, length):
    if length == 1:
        return [(degree,)]
    return [(first,) + rest for first in range(degree, -1, -1) for rest in _multiindices(degree - first, length - 1)]


_DENSE = {}


def _dense(basis):
    """The dense layout the basis had before it kept only its terms.

    Returns the monomial exponents (n_mon, 2, 2), columns in order of first
    appearance in the terms, and the (n_basis, n_mon) coefficient matrix.
    """
    hit = _DENSE.get(id(basis))
    if hit is None or hit[0] is not basis:
        mon_index = {}
        keys = map(tuple, basis.term_exps.reshape(len(basis.term_exps), -1).tolist())
        cols = [mon_index.setdefault(key, len(mon_index)) for key in keys]
        coeff = np.zeros((basis.n_basis, len(mon_index)), dtype=np.complex128)
        coeff[basis.term_elem, cols] = basis.term_coeff
        hit = _DENSE[id(basis)] = (basis, np.array(list(mon_index), dtype=np.int64).reshape(-1, 2, 2), coeff)
    return hit[1:]


def _from_dense(N, jmax, lmax, exps, coeff, lj, ll, block_slices):
    """A basis whose terms are the nonzero entries of a dense coefficient matrix, row by row."""
    rows, cols = np.nonzero(coeff)
    return HarmonicBasis(N, jmax, lmax, rows, exps[cols], coeff[rows, cols], lj, ll, block_slices)


def _mon_keys(basis):
    """The monomials of a basis as (alpha, beta) keys of a polynomial table."""
    return [(tuple(a), tuple(b)) for a, b in _dense(basis)[0].tolist()]


def dim_H(j, l, N):
    """Dimension of the bidegree-(j, l) harmonic block."""
    if j < 0 or l < 0 or N < 1:
        raise DomainError("need j, l >= 0 and N >= 1")
    num = Fraction(math.factorial(j + N - 1)) * math.factorial(l + N - 1) * (j + l + N)
    den = Fraction(math.factorial(N)) * math.factorial(N - 1) * math.factorial(j) * math.factorial(l)
    val = num / den
    assert val.denominator == 1
    return int(val)


def pairing(f, u):
    """L^2 duality pairing; coefficients are in the same orthonormal basis."""
    return float(np.dot(f.coeffs, u.coeffs))


# dict polynomials {(alpha, beta): coefficient}: the reference algebra of the
# earlier polynomial module, for the reference basis build and as the oracle of
# the term-array sub-Laplacian


def _ref_table(exps, coeffs):
    """A term array as a dict polynomial, the terms of a repeated pair summed."""
    table = {}
    for (a, b), c in zip(np.asarray(exps).tolist(), coeffs):
        key = (tuple(a), tuple(b))
        table[key] = table.get(key, 0) + c
    return table


def _ref_poly_add(p, q, coeff=1.0):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0.0) + coeff * c
    return {k: v for k, v in out.items() if v != 0.0}


def _ref_poly_scale(p, c):
    return {k: c * v for k, v in p.items()}


def _ref_bump(idx, j, step):
    lst = list(idx)
    lst[j] += step
    return tuple(lst)


def _ref_d_zeta(p, j):
    out = {}
    for (alpha, beta), c in p.items():
        if alpha[j] > 0:
            key = (_ref_bump(alpha, j, -1), beta)
            out[key] = out.get(key, 0.0) + c * alpha[j]
    return out


def _ref_d_zbar(p, j):
    out = {}
    for (alpha, beta), c in p.items():
        if beta[j] > 0:
            key = (alpha, _ref_bump(beta, j, -1))
            out[key] = out.get(key, 0.0) + c * beta[j]
    return out


def _ref_t_op(p, j):
    """T_j = d/dzeta_j - conj(zeta_j) sum_k zeta_k d/dzeta_k."""
    radial = {(alpha, _ref_bump(beta, j, 1)): c * sum(alpha) for (alpha, beta), c in p.items() if sum(alpha)}
    return _ref_poly_add(_ref_d_zeta(p, j), radial, coeff=-1.0)


def _ref_tbar_op(p, j):
    radial = {(_ref_bump(alpha, j, 1), beta): c * sum(beta) for (alpha, beta), c in p.items() if sum(beta)}
    return _ref_poly_add(_ref_d_zbar(p, j), radial, coeff=-1.0)


def _ref_conformal_sublaplacian(p, N):
    """-(1/2) sum_j (T_j Tbar_j + Tbar_j T_j) + N^2/4, exactly on dict polynomials."""
    acc = {}
    for j in range(N + 1):
        acc = _ref_poly_add(acc, _ref_t_op(_ref_tbar_op(p, j), j))
        acc = _ref_poly_add(acc, _ref_tbar_op(_ref_t_op(p, j), j))
    return _ref_poly_add(_ref_poly_scale(acc, -0.5), _ref_poly_scale(p, N * N / 4.0))


def ambient_laplacian(p, N):
    """Flat Laplacian 4 sum_j d2/dzeta_j dzbar_j on C^{N+1}; zero iff harmonic."""
    acc = {}
    for j in range(N + 1):
        acc = _ref_poly_add(acc, _ref_d_zbar(_ref_d_zeta(p, j), j), coeff=4.0)
    return acc


# independent Gamma oracle (Lanczos-free series; only used to cross-check lgamma)
def gamma_oracle(x: float) -> float:
    # Spouge approximation with a = 12, independent of math.lgamma
    a = 12
    c = [math.sqrt(2 * math.pi)]
    for k in range(1, a):
        c.append(
            ((-1) ** (k - 1) / math.factorial(k - 1))
            * (a - k) ** (k - 0.5)
            * math.exp(a - k)
        )
    s = c[0]
    for k in range(1, a):
        s += c[k] / (x - 1 + k)
    return s * (x - 1 + a) ** (x - 0.5) * math.exp(-(x - 1 + a))


class TestDimensions:
    def test_closed_form_values(self):
        assert dim_H(0, 0, 1) == 1 and dim_H(0, 0, 5) == 1
        assert dim_H(1, 0, 1) == 2
        assert dim_H(1, 1, 1) == 3
        assert dim_H(1, 1, 2) == 8
        assert dim_H(2, 1, 2) == 15

    def test_rank_oracle_bidegree_11(self):
        # rank of the (1,1) monomial Gram after projecting out constants
        mass = total_sphere_mass(1)
        mons = [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1))]

        def herm(k1, k2):
            (a1, b1), (a2, b2) = k1, k2
            left = tuple(x + y for x, y in zip(a1, b2))
            right = tuple(x + y for x, y in zip(b1, a2))
            if left != right:
                return 0.0
            alpha = left
            num = math.factorial(alpha[0]) * math.factorial(alpha[1])
            return mass * num / math.factorial(1 + sum(alpha))

        G = np.array([[herm(k1, k2) for k2 in mons] for k1 in mons])
        ones = np.array([herm(k, ((0, 0), (0, 0))) for k in mons])
        G_perp = G - np.outer(ones, ones) / mass
        rank = int(np.sum(np.linalg.eigvalsh(G_perp) > 1e-10 * np.max(G_perp)))
        assert rank == dim_H(1, 1, 1) == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            dim_H(-1, 0, 1)
        with pytest.raises(DomainError):
            dim_H(0, 0, 0)

    def test_overflow_safe(self):
        assert dim_H(32, 32, 3) > 0  # exact integer arithmetic


class TestMoments:
    def test_off_diagonal_vanishes(self):
        assert monomial_moment((1, 0), (0, 1), 1) == 0.0

    def test_total_mass(self):
        assert monomial_moment((0, 0), (0, 0), 1) == pytest.approx(16 * math.pi**2, rel=1e-14)

    def test_first_moment_value(self):
        assert monomial_moment((1, 0), (1, 0), 1) == pytest.approx(total_sphere_mass(1) / 2.0, rel=1e-14)


class TestMultipliers:
    def test_recurrence_values(self):
        assert lambda_jk(0, 1.0, 4) == pytest.approx(0.5, rel=1e-14)
        assert lambda_jk(2, 1.0, 4) == pytest.approx(2.5, rel=1e-14)

    def test_gamma_oracle(self):
        val = lambda_jk(0, 0.5, 4)
        oracle = gamma_oracle(1.25) / gamma_oracle(0.75)
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_monotone_in_j(self):
        vals = [lambda_jk(j, 0.7, 4) for j in range(10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            lambda_jk(0, 2.0, 4)


class TestBasisConstruction:
    def test_block_counts(self, prob6):
        basis = prob6.basis
        for (j, l), sl in basis.block_slices.items():
            assert sl.stop - sl.start == dim_H(j, l, 1)

    def test_constant_block(self, prob6):
        e = basis_element(prob6.basis, 0, 0, 0)
        nodes = prob6.quad.nodes()[:7]
        vals = e.eval(nodes)
        assert np.allclose(vals, 1.0 / math.sqrt(total_sphere_mass(1)), atol=1e-13)

    def test_orthonormality_quadrature_oracle(self, prob6):
        basis, quad = prob6.basis, prob6.quad
        sub = [basis.index_of(j, l, 0) for j in range(4) for l in range(4)]
        vals = np.stack([quad.synthesize_values(np.eye(basis.n_basis)[i], basis) for i in sub])
        gram = np.array([[quad.integrate(a * b) for b in vals] for a in vals])
        assert np.max(np.abs(gram - np.eye(len(sub)))) < 1e-8

    def test_elements_are_harmonic(self, prob6):
        # each element is a homogeneous polynomial of bidegrees (j, l) and (l, j),
        # so its ambient representative is harmonic
        basis = prob6.basis
        e = _ref_to_poly(basis_element(basis, 2, 1, 0))
        rng = np.random.default_rng(0)
        g = rng.standard_normal((20, 4))
        zeta = g[:, :2] + 1.0j * g[:, 2:]
        zeta /= np.linalg.norm(zeta, axis=1)[:, None]
        assert {(sum(a), sum(b)) for a, b in e} == {(2, 1), (1, 2)}
        lap = ambient_laplacian(e, 1)
        assert np.max(np.abs(_ref_poly_eval(lap, zeta))) < 1e-10

    def test_eigenfunction_property(self, prob6):
        basis = prob6.basis
        rng = np.random.default_rng(1)
        g = rng.standard_normal((25, 4))
        zeta = g[:, :2] + 1.0j * g[:, 2:]
        zeta /= np.linalg.norm(zeta, axis=1)[:, None]
        mult = basis.multipliers(1.0)
        for idx in (basis.index_of(1, 0, 0), basis.index_of(1, 1, 1), basis.index_of(3, 2, 2)):
            e = SpectralFunction(np.eye(basis.n_basis)[idx], basis)
            lhs = apply_A2_differential(e, zeta)
            rhs = mult[idx] * e.eval(zeta)
            assert np.max(np.abs(lhs - rhs)) < 1e-6 * max(1.0, np.max(np.abs(rhs)))

    def test_constant_eigenvalue(self, prob6):
        u = constant_function(1.0, prob6.basis)
        zeta = prob6.quad.nodes()[:5]
        lhs = apply_A2_differential(u, zeta)
        assert np.allclose(lhs, 0.25, atol=1e-12)  # N^2/4 at N = 1

    def test_truncation_guard(self):
        for jmax, lmax in ((40, None), (9, None), (-1, None), (2, 9), (2, -1)):
            with pytest.raises(DomainError):
                build_basis(1, jmax, lmax)

    def test_non_n1_refused_before_work(self, monkeypatch):
        # the basis is the N = 1 closed form; other N are refused before any element is built
        import cryamabe.spectral as spectral

        def no_work(*args):
            raise AssertionError("an element was built")

        monkeypatch.setattr(spectral, "_weight_element", no_work)
        for N in (0, 2, 3):
            with pytest.raises(DomainError):
                build_basis(N, 1)

    def test_index_of_refuses_elements_outside_the_basis(self, prob4):
        basis = prob4.basis
        assert basis.index_of(1, 0, 1) == basis.block_slices[(1, 0)].start + 1
        assert basis.index_of(4, 4, 8) == basis.block_slices[(4, 4)].stop - 1
        for j, l, m in ((1, 0, 2), (1, 0, 5), (1, 0, -1), (4, 4, 9), (0, 0, 1), (5, 0, 0)):
            with pytest.raises(DomainError):
                basis.index_of(j, l, m)


class TestTransforms:
    def test_analyze_basis_element(self, prob6):
        basis, quad = prob6.basis, prob6.quad
        idx = basis.index_of(2, 1, 1)
        vals = quad.synthesize_values(np.eye(basis.n_basis)[idx], basis)
        u = analyze(vals, quad, basis)
        assert u.coeffs[idx] == pytest.approx(1.0, abs=1e-8)
        others = np.delete(u.coeffs, idx)
        assert np.max(np.abs(others)) < 1e-8

    def test_analyze_zero(self, prob6):
        u = analyze(np.zeros(len(prob6.quad.nodes())), prob6.quad, prob6.basis)
        assert np.all(u.coeffs == 0.0)

    def test_roundtrip_and_parseval(self, prob6):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(prob6.basis.n_basis)
        vals = prob6.quad.synthesize_values(c, prob6.basis)
        back = analyze(vals, prob6.quad, prob6.basis)
        assert np.max(np.abs(back.coeffs - c)) < 1e-7
        assert prob6.quad.integrate(vals * vals) == pytest.approx(float(np.sum(c * c)), rel=1e-8)
        assert back.tail_energy < 1e-8

    def test_pointwise_synthesize(self, prob6):
        u = basis_element(prob6.basis, 1, 0, 0)
        node = prob6.quad.nodes()[123]
        grid_val = prob6.quad.synthesize_values(u.coeffs, prob6.basis)[123]
        assert float(u.eval(node)) == pytest.approx(grid_val, abs=1e-12)

    def test_quadrature_moment_validation(self, prob6):
        quad = prob6.quad
        nodes = quad.nodes()
        for alpha, beta in (((0, 0), (0, 0)), ((1, 0), (1, 0)), ((2, 1), (2, 1)), ((1, 0), (0, 1))):
            mono = nodes[:, 0] ** alpha[0] * nodes[:, 1] ** alpha[1]
            mono = mono * np.conj(nodes[:, 0]) ** beta[0] * np.conj(nodes[:, 1]) ** beta[1]
            quad_val = quad.integrate(mono.real)
            assert quad_val == pytest.approx(monomial_moment(alpha, beta, 1), abs=1e-8 * quad.total_mass)

    def test_quadrature_is_n1_only(self):
        # the runners support N = 1 only; there is no other sphere rule
        with pytest.raises(DomainError):
            SphereQuadrature.build(2, 8)


class TestDiagonalOperator:
    def test_constant_action(self, prob_half):
        u = constant_function(1.0, prob_half.basis)
        out = apply_A2k(u, 0.5)
        lam0 = lambda_jk(0, 0.5, 4)
        assert out.coeffs[prob_half.basis.index_of(0, 0, 0)] == pytest.approx(
            lam0**2 * u.coeffs[prob_half.basis.index_of(0, 0, 0)], rel=1e-13
        )

    def test_matches_differential(self, prob6):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(prob6.basis.n_basis)
        u = SpectralFunction(c, prob6.basis)
        out = apply_A2k(u, 1.0)
        g = rng.standard_normal((15, 4))
        zeta = g[:, :2] + 1.0j * g[:, 2:]
        zeta /= np.linalg.norm(zeta, axis=1)[:, None]
        assert np.max(np.abs(apply_A2_differential(u, zeta) - out.eval(zeta))) < 1e-6 * np.max(
            np.abs(out.eval(zeta))
        )

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
    def test_linearity_exact(self, a, b):
        basis = build_basis(1, 2)
        u = basis_element(basis, 1, 0, 0)
        v = basis_element(basis, 2, 2, 3)
        lhs = apply_A2k(a * u + b * v, 1.0).coeffs
        rhs = a * apply_A2k(u, 1.0).coeffs + b * apply_A2k(v, 1.0).coeffs
        assert np.array_equal(lhs, rhs)

    def test_composition_multiplies(self, prob6):
        rng = np.random.default_rng(6)
        u = SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis)
        lhs = apply_A2k(apply_A2k(u, 1.0), 0.5).coeffs
        rhs = u.coeffs * prob6.basis.multipliers(1.0) * prob6.basis.multipliers(0.5)
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))


class TestNorms:
    def test_single_mode_norm(self, prob6):
        u = basis_element(prob6.basis, 2, 1, 0)
        lam = lambda_jk(2, 1.0, 4) * lambda_jk(1, 1.0, 4)
        assert norm_Hk(u, 1.0) == pytest.approx(math.sqrt(lam), rel=1e-13)
        assert norm_H_minus_k(u, 1.0) == pytest.approx(1.0 / math.sqrt(lam), rel=1e-13)
        basis = prob6.basis
        for k in (1.0, 0.5):
            expect = [lambda_jk(int(j), k, 4) * lambda_jk(int(l), k, 4) for j, l in zip(basis.labels_j, basis.labels_l)]
            assert np.array_equal(basis.multipliers(k), np.array(expect))

    def test_duality_equality_case(self, prob6):
        rng = np.random.default_rng(7)
        u = SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis)
        f = apply_A2k(u, 1.0)
        assert pairing(f, u) == pytest.approx(norm_Hk(u, 1.0) ** 2, rel=1e-12)
        assert norm_H_minus_k(f, 1.0) == pytest.approx(norm_Hk(u, 1.0), rel=1e-12)

    def test_duality_bound(self, prob6):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis)
            u = SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis)
            assert abs(pairing(f, u)) <= norm_H_minus_k(f, 1.0) * norm_Hk(u, 1.0) * (1 + 1e-12)

    def test_sobolev_embedding_sanity(self, prob6):
        rng = np.random.default_rng(9)
        cs = prob6.constants.C_S
        for _ in range(1000):
            u = SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis)
            lhs = prob6.lp_star_mass(u) ** (2.0 / prob6.constants.p_star)
            assert lhs <= cs * norm_Hk(u, 1.0) ** 2 * (1 + 1e-10)


# ---------------------------------------------------------------------------
# differential tests: the one contraction evaluator against the earlier paths


def _ref_monomial_values(keys, zeta):
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


def _ref_combine_monomials(keys, weights, zeta, chunk=200_000):
    zeta = zeta.reshape(-1, zeta.shape[-1])
    npts = zeta.shape[0]
    out = np.empty(npts, dtype=np.complex128)
    for c0 in range(0, npts, chunk):
        vals = _ref_monomial_values(keys, zeta[c0 : c0 + chunk])
        out[c0 : c0 + chunk] = weights @ vals
    return out


def _ref_eval(f, zeta):
    """SpectralFunction.eval as it was: live monomials through the combiner."""
    shape = np.asarray(zeta).shape[:-1]
    mon_c = _dense(f.basis)[1].T @ f.coeffs.astype(np.complex128)
    live = np.abs(mon_c) > 0
    keys = [k for k, m in zip(_mon_keys(f.basis), live) if m]
    out = _ref_combine_monomials(keys, mon_c[live], np.asarray(zeta, dtype=np.complex128))
    return out.real.reshape(shape)


def _ref_poly_eval(p, zeta):
    """Term-wise evaluation: one product of coordinate powers per monomial."""
    zeta = np.asarray(zeta, dtype=np.complex128)
    zb = np.conj(zeta)
    out = np.zeros(zeta.shape[:-1], dtype=np.complex128)
    for (alpha, beta), c in p.items():
        term = np.full(zeta.shape[:-1], c, dtype=np.complex128)
        for j, a in enumerate(alpha):
            if a:
                term = term * zeta[..., j] ** a
        for j, b in enumerate(beta):
            if b:
                term = term * zb[..., j] ** b
        out += term
    return out


def _sphere_points(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, 4))
    zeta = g[:, :2] + 1.0j * g[:, 2:]
    return zeta / np.linalg.norm(zeta, axis=1)[:, None]


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _ext_termwise(exps, coeffs, zeta):
    """Term-wise sum in extended precision and the summed term magnitudes."""
    z = np.asarray(zeta).astype(np.clongdouble)
    exact = np.zeros(z.shape[:-1], dtype=np.clongdouble)
    scale = np.zeros(z.shape[:-1], dtype=np.longdouble)
    for (alpha, beta), c in zip(np.asarray(exps).tolist(), coeffs):
        term = np.full(z.shape[:-1], np.clongdouble(c))
        for v, (a, b) in enumerate(zip(alpha, beta)):
            term = term * z[..., v] ** a * np.conj(z[..., v]) ** b
        exact += term
        scale += np.abs(term)
    return exact, scale


def _live_terms(f):
    exps, coeff = _dense(f.basis)
    mon_c = coeff.T @ f.coeffs.astype(np.complex128)
    live = mon_c != 0
    return exps[live], mon_c[live]


class TestEvaluatorDifferential:
    # The contraction sums in another order than the parent's monomial table,
    # so it agrees to rounding (<= 1e-12 relative), bitwise only for constants.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eval_at_quadrature_nodes(self, prob4, prob8, seed):
        # every 47th node of the jmax-8 rule keeps the parent's table small;
        # at jmax 4 every node, rotated by a unitary g (zeta -> g zeta)
        nodes = prob8.quad.nodes()[::47]
        f = SpectralFunction(np.random.default_rng(seed).standard_normal(prob8.basis.n_basis), prob8.basis)
        assert _rel(f.eval(nodes), _ref_eval(f, nodes)) <= 1e-12
        rng = np.random.default_rng(30 + seed)
        g, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        nodes = prob4.quad.nodes() @ g.T
        f = SpectralFunction(rng.standard_normal(prob4.basis.n_basis), prob4.basis)
        assert _rel(f.eval(nodes), _ref_eval(f, nodes)) <= 1e-12

    @pytest.mark.parametrize("radius", [1.0, 0.6, 1.7])
    def test_eval_at_random_points(self, prob4, prob8, radius):
        zeta = radius * _sphere_points(600, 11)
        for prob in (prob4, prob8):
            for j, l, m in ((0, 0, 0), (4, 3, 2), (4, 4, 4)):
                f = basis_element(prob.basis, j, l, m)
                assert _rel(f.eval(zeta), _ref_eval(f, zeta)) <= 1e-12
            f = SpectralFunction(np.random.default_rng(12).standard_normal(prob.basis.n_basis), prob.basis)
            assert _rel(f.eval(zeta), _ref_eval(f, zeta)) <= 1e-12
        f = basis_element(prob8.basis, 8, 3, 2)
        assert _rel(f.eval(zeta), _ref_eval(f, zeta)) <= 1e-12
        grid = zeta[:60].reshape(3, 20, 2)
        assert f.eval(grid).shape == (3, 20) and _rel(f.eval(grid), _ref_eval(f, grid)) <= 1e-12
        assert f.eval(zeta[7]).shape == () and _rel(f.eval(zeta[7]), _ref_eval(f, zeta[7])) <= 1e-12

    @pytest.mark.parametrize("radius", [1.0, 1.7])
    def test_eval_rounding_against_extended_precision(self, prob8, radius):
        # the parent's table and the contraction both round; bound the
        # contraction by a few ulps of the summed term magnitudes
        zeta = radius * _sphere_points(150, 19)
        for seed in (0, 1):
            f = SpectralFunction(np.random.default_rng(seed).standard_normal(prob8.basis.n_basis), prob8.basis)
            exact, scale = _ext_termwise(*_live_terms(f), zeta)
            err = np.abs(f.eval(zeta) - exact.real.astype(np.float64))
            assert np.all(err <= 16 * np.finfo(np.float64).eps * scale.astype(np.float64))

    def test_eval_constant_bitwise(self, prob8):
        # u_infty of the transported ladders: the same bits as the parent
        nodes = prob8.quad.nodes()
        for value in (1.0, 0.37, -2.5):
            f = constant_function(value, prob8.basis)
            assert np.array_equal(f.eval(nodes), _ref_eval(f, nodes))
        f = apply_A2k(constant_function(0.37, prob8.basis), 1.0)
        assert np.array_equal(f.eval(1.3 * nodes[:500]), _ref_eval(f, 1.3 * nodes[:500]))

    def test_poly_eval_three_variables(self):
        rng = np.random.default_rng(20)
        p = {}
        for _ in range(60):
            alpha, beta = tuple(rng.integers(0, 4, 3).tolist()), tuple(rng.integers(0, 4, 3).tolist())
            p[(alpha, beta)] = complex(rng.standard_normal(), rng.standard_normal())
        exps, coeffs = np.array(list(p)), np.array(list(p.values()))
        zeta = (rng.standard_normal((400, 3)) + 1j * rng.standard_normal((400, 3))) / 2.0
        assert _rel(poly_eval(exps, coeffs, zeta), _ref_poly_eval(p, zeta)) <= 1e-12
        exact, scale = _ext_termwise(exps, coeffs, zeta)
        err = np.abs(poly_eval(exps, coeffs, zeta) - exact.astype(np.complex128))
        assert np.all(err <= 16 * np.finfo(np.float64).eps * scale.astype(np.float64))
        grid = zeta.reshape(8, 50, 3)
        assert poly_eval(exps, coeffs, grid).shape == (8, 50)
        assert np.array_equal(poly_eval(exps[:0], coeffs[:0], zeta), np.zeros(len(zeta), dtype=np.complex128))

    def test_poly_eval_matches_termwise(self, prob8):
        basis = prob8.basis
        zeta = _sphere_points(300, 14)
        for idx in range(0, basis.n_basis, 9):
            f = SpectralFunction(np.eye(basis.n_basis)[idx], basis)
            assert _rel(poly_eval(*f._live_terms(), zeta), _ref_poly_eval(_ref_to_poly(f), zeta)) <= 1e-12
        off_sphere = 1.7 * zeta.reshape(15, 20, 2)
        f = SpectralFunction(np.random.default_rng(15).standard_normal(basis.n_basis), basis)
        assert _rel(poly_eval(*f._live_terms(), off_sphere), _ref_poly_eval(_ref_to_poly(f), off_sphere)) <= 1e-12
        empty = SpectralFunction(np.zeros(basis.n_basis), basis)._live_terms()
        assert np.array_equal(poly_eval(*empty, zeta), np.zeros(len(zeta), dtype=np.complex128))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_apply_A2_differential_matches_termwise(self, prob6, seed):
        # jmax 6 is the criterion-2 basis; observed 1.6e-13
        basis = prob6.basis
        zeta = _sphere_points(300, 16 + seed)
        u = SpectralFunction(np.random.default_rng(seed).standard_normal(basis.n_basis), basis)
        ref = _ref_poly_eval(_ref_conformal_sublaplacian(_ref_to_poly(u), 1), zeta).real
        assert _rel(apply_A2_differential(u, zeta), ref) <= 1e-12

    def test_apply_A2_differential_rounding_at_jmax8(self, prob8):
        # At jmax 8 the monomial sum of A_2 u cancels ~4e3-fold, so both
        # evaluators sit ~1e-12 from the exact value and ~3e-12 from each
        # other.  Bound the error by a few ulps of the summed term magnitudes
        # of the merged monomials, against the term-wise sum in extended
        # precision.
        basis = prob8.basis
        zeta = _sphere_points(200, 18)
        u = SpectralFunction(np.random.default_rng(0).standard_normal(basis.n_basis), basis)
        p = _ref_conformal_sublaplacian(_ref_to_poly(u), 1)
        z = zeta.astype(np.clongdouble)
        exact = np.zeros(len(z), dtype=np.clongdouble)
        scale = np.zeros(len(z), dtype=np.longdouble)
        for (alpha, beta), c in p.items():
            term = np.clongdouble(c) * z[:, 0] ** alpha[0] * z[:, 1] ** alpha[1]
            term = term * np.conj(z[:, 0]) ** beta[0] * np.conj(z[:, 1]) ** beta[1]
            exact += term
            scale += np.abs(term)
        err = np.abs(apply_A2_differential(u, zeta) - exact.real.astype(np.float64))
        assert np.all(err <= 16 * np.finfo(np.float64).eps * scale.astype(np.float64))


class TestSublaplacianDifferential:
    # The term-array operator against the dict one, both evaluated term by
    # term, so that only the operators differ.

    @staticmethod
    def _both(exps, coeffs, N, zeta):
        new = _ref_poly_eval(_ref_table(*conformal_sublaplacian(exps, coeffs, N)), zeta)
        return new, _ref_poly_eval(_ref_conformal_sublaplacian(_ref_table(exps, coeffs), N), zeta)

    def test_every_jmax4_element(self, prob4):
        basis = prob4.basis
        zeta = _sphere_points(60, 40)
        for idx in range(basis.n_basis):
            f = SpectralFunction(np.eye(basis.n_basis)[idx], basis)
            assert _rel(*self._both(*f._live_terms(), 1, zeta)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_functions(self, prob6, prob8, seed):
        zeta = _sphere_points(100, 41 + seed)
        for prob in (prob6, prob8):
            f = SpectralFunction(np.random.default_rng(seed).standard_normal(prob.basis.n_basis), prob.basis)
            assert _rel(*self._both(*f._live_terms(), 1, zeta)) <= 1e-12

    def test_random_terms_in_three_variables(self):
        # N = 2 on C^3, off the sphere, with repeated exponent pairs
        rng = np.random.default_rng(42)
        exps = rng.integers(0, 4, (80, 2, 3))
        coeffs = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        zeta = (rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))) / 2.0
        assert _rel(*self._both(exps, coeffs, 2, zeta)) <= 1e-12

    @pytest.mark.parametrize("N", [1, 2])
    def test_constant_is_scaled_by_n_squared_over_4(self, N):
        exps, coeffs = np.zeros((1, 2, N + 1), dtype=np.int64), np.array([0.37 - 1.5j])
        out_exps, out_coeffs = conformal_sublaplacian(exps, coeffs, N)
        assert np.array_equal(out_exps, exps) and np.array_equal(out_coeffs, N * N / 4.0 * coeffs)

    def test_tangential_drops_zero_factors(self):
        # zeta_2^2 conj(zeta_1): T_1 has no d/dzeta_1 part, only -|alpha| conj(zeta_1) times it
        exps, coeffs = np.array([[[0, 2], [1, 0]]]), np.array([1.5 + 0.5j])
        out_exps, out_coeffs = _tangential(exps, coeffs, 0, 0)
        assert np.array_equal(out_exps, [[[0, 2], [2, 0]]]) and np.array_equal(out_coeffs, [-3.0 - 1.0j])
        # Tbar_2 has no d/dconj(zeta_2) part either, only -|beta| zeta_2 times it
        out_exps, out_coeffs = _tangential(exps, coeffs, 1, 1)
        assert np.array_equal(out_exps, [[[0, 3], [1, 0]]]) and np.array_equal(out_coeffs, [-1.5 - 0.5j])


# ---------------------------------------------------------------------------
# differential tests: the exponent-array basis against the dict-polynomial build


class _RefMomentTable:
    """The earlier per-pair moment pairings, one Python call per Gram entry."""

    def __init__(self, N, mass):
        self.N, self.mass, self._cache = N, mass, {}

    def _mu(self, kappa):
        if kappa not in self._cache:
            self._cache[kappa] = self.mass * _moment_fraction(kappa, self.N)
        return self._cache[kappa]

    def herm(self, key1, key2):
        (a1, b1), (a2, b2) = key1, key2
        left = tuple(x + y for x, y in zip(a1, b2))
        right = tuple(x + y for x, y in zip(b1, a2))
        return self._mu(left) if left == right else 0.0

    def bilin(self, key1, key2):
        (a1, b1), (a2, b2) = key1, key2
        left = tuple(x + y for x, y in zip(a1, a2))
        right = tuple(x + y for x, y in zip(b1, b2))
        return self._mu(left) if left == right else 0.0

    def gram(self, keys1, keys2, pairing="herm"):
        fn = self.herm if pairing == "herm" else self.bilin
        out = np.zeros((len(keys1), len(keys2)))
        for i, k1 in enumerate(keys1):
            for jj, k2 in enumerate(keys2):
                out[i, jj] = fn(k1, k2)
        return out


def _orthonormal_block(G, expected, j, l):
    """Top eigenvectors of a (possibly complex) Gram matrix, rank-checked."""
    vals, vecs = np.linalg.eigh(G)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    rank = int(np.sum(vals > 1e-10 * vals[0]))
    assert vals[0] > 0 and rank == expected, f"block ({j},{l}): rank {rank} != expected dim {expected}"
    return vals[:expected], vecs[:, :expected]


def _ref_poly_conj(p):
    return {(beta, alpha): np.conj(c) for (alpha, beta), c in p.items()}


@functools.lru_cache(maxsize=None)
def _ref_build_basis(N, jmax, lmax=None):
    """build_basis as it was: every element a dict polynomial, realified term by term."""
    lmax = jmax if lmax is None else lmax
    moments = _RefMomentTable(N, total_sphere_mass(N))
    mon_index, rows, labels, elements, done = {}, [], [], {}, set()
    pairs = sorted({(j, l) for j in range(jmax + 1) for l in range(lmax + 1)} | {(l, j) for j in range(jmax + 1) for l in range(lmax + 1)})
    for (j, l) in pairs:
        if (j, l) in done or j < l:
            continue
        done.update({(j, l), (l, j)})
        upper = [(a, b) for a in _multiindices(j, N + 1) for b in _multiindices(l, N + 1)]
        lower = [(a, b) for a in _multiindices(j - 1, N + 1) for b in _multiindices(l - 1, N + 1)] if j and l else []
        G_up = moments.gram(upper, upper)
        if lower:
            B = moments.gram(lower, upper)
            X = np.linalg.lstsq(moments.gram(lower, lower), B, rcond=None)[0]
            G_perp = G_up - B.T @ X
        else:
            G_perp, X = G_up, np.zeros((0, len(upper)))

        def perp_table(vec):
            table = {}
            for a, key in enumerate(upper):
                if vec[a]:
                    table[key] = table.get(key, 0.0) + vec[a]
            if len(lower):
                low_c = -X @ vec
                for m, key in enumerate(lower):
                    if low_c[m]:
                        table[key] = table.get(key, 0.0) + low_c[m]
            return table

        d = dim_H(j, l, N)
        if j > l:
            svals, svecs = _orthonormal_block(G_perp, d, j, l)
            re_list, im_list = [], []
            for m in range(d):
                y = perp_table(svecs[:, m] / math.sqrt(svals[m]))
                yc = _ref_poly_conj(y)
                re_list.append(_ref_poly_add(_ref_poly_scale(y, 1 / math.sqrt(2)), _ref_poly_scale(yc, 1 / math.sqrt(2))))
                im_list.append(_ref_poly_add(_ref_poly_scale(y, -1j / math.sqrt(2)), _ref_poly_scale(yc, 1j / math.sqrt(2))))
            elements[(j, l)], elements[(l, j)] = re_list, im_list
            continue
        n_up = len(upper)
        Bq = moments.gram(upper, upper, "bilin")
        if len(lower):
            B_ul = moments.gram(upper, lower, "bilin")
            Bq = Bq - B_ul @ X - X.T @ B_ul.T + X.T @ moments.gram(lower, lower, "bilin") @ X
        S = np.zeros((2 * n_up, 2 * n_up))
        S[:n_up, :n_up] = 0.5 * (Bq + G_perp)
        S[n_up:, n_up:] = 0.5 * (G_perp - Bq)
        svals, svecs = _orthonormal_block(S, d, j, l)
        out = []
        for m in range(d):
            vec = svecs[:, m] / math.sqrt(svals[m])
            table = {}
            for a in range(n_up):
                if vec[a] or vec[n_up + a]:
                    q = perp_table(np.eye(n_up)[a])
                    c_re, c_im = vec[a], vec[n_up + a]
                    table = _ref_poly_add(table, _ref_poly_scale(q, 0.5 * c_re - 0.5j * c_im))
                    table = _ref_poly_add(table, _ref_poly_scale(_ref_poly_conj(q), 0.5 * c_re + 0.5j * c_im))
            out.append(table)
        elements[(j, j)] = out
    block_slices = {}
    for key in sorted(elements):
        start = len(rows)
        for table in elements[key]:
            rows.append({mon_index.setdefault(k, len(mon_index)): c for k, c in table.items() if c != 0})
            labels.append(key)
        block_slices[key] = slice(start, len(rows))
    coeff = np.zeros((len(rows), len(mon_index)), dtype=np.complex128)
    for r, row in enumerate(rows):
        for cidx, c in row.items():
            coeff[r, cidx] = c
    lj = np.array([j for j, _ in labels], dtype=np.int64)
    ll = np.array([l for _, l in labels], dtype=np.int64)
    return _from_dense(N, jmax, lmax, np.array(list(mon_index)), coeff, lj, ll, block_slices)


def _exact_rule(jmax, lmax):
    """The runner's rule for (jmax, lmax): exact for the product of two elements."""
    return SphereQuadrature.build(1, max(4 * (jmax + lmax), 1))


def _coordinates(basis, other, quad):
    """Row i: the coefficients in ``other`` of element i of ``basis``, by exact quadrature."""
    eye = np.eye(basis.n_basis)
    return np.stack([quad.analyze_values(quad.synthesize_values(e, basis), other) for e in eye])


BASIS_CASES = [(j, j) for j in range(9)] + [(5, 2), (1, 4)]


class TestBasisDifferential:
    # The moment-Gram build rotates inside blocks as its rounding leads, so only
    # block spans compare.  Its own error grows with jmax (orthonormality 1e-12
    # at 5, 6.5e-12 at 6, 4.2e-9 at 8) and bounds the comparison from jmax 6 on.
    @pytest.mark.parametrize("jmax,lmax", BASIS_CASES)
    def test_blocks_span_the_reference(self, jmax, lmax):
        new, ref = build_basis(1, jmax, lmax), _ref_build_basis(1, jmax, lmax)
        assert np.array_equal(new.labels_j, ref.labels_j) and np.array_equal(new.labels_l, ref.labels_l)
        assert new.block_slices == ref.block_slices
        quad = _exact_rule(jmax, lmax)
        ref_err = float(np.max(np.abs(_coordinates(ref, ref, quad) - np.eye(ref.n_basis))))
        bound = 1e-12 if max(jmax, lmax) <= 5 else ref_err
        C = _coordinates(ref, new, quad)  # the reference elements in the closed-form basis
        for sl in new.block_slices.values():
            outside = np.ones(new.n_basis, dtype=bool)
            outside[sl] = False
            assert np.max(np.linalg.norm(C[sl][:, outside], axis=1)) <= bound

    def test_transforms_at_jmax8(self, prob8):
        # a function synthesized from the reference passes through the closed-form
        # analysis and synthesis unchanged; its block energies agree up to the
        # reference's own orthonormality error (4.2e-9 at jmax 8)
        quad, basis = prob8.quad, prob8.basis
        ref = _ref_build_basis(1, 8)
        nodes = quad.nodes()[::29]
        for seed in range(3):
            c = np.random.default_rng(40 + seed).standard_normal(basis.n_basis)
            vals = quad.synthesize_values(c, ref)
            a = quad.analyze_values(vals, basis)
            assert _rel(quad.synthesize_values(a, basis), vals) <= 1e-12
            assert _rel(SpectralFunction(a, basis).eval(nodes), SpectralFunction(c, ref).eval(nodes)) <= 1e-12
            for sl in basis.block_slices.values():
                assert abs(np.linalg.norm(a[sl]) - np.linalg.norm(c[sl])) <= 1e-8

    # the N = 2 build that the reference was compared with is deleted
    @pytest.mark.parametrize("jmax", [0, 1, 2])
    def test_n2_refused(self, jmax):
        with pytest.raises(DomainError):
            build_basis(2, jmax)


def _jacobi(n, a, b, x):
    """P_n^{(a,b)}(x) by the three-term recurrence (Szego, Orthogonal Polynomials, (4.5.1))."""
    prev, cur = np.ones_like(x), 0.5 * (a - b + (a + b + 2) * x)
    if n == 0:
        return prev
    for k in range(2, n + 1):
        c = 2 * k + a + b
        prev, cur = cur, ((c - 1) * (c * (c - 2) * x + a * a - b * b) * cur - 2 * (k + a - 1) * (k + b - 1) * c * prev) / (
            2 * k * (k + a + b) * (c - 2)
        )
    return cur


class TestClosedFormBasis:
    @pytest.mark.parametrize("jmax,lmax", BASIS_CASES)
    def test_orthonormal(self, jmax, lmax):
        basis = build_basis(1, jmax, lmax)
        G = _coordinates(basis, basis, _exact_rule(jmax, lmax))
        assert np.max(np.abs(G - np.eye(basis.n_basis))) <= 1e-12

    def test_builds_without_eigh_or_lstsq(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the closed form needs no linear algebra")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for jmax, lmax in ((8, 8), (5, 2), (1, 4)):
            build_basis(1, jmax, lmax)

    @pytest.mark.parametrize("jmax,lmax", [(8, 8), (5, 2), (1, 4)])
    def test_one_weight_per_element_and_m_orders_p(self, jmax, lmax):
        basis = build_basis(1, jmax, lmax)
        exps, coeff = _dense(basis)
        weights = exps[:, 0] - exps[:, 1]  # torus weight (p, q) of each monomial
        for (j, l), sl in basis.block_slices.items():
            for m, row in enumerate(coeff[sl]):
                live = np.flatnonzero(row)
                w = weights[live]
                # the weight of f: p + q = |j - l|, and p >= 0 on the diagonal
                f_side = (w.sum(axis=1) == abs(j - l)) & ((j != l) | (w[:, 0] >= 0))
                p, q = w[f_side][0]
                assert np.all(np.all(w == (p, q), axis=1) | np.all(w == (-p, -q), axis=1))
                assert p == (m - min(j, l) if j != l else (m + 1) // 2)
                # sqrt(2) Re f carries real coefficients, sqrt(2) Im f imaginary ones
                is_im = j < l or (j == l and m > 0 and m % 2 == 0)
                assert np.all((row[live].real if is_im else row[live].imag) == 0)

    def test_jacobi_form_and_norm(self, prob8):
        # the docstring's closed form, from the Jacobi recurrence, against the build and the quadrature
        quad, basis = prob8.quad, prob8.basis
        zeta = quad.nodes()
        s = np.abs(zeta[:, 0]) ** 2
        phase1, phase2 = zeta[:, 0] / np.abs(zeta[:, 0]), zeta[:, 1] / np.abs(zeta[:, 1])
        for j, l, p in ((0, 0, 0), (1, 0, 0), (3, 1, -1), (3, 1, 2), (5, 2, -2), (8, 3, 4), (8, 0, 8), (4, 4, 0), (4, 4, 3), (8, 8, 5)):
            q = j - l - p
            a, b = abs(p), abs(q)
            n = (j + l - a - b) // 2
            f = phase1**p * phase2**q * s ** (a / 2) * (1 - s) ** (b / 2) * _jacobi(n, b, a, 2 * s - 1)
            norm2 = 16 * math.pi**2 * math.gamma(n + b + 1) * math.gamma(n + a + 1) / (
                (2 * n + a + b + 1) * math.gamma(n + a + b + 1) * math.factorial(n)
            )
            assert quad.integrate(np.abs(f) ** 2) == pytest.approx(norm2, rel=1e-12)
            f = f / math.sqrt(norm2)
            if j == l == 0 or (j == l and p == 0):
                parts = {(j, l, 0): f.real}
            elif j == l:
                parts = {(j, j, 2 * p - 1): math.sqrt(2) * f.real, (j, j, 2 * p): math.sqrt(2) * f.imag}
            else:
                parts = {(j, l, p + l): math.sqrt(2) * f.real, (l, j, p + l): math.sqrt(2) * f.imag}
            for (jj, ll, m), expect in parts.items():
                assert np.max(np.abs(basis_element(basis, jj, ll, m).eval(zeta) - expect)) <= 1e-12


# ---------------------------------------------------------------------------
# differential tests: the half-spectrum transforms against the full-spectrum ones


def _ref_profiles(quad, basis):
    s = quad.s_nodes
    exps = _dense(basis)[0]
    prof = np.empty((len(exps), len(s)))
    bins = np.empty((len(exps), 2), dtype=np.int64)
    c, q = np.sqrt(s), np.sqrt(1.0 - s)
    for i, (alpha, beta) in enumerate(exps.tolist()):
        prof[i] = c ** (alpha[0] + beta[0]) * q ** (alpha[1] + beta[1])
        bins[i] = (alpha[0] - beta[0]) % quad.n_phi, (alpha[1] - beta[1]) % quad.n_phi
    return prof, bins[:, 0], bins[:, 1]


def _ref_analyze_values(quad, values, basis):
    """analyze_values as it was: complex fft2 and a conjugated copy of the coefficients."""
    vhat = np.fft.fft2(np.asarray(values, dtype=np.complex128).reshape(quad.grid_shape), axes=(1, 2))
    prof, b1, b2 = _ref_profiles(quad, basis)
    mono_int = np.einsum("ms,s,ms->m", prof, quad._ring_weights(), vhat[:, b1, b2].T)
    raw = np.conj(_dense(basis)[1]) @ mono_int
    return raw.real.copy(), float(np.max(np.abs(raw.imag), initial=0.0))


def _ref_synthesize_values(quad, coeffs, basis):
    """synthesize_values as it was: np.add.at into the full spectrum, the real part of ifft2."""
    mon_c = _dense(basis)[1].T @ np.asarray(coeffs, dtype=np.complex128)
    prof, b1, b2 = _ref_profiles(quad, basis)
    fhat = np.zeros((len(quad.s_nodes), quad.n_phi, quad.n_phi), dtype=np.complex128)
    np.add.at(fhat.reshape(len(quad.s_nodes), -1).T, b1 * quad.n_phi + b2, mon_c[:, None] * prof)
    return (np.fft.ifft2(fhat, axes=(1, 2)) * quad.n_phi**2).real.reshape(-1)


class TestHalfSpectrumTransforms:
    # quadrature degree as a function of jmax: the default rule (odd n_phi), one
    # more (even n_phi, so a Nyquist bin), aliasing rules below 4 (jmax + lmax),
    # and the smallest degree ExperimentConfig accepts (n_phi = 2)
    DEGREES = {
        "default": lambda j: 8 * j,
        "nyquist": lambda j: 8 * j + 1,
        "alias_odd": lambda j: 2 * j,
        "alias_even": lambda j: 2 * j + 1,
        "one": lambda j: 1,
    }

    @pytest.mark.parametrize("jmax", [2, 4, 8])
    @pytest.mark.parametrize("rule", sorted(DEGREES))
    def test_matches_full_spectrum(self, jmax, rule):
        basis = cached_basis(1, jmax)
        quad = SphereQuadrature.build(1, self.DEGREES[rule](jmax))
        assert (quad.n_phi % 2 == 0) == (rule in ("nyquist", "alias_even", "one"))
        for seed in range(2):
            rng = np.random.default_rng(50 + seed)
            c = rng.standard_normal(basis.n_basis)
            vals = quad.synthesize_values(c, basis)
            assert _rel(vals, _ref_synthesize_values(quad, c, basis)) <= 1e-12
            # band-limited, then not, then white noise, which fills every bin (aliased and Nyquist too)
            for data in (vals, vals**3, rng.standard_normal(len(quad.nodes()))):
                coeffs = quad.analyze_values(data, basis)
                ref, ref_resid = _ref_analyze_values(quad, data, basis)
                assert _rel(coeffs, ref) <= 1e-12
                assert ref_resid <= 1e-10

    def test_no_fft_is_called(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sphere transforms must not call np.fft")

        monkeypatch.setattr(np.fft, "rfft2", refuse)
        monkeypatch.setattr(np.fft, "irfft2", refuse)
        basis = cached_basis(1, 4)
        quad = SphereQuadrature.build(1, 32)
        rng = np.random.default_rng(4)
        c = rng.standard_normal(basis.n_basis)
        vals = quad.synthesize_values(c, basis)
        assert _rel(quad.analyze_values(vals, basis), c) <= 1e-12
        g = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        assert quad.rotated_values(c, basis, g).shape == vals.shape

    @pytest.mark.parametrize(
        "jmax, degree, n_p, n_q",
        [(8, 64, 17, 9), (2, 1, 2, 2)],  # the default jmax-8 rule; the n_phi = 2 rule, every bin folded
    )
    def test_compact_plan_holds_the_occupied_bins(self, jmax, degree, n_p, n_q):
        basis = cached_basis(1, jmax)
        quad = SphereQuadrature.build(1, degree)
        plan = quad._plan_for(basis)
        n = quad.n_phi
        assert plan.ana_p.shape == (n_p, n) and plan.syn_p.shape == (n, n_p)
        assert plan.ana_q.shape == (n, 2 * n_q) and plan.syn_q.shape == (2 * n_q, n)
        assert plan.piece_bin.max() < n_p * n_q and plan.bins.max() < n_p * n_q
        # each element sits at one torus weight, the bin of its first term f: two pieces
        # exactly where f and conj(f) share the q-bin (q = 0 or Nyquist) but not the p-bin
        first = np.unique(basis.term_elem, return_index=True)[1]
        (a1, a2), (b1, b2) = basis.term_exps[first, 0].T, basis.term_exps[first, 1].T
        p, q = (a1 - b1) % n, (a2 - b2) % n
        expect = np.where((2 * q % n == 0) & (p != -p % n), 2, 1)
        assert np.array_equal(np.bincount(plan.src, minlength=basis.n_basis), expect)
        assert np.all(np.diff(plan.piece_bin) >= 0)
        if degree == 64:
            assert len(plan.src) == 801

    def test_plan_follows_the_basis(self):
        quad = SphereQuadrature.build(1, 16)
        c2, c4 = (np.random.default_rng(2).standard_normal(cached_basis(1, j).n_basis) for j in (2, 4))
        first = quad.synthesize_values(c2, cached_basis(1, 2))
        quad.synthesize_values(c4, cached_basis(1, 4))
        assert np.array_equal(quad.synthesize_values(c2, cached_basis(1, 2)), first)

    def test_alternating_bases_build_each_plan_once(self, monkeypatch):
        quad = SphereQuadrature.build(1, 16)
        bases = [cached_basis(1, j) for j in (2, 4)]
        coeffs = [np.random.default_rng(7 + i).standard_normal(b.n_basis) for i, b in enumerate(bases)]
        fresh = []
        for b, c in zip(bases, coeffs):  # each basis on a quadrature of its own
            own = SphereQuadrature.build(1, 16)
            vals = own.synthesize_values(c, b)
            fresh.append((vals, own.analyze_values(vals**3, b)))
        built = []
        build = _TransformPlan.build
        monkeypatch.setattr(_TransformPlan, "build", staticmethod(lambda q, e, c, s: built.append(e) or build(q, e, c, s)))
        for _ in range(3):
            for b, c, (vals, coef) in zip(bases, coeffs, fresh):
                got = quad.synthesize_values(c, b)
                assert np.array_equal(got, vals)
                assert np.array_equal(quad.analyze_values(got**3, b), coef)
        assert [id(e) for e in built] == [id(b.term_exps) for b in bases]  # one build per basis

    def test_peak_allocation_at_jmax8(self, prob8):
        quad, basis = prob8.quad, prob8.basis
        c = np.random.default_rng(31).standard_normal(basis.n_basis)
        vals = quad.synthesize_values(c, basis)  # builds the plan outside the measurement

        def peak(fn, *args):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(quad.analyze_values, vals, basis) <= 2**20
        assert peak(quad.synthesize_values, c, basis) <= 4 * 2**20
        # the measurement sees numpy buffers: the full-spectrum analysis copies the 23.6 MB coefficient matrix
        assert peak(_ref_analyze_values, quad, vals, basis) > 20 * 2**20


def _ref_to_poly(f):
    mon_c = _dense(f.basis)[1].T @ f.coeffs.astype(np.complex128)
    return {key: c for key, c in zip(_mon_keys(f.basis), mon_c) if c != 0}


def test_poly_eval_bounds_its_intermediates(prob8, monkeypatch):
    import cryamabe.polynomials as polys

    sizes = []
    contract = polys._contract

    def recording(T, zeta, d):
        n, nvar = zeta.shape
        rows = T.size // (d * d)  # the matrix product's rows, each one entry per point
        sizes.append(max(T.size, rows * n, d * d * n, d * nvar * n))
        return contract(T, zeta, d)

    f = SpectralFunction(np.random.default_rng(21).standard_normal(prob8.basis.n_basis), prob8.basis)
    nodes = prob8.quad.nodes()
    monkeypatch.setattr(polys, "_contract", recording)
    vals = f.eval(nodes)
    assert len(sizes) > 1 and max(sizes) <= polys._EVAL_BLOCK <= 2**22
    monkeypatch.undo()
    # against the parent's single-chunk table on every 37th node (1,942 x 2,025 entries)
    sample = nodes[::37]
    assert _rel(vals[::37], _ref_eval(f, sample)) <= 1e-12


# ---------------------------------------------------------------------------
# differential tests: the term arrays against the dense layout they replace


def test_basis_holds_only_its_terms():
    # the dense layout was a 729 x 2025 complex matrix, 22.5 MiB at jmax 8
    basis = build_basis(1, 8)
    arrays = [v for v in vars(basis).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 2**20
    assert all(a.ndim == 1 or a.shape[0] == len(basis.term_elem) for a in arrays)
    assert len(basis.term_elem) == len(basis.term_coeff) == 4005


def test_poly_eval_adds_repeated_pairs():
    exps = np.array([[[1, 0], [0, 2]], [[0, 1], [1, 0]], [[1, 0], [0, 2]], [[1, 0], [0, 2]]])
    coeffs = np.array([0.5 + 1j, -2.0, 0.25, -1j])
    zeta = 1.3 * _sphere_points(50, 23)
    merged = poly_eval(exps[:2], np.array([0.75 + 0j, -2.0]), zeta)
    assert _rel(poly_eval(exps, coeffs, zeta), merged) <= 1e-15


@pytest.mark.parametrize("jmax,lmax", [(2, 2), (4, 4), (8, 8), (5, 2), (1, 4)])
def test_terms_match_the_dense_layout(jmax, lmax):
    basis = cached_basis(1, jmax, lmax)
    quad = _exact_rule(jmax, lmax)
    zeta = _sphere_points(200, 24)
    rng = np.random.default_rng(60 + jmax)
    funcs = [SpectralFunction(rng.standard_normal(basis.n_basis), basis), basis_element(basis, *max(basis.block_slices), 0)]
    for f in funcs:
        vals = quad.synthesize_values(f.coeffs, basis)
        assert _rel(vals, _ref_synthesize_values(quad, f.coeffs, basis)) <= 1e-12
        for data in (vals, vals**3):
            assert _rel(quad.analyze_values(data, basis), _ref_analyze_values(quad, data, basis)[0]) <= 1e-12
        assert _rel(f.eval(zeta), _ref_eval(f, zeta)) <= 1e-12
        lhs = apply_A2_differential(f, zeta)
        assert _rel(lhs, _ref_poly_eval(_ref_conformal_sublaplacian(_ref_to_poly(f), 1), zeta).real) <= 1e-12
    for value in (1.0, -0.37):
        f = constant_function(value, basis)
        assert np.array_equal(f.eval(zeta), _ref_eval(f, zeta))
