import math

import numpy as np
import pytest

from cryamabe.bubbling import hk_gradient_flow
from cryamabe.cayley import ConformalChart, conformal_pushforward
from cryamabe.energy import (
    BubbleParams,
    YamabeConstants,
    YamabeProblem,
    _dirichlet_density,
    bubble_eval_zt,
    bubble_field,
    calibrate_normalizations,
    constant_solution,
    energy_heis,
    lambda0,
    p_star,
    sobolev_constant,
)
from cryamabe.errors import DivergentIntegralError, DomainError
from cryamabe.heisenberg import Q, HeisPoint, ShellScheme, _gauge_sq_power, integrate_decaying
from cryamabe.minimax import SubgroupSpec, minimax_search
from cryamabe.spectral import (
    SPHERE_MASS,
    SphereQuadrature,
    SpectralFunction,
    basis_element,
    norm_Hk,
    norm_H_minus_k,
    total_sphere_mass,
)

ORIGIN = HeisPoint(0.0, 0.0)
STANDARD = BubbleParams(1.0, ORIGIN)  # the centred unit bubble


class TestExponentsAndConstants:
    def test_p_star_values(self):
        assert p_star(1.0) == pytest.approx(4.0, rel=1e-15)
        assert p_star(0.5) == pytest.approx(8.0 / 3.0, rel=1e-15)
        with pytest.raises(DomainError):
            p_star(2.0)

    def test_sobolev_constant_closed_forms(self):
        assert sobolev_constant(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        for (N, k) in ((1, 1.0), (1, 0.5), (2, 1.0)):
            Q = 2 * N + 2
            ident = sobolev_constant(N, k) * lambda0(N, k) ** 2 * total_sphere_mass(N) ** (2 * k / Q)
            assert abs(ident - 1.0) < 1e-12

    def test_constant_solution_values(self):
        assert constant_solution(1.0) == pytest.approx(0.5, rel=1e-14)
        lam = lambda0(1, 0.5)
        assert constant_solution(0.5) == pytest.approx(lam**3, rel=1e-13)

    def test_bundle_invariants(self):
        consts = YamabeConstants.create(1.0)
        assert Q == 4 and consts.p_star == 4.0
        assert consts.C_E == pytest.approx(math.pi**2 / 4.0, rel=1e-13)
        assert consts.C_E == pytest.approx((consts.k / Q) * consts.C_S ** (-Q / (2 * consts.k)), rel=1e-14)
        assert consts.cQ == pytest.approx(1.0, rel=1e-13)
        # exact algebraic identity for the bubble energy level
        alt = (0.5 - 1.0 / consts.p_star) * consts.u0**consts.p_star * SPHERE_MASS
        assert consts.C_E == pytest.approx(alt, rel=1e-13)


class TestBubbles:
    def test_center_value(self):
        consts = YamabeConstants.create(1.0)
        assert float(bubble_eval_zt(STANDARD, ORIGIN.z, np.asarray(ORIGIN.t), consts)) == pytest.approx(
            consts.cQ, rel=1e-14
        )

    def test_scaling_identity(self):
        consts = YamabeConstants.create(1.0)
        rng = np.random.default_rng(0)
        from cryamabe.heisenberg import dilate_zt, mul_zt

        params = BubbleParams(0.3, HeisPoint(0.5 - 0.1j, 0.7))
        for _ in range(20):
            w = HeisPoint(rng.normal() + 1.0j * rng.normal(), float(rng.normal()))
            zq, tq = mul_zt(params.xi.z, params.xi.t, *dilate_zt(params.lam, w.z, w.t))
            lhs = float(bubble_eval_zt(params, zq, np.asarray(tq), consts))
            rhs = params.lam ** ((2 * consts.k - Q) / 2.0) * float(
                bubble_eval_zt(STANDARD, w.z, np.asarray(w.t), consts)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_decay_envelope(self):
        # omega(d_lam p) lam^{(Q-2k)/2} stays bounded along the dilation ray
        consts = YamabeConstants.create(1.0)
        p = HeisPoint(1.0 + 0.2j, -0.5)
        vals = []
        for lam in np.geomspace(1, 1e3, 15):
            q = float(bubble_eval_zt(STANDARD, lam * p.z, np.asarray(lam * lam * p.t), consts))
            vals.append(q * lam ** ((Q - 2 * consts.k) / 2.0))
        assert max(vals) <= vals[0] <= consts.cQ
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_positive_everywhere(self):
        consts = YamabeConstants.create(0.5)
        rng = np.random.default_rng(1)
        z = 3 * (rng.normal(size=100) + 1.0j * rng.normal(size=100))
        t = 5 * rng.normal(size=100)
        assert np.all(bubble_eval_zt(STANDARD, z, t, consts) > 0)

    def test_bad_scale_rejected(self):
        with pytest.raises(DomainError):
            BubbleParams(0.0, ORIGIN)

    def test_pde_residual_closed_form(self):
        from cryamabe.heisenberg import sub_laplacian

        consts = YamabeConstants.create(1.0)
        om = bubble_field(STANDARD, consts)
        rng = np.random.default_rng(2)
        z = rng.normal(size=100) + 1.0j * rng.normal(size=100)
        t = 2 * rng.normal(size=100)
        lhs = -sub_laplacian(om, z, t, h=1e-4)
        rhs = om(z, t) ** 3
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-5


class TestSphereEnergy:
    def test_zero(self, prob6):
        assert prob6.energy(SpectralFunction(np.zeros(prob6.basis.n_basis), prob6.basis)) == 0.0

    def test_ground_constant_level(self, prob6):
        E = prob6.energy(prob6.ground_constant())
        assert E == pytest.approx(prob6.constants.C_E, rel=1e-12)

    def test_ray_maximum_at_one(self, prob6):
        u0 = prob6.ground_constant()
        ts = np.linspace(0.2, 1.8, 33)
        Es = [prob6.energy(float(t) * u0) for t in ts]
        assert np.argmax(Es) == np.argmin(np.abs(ts - 1.0))

    def test_gradient_at_critical_point(self, prob6):
        g = prob6.gradient(prob6.ground_constant())
        assert norm_H_minus_k(g, 1.0) < 1e-6

    def test_gradient_at_zero(self, prob6):
        g = prob6.gradient(SpectralFunction(np.zeros(prob6.basis.n_basis), prob6.basis))
        assert np.all(g.coeffs == 0.0)

    def test_directional_derivative(self, prob6):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = SpectralFunction(0.5 * rng.standard_normal(prob6.basis.n_basis), prob6.basis)
            phi = SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis)
            g = prob6.gradient(u)
            eps = 1e-5
            fd = (prob6.energy(u + eps * phi) - prob6.energy(u - eps * phi)) / (2 * eps)
            # the L^2 pairing of two functions is the dot product of their orthonormal coefficients
            assert fd == pytest.approx(float(g.coeffs @ phi.coeffs), rel=1e-5, abs=1e-7)

    def test_euler_identity(self, prob6):
        # 2E(u) - <dE(u), u> = (1 - 2/p*) int |u|^{p*}
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis)
            lhs = 2 * prob6.energy(u) - float(prob6.gradient(u).coeffs @ u.coeffs)
            rhs = (1 - 2.0 / prob6.constants.p_star) * prob6.lp_star_mass(u)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_quotient_properties(self, prob6):
        u0 = prob6.ground_constant()
        assert prob6.sobolev_quotient(u0) == pytest.approx(prob6.constants.C_S, rel=5e-3)
        mode = basis_element(prob6.basis, 1, 0, 0)
        assert prob6.sobolev_quotient(mode) < prob6.constants.C_S
        assert prob6.sobolev_quotient(3.7 * mode) == pytest.approx(prob6.sobolev_quotient(mode), rel=1e-13)
        with pytest.raises(DomainError):
            prob6.sobolev_quotient(SpectralFunction(np.zeros(prob6.basis.n_basis), prob6.basis))


class TestLpStarMassPower:
    """lp_star_mass takes |u|^{p*} from u^2 by multiplication; np.abs(u) ** p* is the oracle."""

    @pytest.mark.parametrize("name", ["prob6", "prob_half"])
    def test_matches_abs_power(self, name, request):
        prob = request.getfixturevalue(name)
        p = prob.constants.p_star
        for seed in range(3):
            u = SpectralFunction(np.random.default_rng(90 + seed).standard_normal(prob.basis.n_basis), prob.basis)
            v = prob.values(u)
            ref = np.abs(v) ** p
            assert np.max(np.abs(_gauge_sq_power(v * v, p) - ref) / np.maximum(ref, 1e-300)) <= 1e-14
            oracle = prob.quad.integrate(ref)
            assert abs(prob.lp_star_mass(u) - oracle) <= 1e-14 * oracle


class TestHeisenbergEnergy:
    def test_zero(self):
        consts = YamabeConstants.create(1.0)
        scheme = ShellScheme(l0=1.5, n_shells=4, n_inner=32, n_shell=32)
        assert energy_heis(lambda z, t: np.zeros_like(t), consts, scheme=scheme) == 0.0

    def test_bubble_level_direct(self):
        consts = YamabeConstants.create(1.0)
        scheme = ShellScheme(l0=2.0, n_shells=6, n_inner=96, n_shell=48)
        U = bubble_field(STANDARD, consts)
        assert energy_heis(U, consts, scheme=scheme) == pytest.approx(consts.C_E, rel=1e-2)

    def test_scale_and_center_independence(self):
        consts = YamabeConstants.create(1.0)
        scheme = ShellScheme(l0=2.0, n_shells=6, n_inner=96, n_shell=48)
        xi = HeisPoint(1.0 + 0j, 1.0)
        for lam, center in ((0.5, ORIGIN), (2.0, ORIGIN), (1.0, xi)):
            U = bubble_field(BubbleParams(lam, center), consts)
            val = energy_heis(U, consts, scheme=scheme, center=center)
            assert val == pytest.approx(consts.C_E, rel=1e-2)

    def test_one_walk_matches_two_walks(self):
        # the Dirichlet form and the p*-mass as stacked rows of one walk sum
        # exactly as they do in a walk each
        consts = YamabeConstants.create(1.0)
        scheme = ShellScheme(l0=1.5, n_shells=4, n_inner=32, n_shell=32)
        xi = HeisPoint(1.0 + 0j, 1.0)
        U = bubble_field(BubbleParams(0.5, xi), consts)
        walk = lambda f: integrate_decaying(f, 1, scheme, center=xi)[0]
        quadratic = walk(lambda z, t: _dirichlet_density(U, z, t))
        mass = walk(lambda z, t: np.abs(U(z, t)) ** consts.p_star)
        assert energy_heis(U, consts, scheme=scheme, center=xi) == 0.5 * quadratic - mass / consts.p_star

    def test_fractional_route_through_sphere(self, prob_half):
        # at k = 1/2 the group-side energy is the sphere energy of the pushforward
        consts = prob_half.constants
        chart = ConformalChart(ORIGIN, 1.0)
        nodes = prob_half.quad.nodes()

        def sphere_energy(U):
            return prob_half.energy(prob_half.analyze(conformal_pushforward(U, chart, consts.k)(nodes)))

        U = bubble_field(STANDARD, consts)
        assert sphere_energy(U) == pytest.approx(consts.C_E, rel=1e-3)
        # a rescaled extremal transports to a non-constant sphere function
        U2 = bubble_field(BubbleParams(0.8, ORIGIN), consts)
        assert sphere_energy(U2) == pytest.approx(consts.C_E, rel=1e-2)

    def test_fractional_order_refused_before_walk(self):
        consts = YamabeConstants.create(0.5)

        def U(z, t):
            raise AssertionError("evaluated before the order was checked")

        with pytest.raises(DomainError):
            energy_heis(U, consts)

    def test_dirichlet_form_fixed_step(self):
        # a scalar step takes the same flow stencil; the gauge-scaled default
        # step is coarser on the far shells, hence the 1e-3
        from cryamabe.energy import dirichlet_form

        consts = YamabeConstants.create(1.0)
        scheme = ShellScheme(l0=1.5, n_shells=4, n_inner=32, n_shell=32)
        U = bubble_field(STANDARD, consts)
        fixed = dirichlet_form(U, consts, scheme, h=1e-3)
        assert fixed == pytest.approx(dirichlet_form(U, consts, scheme), rel=1e-3)

    def test_divergent_input_diagnosed(self):
        consts = YamabeConstants.create(1.0)
        scheme = ShellScheme(l0=1.5, n_shells=5, n_inner=24, n_shell=24)
        with pytest.raises(DivergentIntegralError):
            energy_heis(lambda z, t: np.ones_like(t), consts, scheme=scheme)


class TestCalibration:
    def test_normalization_triple(self):
        consts = YamabeConstants.create(1.0)
        rep = calibrate_normalizations(consts)
        assert rep["kappa_rel_err"] < 5e-3
        assert rep["bubble_constant_rel_err"] < 1e-10
        assert rep["mass_closed_form"] == pytest.approx(16 * math.pi**2, rel=1e-14)

    def test_pushforward_of_bubble_is_constant(self, prob6):
        consts = prob6.constants
        chart = ConformalChart(ORIGIN, 1.0)
        u = conformal_pushforward(bubble_field(STANDARD, consts), chart, 1.0)
        nodes = prob6.quad.nodes()
        live = np.abs(nodes[:, -1] + 1.0) > 1e-3
        vals = u(nodes[live])
        assert np.max(np.abs(vals - consts.u0)) < 1e-8


class TestValuesMemo:
    def test_in_place_write_resynthesizes(self, prob6):
        c = np.random.default_rng(4).standard_normal(prob6.basis.n_basis)
        u = SpectralFunction(c, prob6.basis)
        first = prob6.values(u)
        kept = first.copy()
        u.coeffs[5] += 1.0
        second = prob6.values(u)
        assert np.array_equal(second, prob6.quad.synthesize_values(u.coeffs, prob6.basis))
        assert not np.array_equal(second, kept) and np.array_equal(first, kept)

    def test_values_are_read_only_and_reused(self, prob6):
        u = SpectralFunction(np.random.default_rng(5).standard_normal(prob6.basis.n_basis), prob6.basis)
        vals = prob6.values(u)
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0] = 1.0
        assert prob6.values(u) is vals
        assert prob6.energy(u) == prob6.energy(u.copy_with(u.coeffs.copy()))

    def test_other_quadrature_is_not_served(self, prob6):
        other = YamabeProblem.build(N=1, k=1.0, jmax=6, quad_degree=30)
        assert other.basis is prob6.basis and other.quad.grid_shape != prob6.quad.grid_shape
        u = SpectralFunction(np.random.default_rng(6).standard_normal(prob6.basis.n_basis), prob6.basis)
        assert prob6.values(u).shape == (math.prod(prob6.quad.grid_shape),)
        assert np.array_equal(other.values(u), other.quad.synthesize_values(u.coeffs, other.basis))
        assert np.array_equal(prob6.values(u), prob6.quad.synthesize_values(u.coeffs, prob6.basis))


def _record_syntheses(monkeypatch):
    """Wrap SphereQuadrature.synthesize_values; returns the list of coefficient bytes it sees."""
    seen = []
    synthesize = SphereQuadrature.synthesize_values

    def recording(self, coeffs, basis):
        seen.append(np.asarray(coeffs, dtype=np.float64).tobytes())
        return synthesize(self, coeffs, basis)

    monkeypatch.setattr(SphereQuadrature, "synthesize_values", recording)
    return seen


class TestOneSynthesisPerFunction:
    def test_hk_gradient_flow(self, prob4, monkeypatch):
        rng = np.random.default_rng(7)
        u = SpectralFunction(rng.standard_normal(prob4.basis.n_basis), prob4.basis)
        u = (0.3 * math.sqrt(prob4.constants.C_S ** (-2.0)) / norm_Hk(u, 1.0)) * u
        seen = _record_syntheses(monkeypatch)
        rep = hk_gradient_flow(u, prob4, max_iter=40)
        assert len(rep["rows"]) > 5
        assert len(seen) == len(set(seen))

    def test_minimax_search(self, prob4, monkeypatch):
        seen = _record_syntheses(monkeypatch)
        reports = minimax_search(SubgroupSpec(antipodal_odd=True), 1, prob4, budget=40, rng=np.random.default_rng(8))
        assert reports[0].iterations > 5
        assert len(seen) == len(set(seen))
