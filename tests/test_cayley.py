import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cryamabe.cayley import (
    POLE,
    ConformalChart,
    cayley_inv,
    cayley_inv_zeta,
    cayley_zt,
    conformal_pullback,
    conformal_pushforward,
    lambda_cayley_zt,
    sphere_dist_zeta,
)
from cryamabe.errors import DomainError, PoleError
from cryamabe.heisenberg import HeisPoint, ShellScheme, dist_zt, integrate_decaying
from cryamabe.spectral import total_sphere_mass

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
NORTH = np.array([0.0j, 1.0 + 0j])  # the Cayley image of the group origin
ORIGIN = HeisPoint(0.0, 0.0)
PLAIN = ConformalChart(ORIGIN, 1.0)  # the Cayley transform itself


def rand_points(rng, n):
    return rng.normal(size=n) + 1.0j * rng.normal(size=n), rng.normal(size=n)


class TestTransform:
    def test_origin_to_north(self):
        assert np.array_equal(cayley_zt(np.asarray(0.0j), np.asarray(0.0)), NORTH)

    def test_unit_modulus_and_roundtrip(self):
        rng = np.random.default_rng(0)
        z, t = rand_points(rng, 1000)
        zeta = cayley_zt(z, t)
        assert np.max(np.abs(np.linalg.norm(zeta, axis=-1) - 1.0)) < 1e-12
        zi, ti = cayley_inv_zeta(zeta)
        assert np.max(np.abs(zi - z)) < 1e-10 and np.max(np.abs(ti - t)) < 1e-10

    def test_north_maps_to_origin(self):
        p = cayley_inv(NORTH)
        assert np.allclose(p.z, 0.0) and p.t == 0.0

    def test_pole_rejected(self):
        pole = np.array([0.0j, -1.0 + 0j])
        with pytest.raises(PoleError):
            cayley_inv_zeta(pole)
        near = np.array([1e-8 + 0j, -math.sqrt(1 - 1e-16) + 0j])
        with pytest.raises(PoleError):
            cayley_inv_zeta(near)

    @settings(max_examples=50, deadline=None)
    @given(finite, finite, finite)
    def test_roundtrip_property(self, x, y, t):
        p = HeisPoint(x + 1.0j * y, t)
        q = cayley_inv(cayley_zt(p.z, np.asarray(p.t)))
        assert np.max(np.abs(q.z - p.z)) < 1e-10 and abs(q.t - p.t) < 1e-10


class TestConformalFactor:
    def test_value_at_origin(self):
        assert lambda_cayley_zt(np.asarray(0.0j), np.asarray(0.0)) == 16.0

    def test_scaling_envelope(self):
        # Lambda_C(d_lam p) * lam^{2Q} stays pinched for fixed p != 0
        p = HeisPoint(1.0 + 0.5j, 0.7)
        lams = np.geomspace(1.0, 1e3, 25)
        vals = [float(lambda_cayley_zt(lam * p.z, np.asarray(lam * lam * p.t))) * lam**8 for lam in lams]
        assert 0.0 < min(vals) and max(vals) / min(vals) < 20.0

    def test_total_mass_two_quadratures(self):
        # dv_H carries kappa_H = 4; the integral of the conformal factor must
        # reproduce the closed-form sphere mass
        val, _ = integrate_decaying(
            lambda z, t: lambda_cayley_zt(z, t),
            1,
            ShellScheme(l0=2.0, n_shells=8, n_inner=96, n_shell=48),
        )
        assert val == pytest.approx(total_sphere_mass(1), rel=5e-3)


class TestSphereDistance:
    def test_zero_and_antipodal(self):
        assert sphere_dist_zeta(NORTH, NORTH) == 0.0
        assert sphere_dist_zeta(NORTH, -NORTH) == pytest.approx(2.0, abs=1e-14)

    def test_distance_relation(self):
        rng = np.random.default_rng(1)
        z, t = rand_points(rng, 500)
        zb, tb = rand_points(rng, 500)
        lhs = sphere_dist_zeta(cayley_zt(z, t), cayley_zt(zb, tb))
        fac = (4.0 / ((1.0 + np.abs(z) ** 2) ** 2 + t * t)) ** 0.25
        fb = (4.0 / ((1.0 + np.abs(zb) ** 2) ** 2 + tb * tb)) ** 0.25
        assert np.max(np.abs(lhs - dist_zt(z, t, zb, tb) * fac * fb)) < 1e-10

    def test_ball_inclusion_spot_check(self):
        rng = np.random.default_rng(2)
        w0 = HeisPoint(0.4 - 0.2j, 0.3)
        zeta0 = cayley_zt(w0.z, np.asarray(w0.t))
        R = 0.9
        z, t = rand_points(rng, 1000)
        g = np.sqrt(np.hypot(np.abs(z) ** 2, t))
        s = (R / 2.0) * rng.uniform(0, 1, 1000) ** 0.25 / np.maximum(g, 1e-12)
        zin, tin = s * z, s * s * t
        from cryamabe.heisenberg import mul_zt

        zb, tb = mul_zt(w0.z, w0.t, zin, tin)
        assert np.all(sphere_dist_zeta(cayley_zt(zb, tb), zeta0) <= R + 1e-12)


class TestCharts:
    def test_plain_chart_is_cayley(self):
        p = HeisPoint(0.3 + 0.1j, -0.2)
        t = np.asarray(p.t)
        assert np.allclose(PLAIN.map_zt(p.z, t), cayley_zt(p.z, t))
        assert float(PLAIN.jacobian_zt(p.z, t)) == pytest.approx(float(lambda_cayley_zt(p.z, t)), rel=1e-14)

    def test_jacobian_at_center(self):
        r = 0.37
        chart = ConformalChart(ORIGIN, r)
        assert float(chart.jacobian_zt(ORIGIN.z, np.asarray(ORIGIN.t))) == pytest.approx(16.0 * r**4, rel=1e-13)

    def test_order_equivalence(self):
        # dilate-then-translate equals the canonical chart with a dilated center
        xi = HeisPoint(0.5 - 0.3j, 0.4)
        R = 0.2
        from cryamabe.heisenberg import dilate_zt, mul_zt

        alt = ConformalChart(HeisPoint(*dilate_zt(R, xi.z, xi.t)), R)
        rng = np.random.default_rng(3)
        z, t = rand_points(rng, 50)

        zd, td = dilate_zt(R, *mul_zt(xi.z, xi.t, z, t))
        expected = cayley_zt(zd, td)
        assert np.max(np.abs(alt.map_zt(z, t) - expected)) < 1e-13

    def test_chart_change_of_variables(self, prob4):
        chart = ConformalChart(HeisPoint(0.2 + 0.1j, 0.1), 0.8)
        center = NORTH

        def bump(zeta):
            # squared modulus keeps the profile smooth at the center point
            d4 = 4.0 * np.abs(1.0 - zeta @ np.conj(center)) ** 2
            return np.exp(-0.75 * d4)

        sphere_side = prob4.quad.integrate(bump(prob4.quad.nodes()))
        heis_side, _ = integrate_decaying(
            lambda z, t: chart.jacobian_zt(z, t) * bump(chart.map_zt(z, t)),
            1,
            ShellScheme(l0=2.0, n_shells=8, n_inner=96, n_shell=48),
        )
        assert heis_side == pytest.approx(sphere_side, rel=5e-3)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            PLAIN.inv_zeta(POLE)
        with pytest.raises(DomainError):
            ConformalChart(ORIGIN, 0.0)


class TestConformalTransport:
    def test_pullback_of_constant_is_bubble_shape(self):
        u0 = 0.5
        field = conformal_pullback(lambda zeta: np.full(zeta.shape[:-1], u0), PLAIN, 1.0)
        rng = np.random.default_rng(4)
        z, t = rand_points(rng, 100)
        D = (1.0 + np.abs(z) ** 2) ** 2 + t * t
        assert np.max(np.abs(field(z, t) - u0 * 2.0 / np.sqrt(D))) < 1e-12

    def test_pullback_pushforward_roundtrip(self):
        chart = ConformalChart(HeisPoint(0.1 - 0.4j, 0.6), 1.7)

        def u(zeta):
            return zeta[..., 0].real + 0.3 * zeta[..., 1].imag ** 2

        U = conformal_pullback(u, chart, 1.0)
        u_back = conformal_pushforward(U, chart, 1.0)
        rng = np.random.default_rng(5)
        z, t = rand_points(rng, 200)
        zeta = chart.map_zt(z, t)
        assert np.max(np.abs(u_back(zeta) - u(zeta))) < 1e-10

    def test_critical_norm_transport(self, prob4):
        # int |pullback|^{p*} dv_H = int |u|^{p*} dv_S
        from cryamabe.spectral import SpectralFunction

        rng = np.random.default_rng(6)
        c = rng.standard_normal(prob4.basis.n_basis)
        u = SpectralFunction(c, prob4.basis)
        U = conformal_pullback(lambda zeta: u.eval(zeta), PLAIN, 1.0)
        heis_side, _ = integrate_decaying(
            lambda z, t: np.abs(U(z, t)) ** 4,
            1,
            ShellScheme(l0=2.0, n_shells=8, n_inner=96, n_shell=48),
        )
        sphere_side = prob4.lp_star_mass(u)
        assert heis_side == pytest.approx(sphere_side, rel=5e-3)

    def test_quadratic_form_transport(self, prob4):
        # int U L U dv_H = int u A u dv_S for band-limited data (k = 1)
        from cryamabe.energy import dirichlet_form
        from cryamabe.spectral import SpectralFunction

        rng = np.random.default_rng(7)
        c = 0.1 * rng.standard_normal(prob4.basis.n_basis)
        u = SpectralFunction(c, prob4.basis)
        U = conformal_pullback(lambda zeta: u.eval(zeta), PLAIN, 1.0)
        heis = dirichlet_form(
            U,
            prob4.constants,
            ShellScheme(l0=2.0, n_shells=8, n_inner=96, n_shell=48),
            h_factor=0.002,
        )
        sphere = float(np.sum(prob4.basis.multipliers(1.0) * c**2))
        assert heis == pytest.approx(sphere, rel=5e-3)
