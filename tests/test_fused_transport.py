"""Fused transported integrals against the separate-pass formulation.

``bubble_piece_report`` integrates its four densities in one shell walk and
``residual_report`` evaluates the cutoff once per stencil point.  The private
reference functions below are the earlier formulation: one
``integrate_decaying`` pass per integral, the Dirichlet form through
``dirichlet_form``, and the sub-Laplacian and X/Y derivatives of the cutoff
through ``sub_laplacian``/``vector_field``, each with its own evaluations.

Both reports also skip the chart maps and cutoffs of every node whose cutoff
the d_S bound proves constant over its stencil.  The ``_unskipped_*``
references are the fused walks without that skip; the reports must match
them to the bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cryamabe.bubbling import (
    BubbleChart,
    PSSequenceSpec,
    bubble_piece_report,
    ps_energy_report,
    ps_term,
    residual_report,
)
from cryamabe.energy import (
    BubbleParams,
    _dirichlet_density,
    _dirichlet_step,
    bubble_eval_zt,
    bubble_horizontal_gradient_zt,
    dirichlet_form,
)
from cryamabe.heisenberg import HeisPoint, ShellScheme, _flow_stencil, integrate_decaying, sub_laplacian, vector_field
from cryamabe.spectral import SpectralFunction, apply_A2k

CENTER = np.array([1.0 + 0j, 0.0 + 0j])
STANDARD = BubbleParams(1.0, HeisPoint(0.0, 0.0))  # the centred unit bubble


def _coarse(R: float) -> ShellScheme:
    # the default reach (the cutoff support ends near gauge 4 / R) on coarse grids
    return replace(ShellScheme.reaching(4.0 / R), n_inner=24, n_shell=16)


def _separate_piece_report(chart, n, u_infty, prob, scheme):
    constants = prob.constants
    R = chart.radii[n]
    conf = chart.chart(n)
    beta_n = lambda z, t: chart.cutoff.value(conf.map_zt(z, t))
    p_star = constants.p_star

    def W(z, t):
        return beta_n(z, t) * chart.profile_factor * bubble_eval_zt(STANDARD, z, t, constants)

    a_n = dirichlet_form(W, constants, scheme)
    m_n, _ = integrate_decaying(lambda z, t: np.abs(W(z, t)) ** p_star, 1, scheme, constants.measure)
    Au = SpectralFunction(prob.basis.multipliers(constants.k) * u_infty.coeffs, prob.basis)

    def cross_quad_integrand(z, t):
        lam = conf.jacobian_zt(z, t)
        g = Au.eval(conf.map_zt(z, t))
        return lam ** ((constants.Q + 2 * constants.k) / (2.0 * constants.Q)) * g * W(z, t)

    cross_quad, _ = integrate_decaying(cross_quad_integrand, 1, scheme, constants.measure)

    def coupling_integrand(z, t):
        lam = conf.jacobian_zt(z, t)
        a = u_infty.eval(conf.map_zt(z, t))
        b = lam ** (-1.0 / p_star) * W(z, t)
        return lam * (np.abs(a + b) ** p_star - np.abs(a) ** p_star - np.abs(b) ** p_star)

    coupling, _ = integrate_decaying(coupling_integrand, 1, scheme, constants.measure)
    return {
        "R_n": R,
        "a_n": a_n,
        "m_n": m_n,
        "cross_quad": cross_quad,
        "coupling_pstar": coupling,
        "energy_piece": 0.5 * a_n - m_n / p_star,
    }


def _separate_residual_report(spec, n, prob, scheme):
    constants = prob.constants
    chart = spec.bubbles[0]
    R = chart.radii[n]
    conf = chart.chart(n)
    beta_n = lambda z, t: chart.cutoff.value(conf.map_zt(z, t))
    pbar = 2.0 * constants.Q / (constants.Q + 2.0 * constants.k)
    c_prof = chart.profile_factor
    expo = 1.0 / constants.p_star
    resid_inf = prob.residual(spec.u_infty)

    def A_fn(z, t):
        lam = conf.jacobian_zt(z, t)
        return lam**expo * spec.u_infty.eval(conf.map_zt(z, t))

    def G_fn(z, t):
        om = bubble_eval_zt(STANDARD, z, t, constants)
        beta = beta_n(z, t)
        A = A_fn(z, t)
        h = _dirichlet_step(z, t, 0.02)
        lap_beta = sub_laplacian(beta_n, z, t, h=h)
        gx_om, gy_om = bubble_horizontal_gradient_zt(z, t, constants)
        gx_b = vector_field("X", beta_n, z, t, h=h)
        gy_b = vector_field("Y", beta_n, z, t, h=h)
        cross = -0.5 * (gx_b * gx_om + gy_b * gy_om)
        L_betaU = c_prof * (beta * om**3 - om * lap_beta + cross)
        W = A + c_prof * beta * om
        return A**3 + L_betaU - W**3

    ub_int, _ = integrate_decaying(lambda z, t: np.abs(G_fn(z, t)) ** pbar, 1, scheme, constants.measure)

    def witness(z, t):
        return np.exp(-0.5 * ((z * np.conj(z)).real ** 2 + t * t))

    wit_scheme = ShellScheme(l0=2.0, n_shells=5, n_inner=64, n_shell=48)
    wit_pair, _ = integrate_decaying(lambda z, t: G_fn(z, t) * witness(z, t), 1, wit_scheme, constants.measure)
    wit_norm = math.sqrt(dirichlet_form(witness, constants, wit_scheme))
    return {
        "n": n,
        "R_n": R,
        "residual_upper": float(ub_int ** (1.0 / pbar)),
        "residual_lower": float(abs(wit_pair) / wit_norm),
        "residual_spectral": float(prob.residual(ps_term(spec, n, prob))),
        "residual_weak_limit": float(resid_inf),
    }


def _unskipped_piece_report(chart, n, u_infty, prob, scheme):
    constants = prob.constants
    conf = chart.chart(n)
    p_star = constants.p_star
    e_quad = (constants.Q + 2 * constants.k) / (2.0 * constants.Q)
    Au = apply_A2k(u_infty, constants.k)

    def W_at(z, t, zeta):
        return chart.cutoff.value(zeta) * chart.profile_factor * bubble_eval_zt(STANDARD, z, t, constants)

    def integrand(z, t):
        zeta = conf.map_zt(z, t)
        lam = conf.jacobian_zt(z, t)
        w = W_at(z, t, zeta)
        a = u_infty.eval(zeta)
        b = lam ** (-1.0 / p_star) * w
        return np.stack(
            [
                _dirichlet_density(lambda zz, tt: W_at(zz, tt, conf.map_zt(zz, tt)), z, t),
                np.abs(w) ** p_star,
                lam**e_quad * Au.eval(zeta) * w,
                lam * (np.abs(a + b) ** p_star - np.abs(a) ** p_star - np.abs(b) ** p_star),
            ]
        )

    (a_n, m_n, cross_quad, coupling), _ = integrate_decaying(integrand, 1, scheme, constants.measure)
    return {
        "R_n": chart.radii[n],
        "a_n": a_n,
        "m_n": m_n,
        "cross_quad": cross_quad,
        "coupling_pstar": coupling,
        "energy_piece": 0.5 * a_n - m_n / p_star,
    }


def _unskipped_residual_bounds(spec, n, prob, scheme):
    constants = prob.constants
    chart = spec.bubbles[0]
    conf = chart.chart(n)
    beta_n = lambda z, t: chart.cutoff.value(conf.map_zt(z, t))
    pbar = 2.0 * constants.Q / (constants.Q + 2.0 * constants.k)
    c_prof = chart.profile_factor

    def G_fn(z, t):
        om = bubble_eval_zt(STANDARD, z, t, constants)
        zeta = conf.map_zt(z, t)
        beta = chart.cutoff.value(zeta)
        A = conf.jacobian_zt(z, t) ** (1.0 / constants.p_star) * spec.u_infty.eval(zeta)
        h = _dirichlet_step(z, t, 0.02)
        lap = np.zeros_like(beta)
        grad = {}
        for kind, (zp, tp), (zm, tm) in _flow_stencil(z, t, h):
            bp, bm = beta_n(zp, tp), beta_n(zm, tm)
            lap = lap + (bp + bm - 2.0 * beta)
            grad[kind] = (bp - bm) / (2.0 * h)
        gx_om, gy_om = bubble_horizontal_gradient_zt(z, t, constants)
        cross = -0.5 * (grad["X"] * gx_om + grad["Y"] * gy_om)
        L_betaU = c_prof * (beta * om**3 - om * (lap / (4.0 * h * h)) + cross)
        W = A + c_prof * beta * om
        return A**3 + L_betaU - W**3

    ub_int, _ = integrate_decaying(lambda z, t: np.abs(G_fn(z, t)) ** pbar, 1, scheme, constants.measure)

    def witness(z, t):
        return np.exp(-0.5 * ((z * np.conj(z)).real ** 2 + t * t))

    wit_scheme = ShellScheme(l0=2.0, n_shells=5, n_inner=64, n_shell=48)
    wit_pair, _ = integrate_decaying(lambda z, t: G_fn(z, t) * witness(z, t), 1, wit_scheme, constants.measure)
    wit_norm = math.sqrt(dirichlet_form(witness, constants, wit_scheme))
    return {"residual_upper": float(ub_int ** (1.0 / pbar)), "residual_lower": float(abs(wit_pair) / wit_norm)}


def _assert_close(got: dict, ref: dict, rtol: float = 1e-12) -> None:
    assert set(got) == set(ref)
    for key, r in ref.items():
        assert abs(got[key] - r) <= rtol * abs(r), (key, got[key], r)


def _perturbed_weak_limit(prob):
    # a weak limit with non-constant modes, so the couplings see the chart map
    coeffs = prob.ground_constant().coeffs.copy()
    coeffs[1:6] += 0.05 * np.arange(1, 6)
    return SpectralFunction(coeffs, prob.basis)


class TestFusedPieceReport:
    @pytest.mark.parametrize("profile_factor", [1.0, 1.7])
    @pytest.mark.parametrize("n", [0, 1])
    def test_matches_separate_passes(self, prob8, profile_factor, n):
        chart = BubbleChart.standard(CENTER, (1e-1, 1e-3), prob8.constants, profile_factor=profile_factor)
        u_inf = _perturbed_weak_limit(prob8)
        scheme = _coarse(chart.radii[n])
        got = bubble_piece_report(chart, n, u_inf, prob8, scheme)
        _assert_close(got, _separate_piece_report(chart, n, u_inf, prob8, scheme))

    def test_two_bubbles(self, prob8):
        charts = (
            BubbleChart.standard(CENTER, (1e-2, 1e-3), prob8.constants),
            BubbleChart.standard(-CENTER, (1e-2, 1e-3), prob8.constants, profile_factor=0.6),
        )
        spec = PSSequenceSpec(_perturbed_weak_limit(prob8), charts)
        scheme = _coarse(1e-3)
        rep = ps_energy_report(spec, 1, prob8, scheme)
        for chart, piece in zip(charts, rep["pieces"]):
            _assert_close(piece, _separate_piece_report(chart, 1, spec.u_infty, prob8, scheme))

    def test_default_scheme_matches(self, prob8):
        chart = BubbleChart.standard(CENTER, (3e-2,), prob8.constants)
        u_inf = prob8.ground_constant()
        scheme = ShellScheme.reaching(4.0 / 3e-2)
        got = bubble_piece_report(chart, 0, u_inf, prob8)
        _assert_close(got, _separate_piece_report(chart, 0, u_inf, prob8, scheme))


class TestSharedStencilResidual:
    @pytest.mark.parametrize("profile_factor", [1.0, 2.0])
    def test_matches_separate_evaluations(self, prob8, profile_factor):
        chart = BubbleChart.standard(CENTER, (1e-1, 1e-2), prob8.constants, profile_factor=profile_factor)
        spec = PSSequenceSpec(prob8.ground_constant(), (chart,))
        scheme = _coarse(1e-2)
        got = residual_report(spec, 1, prob8, scheme)
        _assert_close(got, _separate_residual_report(spec, 1, prob8, scheme))


class TestSkippedStencil:
    @pytest.mark.parametrize("profile_factor", [1.0, 1.7])
    @pytest.mark.parametrize("n", [0, 1])
    def test_piece_matches_unskipped(self, prob8, profile_factor, n):
        chart = BubbleChart.standard(CENTER, (1e-1, 1e-3), prob8.constants, profile_factor=profile_factor)
        u_inf = _perturbed_weak_limit(prob8)
        scheme = _coarse(chart.radii[n])
        got = bubble_piece_report(chart, n, u_inf, prob8, scheme)
        assert got == _unskipped_piece_report(chart, n, u_inf, prob8, scheme)

    def test_two_bubbles_match_unskipped(self, prob8):
        charts = (
            BubbleChart.standard(CENTER, (1e-2, 1e-3), prob8.constants),
            BubbleChart.standard(-CENTER, (1e-2, 1e-3), prob8.constants, profile_factor=1.7),
        )
        spec = PSSequenceSpec(_perturbed_weak_limit(prob8), charts)
        scheme = _coarse(1e-3)
        rep = ps_energy_report(spec, 1, prob8, scheme)
        for chart, piece in zip(charts, rep["pieces"]):
            assert piece == _unskipped_piece_report(chart, 1, spec.u_infty, prob8, scheme)

    def test_default_scheme_matches_unskipped(self, prob8):
        chart = BubbleChart.standard(CENTER, (3e-2,), prob8.constants)
        u_inf = prob8.ground_constant()
        scheme = ShellScheme.reaching(4.0 / 3e-2)
        assert bubble_piece_report(chart, 0, u_inf, prob8) == _unskipped_piece_report(chart, 0, u_inf, prob8, scheme)

    @pytest.mark.parametrize("profile_factor", [1.0, 2.0])
    def test_residual_matches_unskipped(self, prob8, profile_factor):
        chart = BubbleChart.standard(CENTER, (1e-1, 1e-3), prob8.constants, profile_factor=profile_factor)
        spec = PSSequenceSpec(_perturbed_weak_limit(prob8), (chart,))
        for n in (0, 1):
            scheme = _coarse(chart.radii[n])
            got = residual_report(spec, n, prob8, scheme)
            ref = _unskipped_residual_bounds(spec, n, prob8, scheme)
            assert {key: got[key] for key in ref} == ref
