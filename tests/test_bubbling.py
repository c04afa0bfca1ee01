import math
from dataclasses import replace

import numpy as np
import pytest

from cryamabe import bubbling
from cryamabe.bubbling import (
    BubbleChart,
    CutoffSpec,
    PSSequenceSpec,
    bubble_piece_report,
    commutator_identity_value,
    gradient_decay_check,
    hk_gradient_flow,
    ps_energy_report,
    ps_term,
    quantization_ladder,
    residual_report,
    subcritical_threshold_check,
    synthesize_vn,
    three_commutator,
    vn_values,
)
from cryamabe.errors import DomainError, PoleError
from cryamabe.heisenberg import HeisPoint
from cryamabe.spectral import SpectralFunction, norm_Hk

from test_fused_transport import _coarse, _perturbed_weak_limit, _unskipped_piece_report, _unskipped_residual_bounds

CENTER = np.array([1.0 + 0j, 0.0 + 0j])
LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


@pytest.fixture(scope="module")
def one_bubble(prob8):
    chart = BubbleChart.standard(CENTER, LADDER, prob8.constants)
    return PSSequenceSpec(prob8.ground_constant(), (chart,))


class TestCutoff:
    def test_plateau_and_support(self):
        cut = CutoffSpec(CENTER)
        assert cut.value(CENTER[None, :])[0] == 1.0
        assert cut.value(-CENTER[None, :])[0] == 0.0
        inside = CENTER * math.cos(0.05) + np.array([0, 1.0 + 0j]) * math.sin(0.05)
        assert cut.value(inside[None, :])[0] == 1.0

    def test_range_and_smoothness(self):
        cut = CutoffSpec(CENTER)
        rng = np.random.default_rng(0)
        g = rng.standard_normal((500, 4))
        zeta = g[:, :2] + 1.0j * g[:, 2:]
        zeta /= np.linalg.norm(zeta, axis=1)[:, None]
        vals = cut.value(zeta)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        # second difference of the profile along a great circle through the center
        theta = np.linspace(0.0, math.pi, 2000)
        along = cut.value(np.cos(theta)[:, None] * CENTER + np.sin(theta)[:, None] * np.array([0, 1.0 + 0j]))
        h = theta[1] - theta[0]
        assert np.max(np.abs(along[2:] - 2 * along[1:-1] + along[:-2])) / h**2 < 50.0

    def test_validation(self):
        with pytest.raises(DomainError):
            CutoffSpec(CENTER, r_inner=1.0, r_outer=0.5)


class TestChartsAndSpecs:
    def test_radii_must_decrease(self, prob8):
        with pytest.raises(DomainError):
            BubbleChart.standard(CENTER, (0.1, 0.1), prob8.constants)

    def test_pole_collision_rejected(self, prob8):
        pole_center = np.array([0.0j, -1.0 + 0j])
        with pytest.raises(PoleError):
            BubbleChart.standard(pole_center, LADDER, prob8.constants)

    @pytest.mark.parametrize(
        "chart_centre, cutoff_centre",
        [
            (CENTER, np.array([math.cos(1e-3), math.sin(1e-3)], dtype=np.complex128)),  # near the chart's centre
            (CENTER, -CENTER),
            (np.array([0.0j, -1.0 + 0j]), CENTER),  # a chart at the pole, its cutoff away from it
        ],
        ids=["near", "antipodal", "chart_at_pole"],
    )
    def test_cutoff_centred_elsewhere_refused_before_work(self, monkeypatch, chart_centre, cutoff_centre):
        def no_work(*args):
            raise AssertionError("a distance was measured before the refusal")

        monkeypatch.setattr(bubbling, "sphere_dist_zeta", no_work)
        with pytest.raises(DomainError, match="centred at the chart's centre"):
            BubbleChart(chart_centre, (1e-1, 1e-2), CutoffSpec(cutoff_centre))

    def test_centre_dimension_matches_constants(self, prob8):
        with pytest.raises(DomainError):
            BubbleChart.standard(np.array([1.0 + 0j, 0.0j, 0.0j]), LADDER, prob8.constants)

    def test_distinct_centers_required(self, prob8):
        chart = BubbleChart.standard(CENTER, LADDER, prob8.constants)
        with pytest.raises(DomainError):
            PSSequenceSpec(prob8.ground_constant(), (chart, chart))

    def test_disjoint_supports(self, prob8):
        a = BubbleChart.standard(CENTER, LADDER, prob8.constants)
        b = BubbleChart.standard(-CENTER, LADDER, prob8.constants)
        assert PSSequenceSpec(prob8.ground_constant(), (a, b)).disjoint_supports()


class TestWeakLimitEvaluator:
    def test_no_state_survives_a_report(self, prob8):
        # each report takes the weak limit's live terms afresh: an in-place
        # change of its coefficients between two reports reaches the second
        chart = BubbleChart.standard(CENTER, (1e-1, 1e-3), prob8.constants)
        u_inf = SpectralFunction(prob8.ground_constant().coeffs.copy(), prob8.basis)
        spec = PSSequenceSpec(u_inf, (chart,))
        scheme = _coarse(1e-3)
        got = []
        for coeffs in (prob8.ground_constant().coeffs, _perturbed_weak_limit(prob8).coeffs):
            u_inf.coeffs[:] = coeffs
            piece = bubble_piece_report(chart, 1, u_inf, prob8, scheme)
            assert piece == _unskipped_piece_report(chart, 1, u_inf, prob8, scheme)
            bounds = _unskipped_residual_bounds(spec, 1, prob8, scheme)
            assert {key: residual_report(spec, 1, prob8, scheme)[key] for key in bounds} == bounds
            got.append(piece)
        assert got[0]["coupling_pstar"] != got[1]["coupling_pstar"]


class TestSynthesis:
    def test_unit_scale_reproduces_constant(self, prob8):
        # scale-one chart centered at the north pole pushes the bubble to u0
        north = np.array([0.0j, 1.0 + 0j])
        chart = BubbleChart.standard(north, (1.0, 0.5), prob8.constants)
        pts = np.array([north, [0.05 + 0j, math.sqrt(1 - 0.05**2)]])
        vals = vn_values(chart, 0, prob8.constants, pts)
        assert vals == pytest.approx([prob8.constants.u0] * 2, rel=1e-10)

    def test_band_limited_projection_tail(self, prob8, one_bubble):
        v = synthesize_vn(one_bubble.bubbles[0], 0, prob8)
        assert v.tail_energy is not None and v.tail_energy >= 0.0

    def test_norm_transport_two_quadratures(self, prob8):
        # the p*-mass identity holds for the true synthesized function, so
        # sphere quadrature of its pointwise values must match the group-side
        # integral; band-limiting is deliberately not involved here
        from cryamabe.heisenberg import ShellScheme, integrate_decaying
        from cryamabe.spectral import SphereQuadrature

        chart = BubbleChart.standard(CENTER, (0.3, 0.1), prob8.constants)
        quad = SphereQuadrature.build(192)  # phase resolution for the 0.3-scale profile
        vals = vn_values(chart, 0, prob8.constants, quad.nodes())
        sphere_side = quad.integrate(np.abs(vals) ** 4)
        conf = chart.chart(0)
        beta = lambda z, t: chart.cutoff.value(conf.map_zt(z, t))
        from cryamabe.energy import BubbleParams, bubble_eval_zt

        U = lambda z, t: beta(z, t) * bubble_eval_zt(BubbleParams(1.0, HeisPoint(0.0, 0.0)), z, t, prob8.constants)
        heis_side, _ = integrate_decaying(
            lambda z, t: np.abs(U(z, t)) ** 4,
            1,
            replace(ShellScheme.reaching(4.0 / 0.3), n_inner=96),
        )
        assert sphere_side == pytest.approx(heis_side, rel=1e-2)

    def test_weak_convergence_pairings(self, prob8, one_bubble):
        f = prob8.ground_constant()
        prev = math.inf
        for n in (0, 2, 4):
            v = synthesize_vn(one_bubble.bubbles[0], n, prob8)
            val = abs(float(v.coeffs @ f.coeffs))  # the L^2 pairing in the orthonormal basis
            assert val < prev or val < 1e-6
            prev = val

    def test_ps_term_without_bubbles(self, prob8):
        spec = PSSequenceSpec(prob8.ground_constant(), ())
        u = ps_term(spec, 0, prob8)
        assert np.array_equal(u.coeffs, prob8.ground_constant().coeffs)


class TestQuantization:
    def test_one_bubble_ladder(self, prob8, one_bubble):
        rows = quantization_ladder(one_bubble, prob8)
        ce = prob8.constants.C_E
        gaps = [abs(r["energy_gap"]) / ce for r in rows]
        assert all(b <= 1.1 * a or b < 0.02 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.02
        # uniform H^k bound along the ladder
        assert max(r["hk_norm_sq"] for r in rows) < 40.0
        # mass bookkeeping gap vanishes along the ladder
        assert abs(rows[-1]["mass_gap"]) < 0.1

    def test_energy_splitting_subtraction(self, prob8, one_bubble):
        # E(u_n - u_inf) compared with E(u_n) - E(u_inf) along the ladder
        rows = quantization_ladder(one_bubble, prob8)
        diffs = [abs(r["E_vn"] - (r["E_n"] - r["E_infty"])) for r in rows]
        assert diffs[-1] < 0.05 * diffs[0] + 5e-3

    def test_two_antipodal_bubbles(self, prob8):
        charts = (
            BubbleChart.standard(CENTER, (1e-2, 1e-3), prob8.constants),
            BubbleChart.standard(-CENTER, (1e-2, 1e-3), prob8.constants),
        )
        spec = PSSequenceSpec(prob8.ground_constant(), charts)
        rep = ps_energy_report(spec, 1, prob8)
        assert rep["E_n"] - rep["E_infty"] == pytest.approx(2 * prob8.constants.C_E, rel=4e-2)


class TestGradientDecay:
    def test_solution_profile_decays(self, prob8, one_bubble):
        rep = gradient_decay_check(one_bubble, (0, 2, 4), prob8)
        assert rep["decays"] and not rep["stagnates"]
        uppers = [r["residual_upper"] for r in rep["rows"]]
        lowers = [r["residual_lower"] for r in rep["rows"]]
        assert all(l <= u * 1.01 for l, u in zip(lowers, uppers))

    def test_non_solution_flagged(self, prob8):
        bad = PSSequenceSpec(
            prob8.ground_constant(),
            (BubbleChart.standard(CENTER, (1e-1, 1e-2, 1e-3), prob8.constants, profile_factor=2.0),),
        )
        rep = gradient_decay_check(bad, (0, 1, 2), prob8)
        assert rep["stagnates"] and not rep["decays"]

    def test_no_bubble_residual_is_small(self, prob8):
        spec = PSSequenceSpec(prob8.ground_constant(), ())
        assert prob8.residual(ps_term(spec, 0, prob8)) < 1e-8


class TestThresholdFlow:
    def test_small_data_converges(self, prob8):
        rng = np.random.default_rng(11)
        for _ in range(3):
            u = SpectralFunction(rng.standard_normal(prob8.basis.n_basis), prob8.basis)
            ball = math.sqrt(prob8.constants.C_S ** (-2.0))
            u = (0.3 * ball / norm_Hk(u, 1.0)) * u
            rep = subcritical_threshold_check(u, prob8, energy_cap_frac=1.0)
            assert rep["below_threshold"]
            assert rep["status"] == "converged_to_zero"
            assert rep["final_norm"] < 1e-4

    def test_critical_point_is_stationary(self, prob8):
        rep = hk_gradient_flow(prob8.ground_constant(), prob8, max_iter=15)
        assert np.max(np.abs(rep["final"].coeffs - prob8.ground_constant().coeffs)) < 1e-10

    def test_zero_stays_zero(self, prob8):
        rep = hk_gradient_flow(SpectralFunction(np.zeros(prob8.basis.n_basis), prob8.basis), prob8, max_iter=5)
        assert rep["final_norm"] == 0.0


class TestCommutator:
    def test_constant_left_argument(self):
        one = lambda z, t: np.ones_like(t)
        v = lambda z, t: np.sin(z.real) + t * t
        p = HeisPoint(0.2 + 0.6j, -0.3)
        assert abs(three_commutator(one, v, p)) < 1e-7

    def test_coordinate_pairs(self):
        x1 = lambda z, t: z.real
        y1 = lambda z, t: z.imag
        p = HeisPoint(0.7 - 0.1j, 0.4)
        assert abs(three_commutator(x1, y1, p)) < 1e-8
        assert three_commutator(x1, x1, p) == pytest.approx(-0.5, abs=1e-8)

    def test_closed_form_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            cu = rng.uniform(-1, 1, 6)
            cv = rng.uniform(-1, 1, 6)

            def mk(c):
                return lambda z, t: (
                    c[0]
                    + c[1] * z.real
                    + c[2] * z.imag
                    + c[3] * t
                    + c[4] * z.real * z.imag
                    + c[5] * z.real**2
                )

            u, v = mk(cu), mk(cv)
            p = HeisPoint(rng.uniform(-1, 1) + 1.0j * rng.uniform(-1, 1), float(rng.uniform(-1, 1)))
            assert three_commutator(u, v, p) == pytest.approx(
                commutator_identity_value(u, v, p), abs=1e-6
            )
