import json
import math

import numpy as np
import pytest

from cryamabe.cli import _reports_text
from cryamabe.errors import DomainError, MaskEmptyError
from cryamabe.minimax import (
    CriticalPointReport,
    SubgroupSpec,
    invariance_check,
    mask_for,
    minimax_search,
    nehari_rescale,
    random_unitary,
)
from cryamabe.spectral import SpectralFunction, apply_A2k, basis_element, h_minus_k_form, norm_Hk


def _project(u, G):
    """Orthogonal projection onto the invariant subspace: the coefficient mask."""
    return u.copy_with(np.where(mask_for(G, u.basis), u.coeffs, 0.0))


class TestMasks:
    def test_flags_required(self):
        with pytest.raises(DomainError):
            SubgroupSpec()

    def test_constant_under_hopf(self, prob6):
        u0 = prob6.ground_constant()
        assert np.array_equal(_project(u0, SubgroupSpec(hopf_invariant=True)).coeffs, u0.coeffs)

    def test_constant_under_odd(self, prob6):
        u0 = prob6.ground_constant()
        assert np.all(_project(u0, SubgroupSpec(antipodal_odd=True)).coeffs == 0.0)

    def test_mixed_mode_killed_by_hopf(self, prob6):
        e = basis_element(prob6.basis, 2, 1, 0)
        assert np.all(_project(e, SubgroupSpec(hopf_invariant=True)).coeffs == 0.0)

    def test_combined_mask_provably_empty(self, prob6):
        # j = l forces even antipodal parity at every truncation
        with pytest.raises(MaskEmptyError):
            mask_for(SubgroupSpec(hopf_invariant=True, antipodal_odd=True), prob6.basis)

    def test_projection_idempotent_and_selfadjoint(self, prob6):
        rng = np.random.default_rng(0)
        G = SubgroupSpec(antipodal_odd=True)
        for _ in range(10):
            u = SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis)
            v = SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis)
            pu = _project(u, G)
            assert np.array_equal(_project(pu, G).coeffs, pu.coeffs)
            # self-adjoint for the Sobolev inner product (diagonal masks commute
            # with the diagonal operator)
            lhs = float(np.sum(prob6.basis.multipliers(1.0) * pu.coeffs * v.coeffs))
            rhs = float(np.sum(prob6.basis.multipliers(1.0) * u.coeffs * _project(v, G).coeffs))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_mask_commutes_with_operator(self, prob6):
        rng = np.random.default_rng(1)
        u = SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis)
        G = SubgroupSpec(hopf_invariant=True)
        lhs = _project(apply_A2k(u, 1.0), G).coeffs
        rhs = apply_A2k(_project(u, G), 1.0).coeffs
        assert np.array_equal(lhs, rhs)


class TestInvariance:
    def test_identity_element(self, prob4):
        # identity rotation only costs one analysis round trip
        rng = np.random.default_rng(2)
        u = SpectralFunction(rng.standard_normal(prob4.basis.n_basis), prob4.basis)
        assert invariance_check(u, np.eye(2, dtype=complex), prob4) < 1e-10

    def test_phase_rotation(self, prob4):
        rng = np.random.default_rng(3)
        u = SpectralFunction(rng.standard_normal(prob4.basis.n_basis), prob4.basis)
        assert invariance_check(u, np.exp(0.77j) * np.eye(2), prob4) < 1e-6

    def test_random_unitaries(self, prob4):
        rng = np.random.default_rng(4)
        u = SpectralFunction(rng.standard_normal(prob4.basis.n_basis), prob4.basis)
        worst = max(invariance_check(u, random_unitary(rng), prob4) for _ in range(10))
        assert worst < 1e-6

    def test_non_unitary_rejected(self, prob4):
        u = prob4.ground_constant()
        with pytest.raises(DomainError):
            invariance_check(u, 2.0 * np.eye(2, dtype=complex), prob4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, prob4, bad):
        # a NaN entry makes the unitarity residual NaN, which no > comparison catches
        g = np.eye(2, dtype=complex)
        g[0, 1] = bad
        with pytest.raises(DomainError):
            invariance_check(prob4.ground_constant(), g, prob4)


def _invariance_by_eval(u, g, prob):
    """The check through point evaluation: u at the rotated nodes g zeta, analyzed."""
    u_rot = prob.analyze(u.eval(prob.quad.nodes() @ g.T))
    return abs(prob.energy(u) - prob.energy(u_rot))


class TestRotationDifferential:
    # rotated_values turns the bidegree blocks by symmetric powers of g; the
    # evaluator at the rotated nodes is the independent reference
    @pytest.mark.parametrize("fixture", ["prob4", "prob8"])
    def test_rotated_values_match_eval_at_rotated_nodes(self, request, fixture):
        prob = request.getfixturevalue(fixture)
        rng = np.random.default_rng(40)
        u = SpectralFunction(rng.standard_normal(prob.basis.n_basis), prob.basis)
        special = [np.eye(2), np.exp(0.77j) * np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
        for g in [random_unitary(rng) for _ in range(5)] + special:
            ref = u.eval(prob.quad.nodes() @ g.T)
            got = prob.quad.rotated_values(u.coeffs, u.basis, g)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_check_matches_the_eval_path(self, prob4):
        rng = np.random.default_rng(41)
        u = SpectralFunction(rng.standard_normal(prob4.basis.n_basis), prob4.basis)
        for _ in range(10):
            g = random_unitary(rng)
            assert abs(invariance_check(u, g, prob4) - _invariance_by_eval(u, g, prob4)) <= 1e-12


class TestNehari:
    def test_ground_state_fixed(self, prob6):
        u0 = prob6.ground_constant()
        assert np.max(np.abs(nehari_rescale(u0, prob6).coeffs - u0.coeffs)) < 1e-12

    def test_double_rescales_back(self, prob6):
        u0 = prob6.ground_constant()
        assert np.max(np.abs(nehari_rescale(2.0 * u0, prob6).coeffs - u0.coeffs)) < 1e-12

    def test_idempotent(self, prob6):
        rng = np.random.default_rng(5)
        u = SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis)
        once = nehari_rescale(u, prob6)
        twice = nehari_rescale(once, prob6)
        assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-10 * np.max(np.abs(once.coeffs))

    def test_energy_formula_on_the_set(self, prob6):
        rng = np.random.default_rng(6)
        u = nehari_rescale(SpectralFunction(rng.standard_normal(prob6.basis.n_basis), prob6.basis), prob6)
        expected = (0.5 - 1.0 / prob6.constants.p_star) * norm_Hk(u, 1.0) ** 2
        assert prob6.energy(u) == pytest.approx(expected, rel=1e-10)

    def test_zero_rejected(self, prob6):
        with pytest.raises(DomainError):
            nehari_rescale(SpectralFunction(np.zeros(prob6.basis.n_basis), prob6.basis), prob6)


class TestSearch:
    def test_hopf_control_finds_bubble_level(self, prob8):
        reports = minimax_search(SubgroupSpec(hopf_invariant=True), [prob8.ground_constant()], prob8, budget=50)
        r = reports[0]
        assert r.converged and not r.mask_degraded
        assert r.energy == pytest.approx(prob8.constants.C_E, rel=1e-10)
        assert r.residual < 1e-10

    def test_odd_search_finds_sign_changing_level(self, prob8):
        reports = minimax_search(
            SubgroupSpec(antipodal_odd=True), 3, prob8, budget=300, tol=1e-6, rng=np.random.default_rng(1)
        )
        best = min(reports, key=lambda r: r.residual_full)
        assert best.converged
        assert best.residual_full <= 2.0 * max(best.residual, 1e-14)
        assert best.energy > prob8.constants.C_E
        # the odd level is a robust target across seeds
        energies = sorted(r.energy for r in reports if r.converged)
        assert energies[-1] - energies[0] < 1e-6 * energies[0]

    def test_combined_flags_degrade_to_odd(self, prob8):
        reports = minimax_search(
            SubgroupSpec(hopf_invariant=True, antipodal_odd=True), 2, prob8, budget=200, rng=np.random.default_rng(2)
        )
        assert all(r.mask_degraded for r in reports)
        assert all("odd" in r.mask_name for r in reports)
        assert any(r.converged for r in reports)

    def test_report_emission(self, prob8):
        reports = minimax_search(SubgroupSpec(antipodal_odd=True), 1, prob8, budget=120, rng=np.random.default_rng(3))
        payload = json.loads(_reports_text(reports))
        assert len(payload) == 1
        rec = payload[0]
        assert {"mask", "energy", "residual_full", "coefficients", "nl_tail"} <= set(rec)
        assert len(rec["coefficients"]) == prob8.basis.n_basis

    def test_report_reuses_the_descent_gradient(self, prob4):
        # the residuals and nl_tail come from the descent's last gradient: bitwise a fresh one
        mult = prob4.basis.multipliers(prob4.constants.k)
        for budget in (0, 3, 200):
            G = SubgroupSpec(antipodal_odd=True)
            r = minimax_search(G, 1, prob4, budget=budget, rng=np.random.default_rng(9))[0]
            fresh = prob4.gradient(r.candidate.copy_with(r.candidate.coeffs.copy()))
            assert r.residual_full == math.sqrt(h_minus_k_form(fresh.coeffs, mult))
            assert r.residual == math.sqrt(h_minus_k_form(fresh.coeffs * mask_for(G, prob4.basis), mult))
            assert r.nl_tail == fresh.tail_energy
            assert r.energy == prob4.energy(r.candidate.copy_with(r.candidate.coeffs.copy()))

    def test_negative_residual_rejected(self, prob8):
        with pytest.raises(DomainError):
            CriticalPointReport(
                candidate=prob8.ground_constant(),
                energy=1.0,
                residual=-1.0,
                residual_full=0.0,
                distance_to_bubble_level=0.0,
                iterations=0,
                converged=False,
                seed_index=0,
                mask_name="odd",
            )
