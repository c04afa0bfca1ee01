"""Command-line driver: seeded verification runs with CSV/JSON artifacts.

Every acceptance-style check is runnable by exactly one subcommand; outputs
are written atomically (temp file + rename) so interrupted runs never leave
half-written artifacts.  Exit codes: 0 all checks passed; 1 at least one check
failed, always with ``<sub>_failures.json``; 2 usage or configuration error
(unknown keys, values of the wrong type or out of range, a k that the
subcommand does not support, and max(jmax, lmax) = 0 where the subcommand
needs the degree-1 blocks are refused before any work); 3 an unexpected
error inside a run, recorded in ``<sub>_error.json`` (subcommand, exception
type, message, traceback).

minimax-explore needs k = 1, like the transported reports: the Hopf rule
integrates |u|^{p*} exactly only at k = 1, where p* = 4 and |u|^4 = u^4 is a
polynomial.  At k = 1/2, |u|^{8/3} is not smooth across the nodal set of a
sign-changing u, and the energy_invariance row reads quadrature error,
2.9e-2 at the defaults against its 1e-6 bound; a degree-256 rule still reads
1.8e-6.  An even n_phi, which would mend symmetric_criticality there, moves
k = 1 values beyond rounding.  So k != 1 is refused before any work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback


def _cap_threads() -> None:
    cap = os.environ.get("CRYAMABE_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_threads()

import numpy as np  # noqa: E402  (thread caps must precede the first import)

from .config import ExperimentConfig, atomic_write  # noqa: E402
from .errors import CRYamabeError, DomainError  # noqa: E402


class CheckTable:
    """Rows of (check, value, threshold, passed) with an overall verdict.

    ``files`` holds the run's other artifacts, file name -> (format, payload),
    where the format is one of the text functions below; ``main`` formats and
    writes them with the table's own CSV.
    """

    def __init__(self, name: str):
        self.name = name
        self.rows: list[tuple[str, float, float, bool]] = []
        self.files: dict[str, tuple] = {}

    def add(self, check: str, value: float, threshold: float, larger_ok: bool = False) -> bool:
        ok = value >= threshold if larger_ok else value <= threshold
        self.rows.append((check, float(value), float(threshold), bool(ok)))
        return ok

    def record(self, check: str, value: float) -> None:
        self.rows.append((check, float(value), math.nan, True))

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok in self.rows)

    def echo(self) -> None:
        for check, value, threshold, ok in self.rows:
            flag = "PASS" if ok else "FAIL"
            print(f"  [{flag}] {check}: value={value:.6g} threshold={threshold:.6g}")
        print(f"{self.name}: {'PASS' if self.passed else 'FAIL'}")


def _csv_text(rows) -> str:
    """CSV lines of rows, the header first: a string cell as it is, any other by its repr."""
    return "".join(",".join(c if isinstance(c, str) else repr(c) for c in row) + "\n" for row in rows)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _reports_text(reports) -> str:
    """minimax candidate reports, in their order."""
    return json.dumps([r.to_json_dict() for r in reports], indent=1)


def _problem(cfg: ExperimentConfig):
    from .energy import YamabeProblem

    return YamabeProblem.build(k=cfg.k, jmax=cfg.jmax, lmax=cfg.lmax, quad_degree=cfg.quad_degree)


# ---------------------------------------------------------------------------
# subcommands


def run_verify_group(cfg: ExperimentConfig) -> CheckTable:
    from . import heisenberg as hg

    rng = np.random.default_rng(cfg.seed)
    table = CheckTable("verify-group")
    n = 10_000
    tol = 1e-12 * cfg.tol_scale

    def pts(count):
        z = rng.normal(size=count) + 1.0j * rng.normal(size=count)
        return z, rng.normal(size=count)

    za, ta = pts(n)
    zb, tb = pts(n)
    zc, tc = pts(n)
    lhs = hg.mul_zt(*hg.mul_zt(za, ta, zb, tb), zc, tc)
    rhs = hg.mul_zt(za, ta, *hg.mul_zt(zb, tb, zc, tc))
    table.add("associativity", float(np.max(np.abs(lhs[1] - rhs[1])) + np.max(np.abs(lhs[0] - rhs[0]))), tol)
    zi, ti = hg.mul_zt(za, ta, *hg.inv_zt(za, ta))
    table.add("inverse", float(np.max(np.abs(zi)) + np.max(np.abs(ti))), tol)
    lam = rng.uniform(0.01, 10.0, size=n)
    zl, tl = lam * za, lam * lam * ta
    table.add(
        "gauge_homogeneity",
        float(np.max(np.abs(hg.gauge_zt(zl, tl) - lam * hg.gauge_zt(za, ta)))),
        tol,
    )
    d1 = hg.dist_zt(*hg.mul_zt(zc, tc, za, ta), *hg.mul_zt(zc, tc, zb, tb))
    d2 = hg.dist_zt(za, ta, zb, tb)
    table.add("dist_left_invariance", float(np.max(np.abs(d1 - d2))), tol)
    # left invariance of the flow-stencil derivatives on a smooth field
    f = lambda z, t: np.sin(z.real) * np.cos(t) + z.imag**2
    za8, ta8 = pts(n)
    a = hg.HeisPoint(rng.normal() + 1.0j * rng.normal(), float(rng.normal()))
    shifted = lambda z, t: f(*hg.mul_zt(a.z, a.t, z, t))
    lhsv = hg.vector_field("X", shifted, za8, ta8, h=1e-4)
    zr, tr = hg.mul_zt(a.z, a.t, za8, ta8)
    rhsv = hg.vector_field("X", f, zr, tr, h=1e-4)
    table.add("vector_field_left_invariance", float(np.max(np.abs(lhsv - rhsv))), 1e-9)
    # empirical quasi-triangle constant (recorded)
    d_ab = hg.dist_zt(za, ta, zb, tb)
    d_ac = hg.dist_zt(za, ta, zc, tc)
    d_cb = hg.dist_zt(zc, tc, zb, tb)
    K = float(np.max(d_ab / (d_ac + d_cb)))
    table.add("quasi_triangle_K", K, 2.0)
    return table


def run_verify_cayley(cfg: ExperimentConfig) -> CheckTable:
    from . import heisenberg as hg
    from .cayley import (
        ConformalChart,
        cayley_inv_zeta,
        cayley_zt,
        conformal_pullback,
        sphere_dist_zeta,
    )
    from .heisenberg import sub_laplacian
    from .spectral import SpectralFunction, apply_A2k

    rng = np.random.default_rng(cfg.seed)
    table = CheckTable("verify-cayley")
    n = 1000
    z = rng.normal(size=n) + 1.0j * rng.normal(size=n)
    t = rng.normal(size=n)
    zeta = cayley_zt(z, t)
    table.add("unit_norm", float(np.max(np.abs(np.linalg.norm(zeta, axis=-1) - 1.0))), 1e-12)
    zi, ti = cayley_inv_zeta(zeta)
    table.add("roundtrip", float(np.max(np.abs(zi - z)) + np.max(np.abs(ti - t))), 1e-10)
    zb = rng.normal(size=n) + 1.0j * rng.normal(size=n)
    tb = rng.normal(size=n)
    lhs = sphere_dist_zeta(zeta, cayley_zt(zb, tb))
    fac = lambda zz, tt: (4.0 / ((1.0 + (zz * np.conj(zz)).real) ** 2 + tt * tt)) ** 0.25
    rhs = hg.dist_zt(z, t, zb, tb) * fac(z, t) * fac(zb, tb)
    table.add("distance_relation", float(np.max(np.abs(lhs - rhs))), 1e-10)
    # ball inclusion: preimage of B_R contains the half-radius gauge ball
    R = 0.8
    base = cayley_zt(z[:1], t[:1])
    zsmp = rng.normal(size=n) + 1.0j * rng.normal(size=n)
    tsmp = rng.normal(size=n)
    g = hg.gauge_zt(zsmp, tsmp)
    scale = (R / 2.0) * rng.uniform(0, 1, size=n) ** 0.25 / np.maximum(g, 1e-9)
    zin, tin = scale * zsmp, scale**2 * tsmp
    zball, tball = hg.mul_zt(z[:1], t[:1], zin, tin)
    dist_sphere = sphere_dist_zeta(cayley_zt(zball, tball), base)
    table.add("ball_inclusion_violations", float(np.sum(dist_sphere > R)), 0.0)
    if abs(cfg.k - 1.0) < 1e-14:
        prob = _problem(cfg.with_overrides(jmax=min(cfg.jmax, 4)))
        chart = ConformalChart(hg.HeisPoint(0.0, 0.0), 1.0)
        worst = 0.0
        for _ in range(20):
            c = rng.standard_normal(prob.basis.n_basis)
            u = SpectralFunction(c, prob.basis)
            Au = apply_A2k(u, 1.0)
            F = conformal_pullback(lambda zz: u.eval(zz), chart, 1.0)
            zz = 0.8 * (rng.normal(size=100) + 1.0j * rng.normal(size=100))
            tt = rng.normal(size=100)
            # fourth-order Richardson combination: the O(h^2) stencil error of
            # either step alone reads near the 1e-4 threshold at h = 1e-4
            lhsc = -(4.0 * sub_laplacian(F, zz, tt, h=1e-3) - sub_laplacian(F, zz, tt, h=2e-3)) / 3.0
            # the conformal weight (Q + 2k) / 2Q at k = 1
            rhsc = chart.jacobian_zt(zz, tt) ** 0.75 * Au.eval(chart.map_zt(zz, tt))
            scale_c = np.median(np.abs(rhsc))
            worst = np.maximum(worst, np.max(np.abs(lhsc - rhsc) / np.maximum(np.abs(rhsc), 1e-3 * scale_c)))
        table.add("conformal_covariance", worst, 1e-4 * cfg.tol_scale)
    return table


def run_verify_spectral(cfg: ExperimentConfig) -> CheckTable:
    from .spectral import SpectralFunction, analyze, apply_A2_differential

    prob = _problem(cfg)
    table = CheckTable("verify-spectral")
    rng = np.random.default_rng(cfg.seed)
    basis, quad = prob.basis, prob.quad
    eye = np.eye(basis.n_basis)
    gram = np.stack([quad.analyze_values(quad.synthesize_values(e, basis), basis) for e in eye])
    table.add("orthonormality", float(np.max(np.abs(gram - eye))), 1e-8 * cfg.tol_scale)
    if abs(cfg.k - 1.0) < 1e-14:
        g = rng.standard_normal((30, 4))
        zeta = g[:, :2] + 1.0j * g[:, 2:]
        zeta /= np.linalg.norm(zeta, axis=1)[:, None]
        mult = basis.multipliers(1.0)
        worst = 0.0
        for i in range(basis.n_basis):
            e = SpectralFunction(eye[i], basis)
            lhs = apply_A2_differential(e, zeta)
            rhs = mult[i] * e.eval(zeta)
            worst = np.maximum(worst, np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(rhs)), 1e-12))
        table.add("eigen_consistency", worst, 1e-6 * cfg.tol_scale)
    c = rng.standard_normal(basis.n_basis)
    u = SpectralFunction(c, basis)
    v = quad.synthesize_values(c, basis)
    back = analyze(v, quad, basis)
    table.add("roundtrip", float(np.max(np.abs(back.coeffs - c))), 1e-7 * cfg.tol_scale)
    table.add("parseval", abs(quad.integrate(v * v) - float(np.sum(c * c))), 1e-8 * max(1.0, float(np.sum(c * c))))
    return table


def run_sobolev_sharpness(cfg: ExperimentConfig) -> CheckTable:
    from .energy import sobolev_constant, lambda0
    from .spectral import total_sphere_mass, basis_element

    table = CheckTable("sobolev-sharpness")
    for (NN, kk) in ((1, 1.0), (1, 0.5), (2, 1.0)):
        Q = 2 * NN + 2
        ident = sobolev_constant(NN, kk) * lambda0(NN, kk) ** 2 * total_sphere_mass(NN) ** (2 * kk / Q)
        table.add(f"closed_form_identity_N{NN}_k{kk}", abs(ident - 1.0), 1e-12)
    prob = _problem(cfg)
    q_const = prob.sobolev_quotient(prob.ground_constant())
    table.add("constant_saturates", abs(q_const - prob.constants.C_S) / prob.constants.C_S, 5e-3)
    q_mode = prob.sobolev_quotient(basis_element(prob.basis, 1, 0, 0))
    table.add("mode_strictly_below", prob.constants.C_S - q_mode, 1e-4, larger_ok=True)
    ks = np.linspace(0.2, 1.6, 8)
    cs = [sobolev_constant(1, float(kk)) for kk in ks]
    table.record("cs_monotone_decreasing_in_k", float(np.max(np.diff(cs))))
    return table


def run_bubble_residual(cfg: ExperimentConfig) -> CheckTable:
    from .energy import (
        BubbleParams,
        bubble_eval_zt,
        bubble_field,
        energy_heis,
        calibrate_normalizations,
    )
    from .heisenberg import HeisPoint, ShellScheme, sub_laplacian
    from .cayley import ConformalChart, conformal_pullback

    prob = _problem(cfg)
    consts = prob.constants
    table = CheckTable("bubble-residual")
    rng = np.random.default_rng(cfg.seed)
    table.record("cQ", consts.cQ)
    # pushforward of the standard bubble equals the constant solution
    origin = HeisPoint(0.0, 0.0)
    field = conformal_pullback(lambda zeta: np.full(zeta.shape[:-1], consts.u0), ConformalChart(origin, 1.0), consts.k)
    z = rng.normal(size=100) + 1.0j * rng.normal(size=100)
    t = 2.0 * rng.normal(size=100)
    standard = BubbleParams(1.0, origin)
    direct = bubble_eval_zt(standard, z, t, consts)
    table.add("pushforward_matches_constant", float(np.max(np.abs(field(z, t) - direct) / direct)), 1e-8)
    if abs(cfg.k - 1.0) < 1e-14:
        om = bubble_field(standard, consts)
        lhs = -sub_laplacian(om, z, t, h=1e-4)
        rhs = om(z, t) ** (consts.p_star - 1.0)
        table.add("pde_residual", float(np.max(np.abs(lhs - rhs) / rhs)), 1e-5 * cfg.tol_scale)
        scheme = ShellScheme(l0=2.0, n_shells=6, n_inner=96, n_shell=48)
        shifted = HeisPoint(1.0, 1.0)
        for lam in (0.5, 1.0, 2.0):
            for xi in (origin, shifted):
                U = bubble_field(BubbleParams(lam, xi), consts)
                eh = energy_heis(U, consts, scheme=scheme, center=xi)
                table.add(f"energy_lam{lam}_t{xi.t}", abs(eh - consts.C_E) / consts.C_E, 1e-2 * cfg.tol_scale)
    rep = calibrate_normalizations(consts)
    table.add("kappa_calibration", rep["kappa_rel_err"], 5e-3)
    return table


def run_ps_quantization(cfg: ExperimentConfig, n_bubbles: int = 1) -> CheckTable:
    from .bubbling import BubbleChart, PSSequenceSpec, quantization_ladder
    from .spectral import SPHERE_MASS

    prob = _problem(cfg)
    consts = prob.constants
    table = CheckTable("ps-quantization")
    center_a = np.zeros(2, dtype=np.complex128)
    center_a[0] = 1.0
    charts = [BubbleChart.standard(center_a, cfg.rn_ladder, consts)]
    if n_bubbles == 2:
        charts.append(BubbleChart.standard(-center_a, cfg.rn_ladder, consts))
    spec = PSSequenceSpec(prob.ground_constant(), tuple(charts))
    rows = quantization_ladder(spec, prob)
    gaps = [abs(r["energy_gap"]) / consts.C_E for r in rows]
    for r, g in zip(rows, gaps):
        table.record(f"gap_over_CE_at_R{r['R_n']:g}", g)
    trend_ok = all(b <= a * 1.1 or b < 0.02 for a, b in zip(gaps, gaps[1:]))
    table.add("gap_trend_decreasing", 0.0 if trend_ok else 1.0, 0.5)
    table.add("final_gap", gaps[-1], 0.02 * cfg.tol_scale if n_bubbles == 1 else 0.04 * cfg.tol_scale)
    table.add("hk_norm_bounded", np.max([r["hk_norm_sq"] for r in rows]), 10.0 * (consts.C_E * 4 * (1 + n_bubbles)))
    mass_gaps = [abs(r["mass_gap"]) for r in rows]
    table.add("mass_quantization_final", mass_gaps[-1], 0.05 * cfg.tol_scale * SPHERE_MASS * consts.u0**4)
    keys = ("n", "R_n", "E_n", "energy_gap", "mass_n", "mass_gap", "hk_norm_sq")
    header = ("n", "R_n", "E_n", "energy_gap", "pstar_mass", "mass_gap", "hk_norm_sq")
    table.files["ps_quantization_ladder.csv"] = (_csv_text, [header] + [tuple(r[key] for key in keys) for r in rows])
    return table


def run_gradient_decay(cfg: ExperimentConfig) -> CheckTable:
    from .bubbling import BubbleChart, PSSequenceSpec, gradient_decay_check

    prob = _problem(cfg)
    consts = prob.constants
    table = CheckTable("gradient-decay")
    center = np.zeros(2, dtype=np.complex128)
    center[0] = 1.0
    good = PSSequenceSpec(
        prob.ground_constant(), (BubbleChart.standard(center, cfg.rn_ladder, consts),)
    )
    rep = gradient_decay_check(good, range(len(cfg.rn_ladder)), prob)
    ratio = rep["rows"][0]["residual_upper"] / max(rep["rows"][-1]["residual_upper"], 1e-300)
    table.add("residual_drop_factor", ratio, 10.0, larger_ok=True)
    bad = PSSequenceSpec(
        prob.ground_constant(),
        (BubbleChart.standard(center, cfg.rn_ladder, consts, profile_factor=2.0),),
    )
    rep_bad = gradient_decay_check(bad, range(len(cfg.rn_ladder)), prob)
    table.add("negative_control_stagnates", 1.0 if rep_bad["stagnates"] else 0.0, 1.0, larger_ok=True)
    keys = ("n", "R_n", "residual_upper", "residual_lower", "residual_spectral")
    table.files["gradient_decay_ladder.csv"] = (
        _csv_text,
        [("control", *keys)]
        + [(tag, *(r[key] for key in keys)) for tag, control in (("good", rep), ("bad", rep_bad)) for r in control["rows"]],
    )
    return table


def run_subcritical_flow(cfg: ExperimentConfig) -> CheckTable:
    from .bubbling import hk_gradient_flow, subcritical_threshold_check
    from .heisenberg import Q
    from .spectral import SpectralFunction, norm_Hk

    prob = _problem(cfg)
    consts = prob.constants
    table = CheckTable("subcritical-flow")
    rng = np.random.default_rng(cfg.seed)
    failures = 0
    for s in range(cfg.flow_seeds):
        c = rng.standard_normal(prob.basis.n_basis)
        u = SpectralFunction(c, prob.basis)
        ball = math.sqrt(consts.C_S ** (-Q / (2 * consts.k)))
        u = (rng.uniform(0.1, 0.45) * ball / norm_Hk(u, consts.k)) * u
        rep = subcritical_threshold_check(u, prob, energy_cap_frac=0.9)
        if not (rep["below_threshold"] and rep["status"] == "converged_to_zero" and rep["final_norm"] < 1e-4):
            failures += 1
    table.add("flows_converged_to_zero", float(failures), 0.0)
    stat = hk_gradient_flow(prob.ground_constant(), prob, max_iter=20)
    moved = float(np.max(np.abs(stat["final"].coeffs - prob.ground_constant().coeffs)))
    table.add("critical_point_stationary", moved, 1e-10)
    return table


def run_riesz_check(cfg: ExperimentConfig) -> CheckTable:
    from . import riesz as rz
    from .heisenberg import BoxDomain, HeisPoint

    table = CheckTable("riesz-check")
    rng = np.random.default_rng(cfg.seed)
    spec1 = rz.KernelSpec(1.0)
    spech = rz.KernelSpec(2.0 * cfg.k, kind="hyper")
    z = rng.normal(size=50) + 1.0j * rng.normal(size=50)
    t = rng.normal(size=50)
    lam = 1.7
    hom = np.max(
        np.abs(
            rz.kernel_eval_zt(spec1, lam * z, lam * lam * t)
            - lam**spec1.exponent * rz.kernel_eval_zt(spec1, z, t)
        )
    )
    table.add("kernel_homogeneity", float(hom), 1e-14)
    table.add("hyper_decay_slope", abs(rz.decay_exponent_fit(spech) - spech.exponent), 1e-3)
    sg = rz.semigroup_check(shape=cfg.grid_shape, half_widths=cfg.grid_half_widths, seed=cfg.seed)
    table.add("semigroup_shape_residual", sg["shape_residual"], 0.05 * cfg.tol_scale)
    box = BoxDomain((-3.0, -3.0, -6.0), (3.0, 3.0, 6.0))
    g48 = rz.green_inversion_check(rz.gaussian_bump(box, (48,) * 3, 0.6), margin=6, centered_radial=True)
    g64 = rz.green_inversion_check(rz.gaussian_bump(box, (64,) * 3, 0.6), margin=8, centered_radial=True)
    table.add("green_residual_64", g64["residual"], 0.10 * cfg.tol_scale)
    table.add(
        "green_constant_stability",
        abs(g48["constant"] - g64["constant"]) / abs(g64["constant"]),
        0.05 * cfg.tol_scale,
    )
    probe = rz.mapping_bound_probe(1.0, q=2.0, n_bumps=10, seed=cfg.seed)
    table.record("mapping_bound_max_ratio", probe["max_ratio"])
    table.add("mapping_bound_spread", probe["spread"], 3.0)
    origin = HeisPoint(0.0, 0.0)
    const = lambda zz, tt: np.ones_like(tt)
    table.add("pv_constant_vanishes", abs(rz.pv_fractional(const, 1.0, origin)), 1e-12)
    bump = lambda zz, tt: np.exp(-((zz * np.conj(zz)).real ** 2 + tt * tt))
    pv_val, pv_sens = rz.pv_fractional(bump, 1.0, origin, return_sensitivity=True)
    table.add("pv_interior_max_sign", pv_val, 0.0, larger_ok=True)
    table.record("pv_delta_sensitivity", pv_sens)
    payload = {"semigroup": sg, "green_48": g48, "green_64": g64, "mapping": probe}
    table.files["riesz_check.json"] = (_json_text, payload)
    return table


def run_commutator_check(cfg: ExperimentConfig) -> CheckTable:
    from .bubbling import commutator_identity_value, three_commutator
    from .heisenberg import HeisPoint

    table = CheckTable("commutator-check")
    rng = np.random.default_rng(cfg.seed)

    def poly_pair():
        cu = rng.uniform(-1, 1, size=6)
        cv = rng.uniform(-1, 1, size=6)

        def mk(c):
            def fn(z, t):
                x, y = z.real, z.imag
                return c[0] + c[1] * x + c[2] * y + c[3] * t + c[4] * x * y + c[5] * x * x
            return fn

        return mk(cu), mk(cv)

    worst = 0.0
    for _ in range(1000):
        u, v = poly_pair()
        z = rng.uniform(-1, 1) + 1.0j * rng.uniform(-1, 1)
        p = HeisPoint(z, float(rng.uniform(-1, 1)))
        direct = three_commutator(u, v, p)
        closed = commutator_identity_value(u, v, p)
        worst = np.maximum(worst, abs(direct - closed))
    table.add("three_commutator_identity", worst, 1e-6 * cfg.tol_scale)
    x1 = lambda z, t: z.real
    y1 = lambda z, t: z.imag
    p0 = HeisPoint(0.4 + 0.3j, 0.2)
    table.add("commutator_x1_y1", abs(three_commutator(x1, y1, p0)), 1e-8)
    table.add("commutator_x1_x1", abs(three_commutator(x1, x1, p0) + 0.5), 1e-8)
    return table


def run_minimax_explore(cfg: ExperimentConfig) -> tuple[CheckTable, list]:
    from .minimax import SubgroupSpec, invariance_check, minimax_search, random_unitary
    from .spectral import SpectralFunction

    prob = _problem(cfg)
    consts = prob.constants
    table = CheckTable("minimax-explore")
    rng = np.random.default_rng(cfg.seed)
    # invariance is a band-limited statement; a low truncation keeps the
    # rotated re-analysis cheap without weakening the check
    prob_inv = _problem(cfg.with_overrides(jmax=min(cfg.jmax, 4)))
    c = rng.standard_normal(prob_inv.basis.n_basis)
    u = SpectralFunction(c, prob_inv.basis)
    worst = 0.0
    for _ in range(100):
        worst = np.maximum(worst, invariance_check(u, random_unitary(rng), prob_inv))
    table.add("energy_invariance", worst, 1e-6 * cfg.tol_scale)
    ctrl = minimax_search(SubgroupSpec(hopf_invariant=True), [prob.ground_constant()], prob, budget=60)
    table.add("hopf_control_energy", abs(ctrl[0].energy - consts.C_E), 1e-8)
    reports = minimax_search(
        SubgroupSpec(hopf_invariant=True, antipodal_odd=True),
        cfg.minimax_seeds,
        prob,
        budget=cfg.minimax_budget,
        tol=1e-5 * cfg.tol_scale,
        rng=np.random.default_rng(cfg.seed + 1),
    )
    best = min(reports, key=lambda r: r.residual_full)
    table.add("best_full_residual", best.residual_full, 1e-4 * cfg.tol_scale)
    table.add("energy_margin_positive", best.energy - consts.C_E, 0.0, larger_ok=True)
    table.record("best_energy_over_CE", best.energy / consts.C_E)
    sc_ok = all(r.residual_full <= 2.0 * max(r.residual, 1e-14) for r in reports if r.converged)
    table.add("symmetric_criticality", 0.0 if sc_ok else 1.0, 0.5)
    table.files["minimax_candidates.json"] = (_reports_text, reports + ctrl)
    return table, reports


def run_calibrate(cfg: ExperimentConfig) -> CheckTable:
    from .energy import YamabeConstants, calibrate_normalizations

    consts = YamabeConstants.create(cfg.k)
    rep = calibrate_normalizations(consts)
    table = CheckTable("calibrate-normalizations")
    table.add("kappa_rel_err", rep["kappa_rel_err"], 5e-3)
    table.add("bubble_constant_rel_err", rep["bubble_constant_rel_err"], 1e-8)
    table.record("kappa_fit", rep["kappa_fit"])
    table.record("mass_closed_form", rep["mass_closed_form"])
    table.files["calibrate_normalizations.json"] = (_json_text, rep)
    return table


# ---------------------------------------------------------------------------
# driver

# Each subcommand's runner, called with the config and the parsed flags.  A
# lambda looks its run_* function up when it is called, so a patched module
# attribute is the one that runs.
RUNNERS = {
    "verify-group": lambda cfg, args: run_verify_group(cfg),
    "verify-cayley": lambda cfg, args: run_verify_cayley(cfg),
    "verify-spectral": lambda cfg, args: run_verify_spectral(cfg),
    "sobolev-sharpness": lambda cfg, args: run_sobolev_sharpness(cfg),
    "bubble-residual": lambda cfg, args: run_bubble_residual(cfg),
    "ps-quantization": lambda cfg, args: run_ps_quantization(cfg, n_bubbles=args.bubbles),
    "gradient-decay": lambda cfg, args: run_gradient_decay(cfg),
    "subcritical-flow": lambda cfg, args: run_subcritical_flow(cfg),
    "riesz-check": lambda cfg, args: run_riesz_check(cfg),
    "commutator-check": lambda cfg, args: run_commutator_check(cfg),
    "minimax-explore": lambda cfg, args: run_minimax_explore(cfg)[0],
    "calibrate-normalizations": lambda cfg, args: run_calibrate(cfg),
}

# Subcommands that need more of the configuration than its own ranges; checked
# before any work.  The transported bubbling reports exist for k = 1 only, and
# minimax-explore's invariance row passes only where the rule is exact, k = 1
# (module docstring).  The sharpness check's mode (1, 0, 0) and the
# antipodally odd search (blocks with j + l odd) need max(jmax, lmax) >= 1.
REQUIRES_K1 = ("ps-quantization", "gradient-decay", "minimax-explore")
REQUIRES_DEGREE_1 = ("sobolev-sharpness", "minimax-explore")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cryamabe", description=__doc__)
    parser.add_argument("subcommand", choices=RUNNERS)
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--N", type=int, default=None)
    parser.add_argument("--k", type=float, default=None)
    parser.add_argument("--jmax", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--tol-scale", type=float, default=None)
    parser.add_argument("--bubbles", type=int, default=1, choices=(1, 2))
    parser.add_argument("--ladder", type=str, default=None, help="comma-separated radii or 'default'")
    return parser


def _write_files(out_dir: str, files: dict[str, tuple]) -> None:
    """Format each artifact of a run, file name -> (format, payload), and write it atomically."""
    for name, (text, payload) in files.items():
        atomic_write(os.path.join(out_dir, name), text(payload))


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
        cfg = cfg.with_overrides(
            N=args.N, k=args.k, jmax=args.jmax, seed=args.seed, out_dir=args.out, tol_scale=args.tol_scale
        )
        # argparse drops a value that is exactly "--" (as in --ladder=--) and hands over []
        ladder = "--" if args.ladder == [] else args.ladder
        if ladder not in (None, "default"):
            try:
                cfg = cfg.with_overrides(rn_ladder=[float(x) for x in ladder.split(",")])
            except ValueError as exc:  # a rung that is no number, or a ladder the config refuses
                raise DomainError(f"--ladder {ladder!r}: {exc}") from None
        if args.subcommand in REQUIRES_K1 and abs(cfg.k - 1.0) > 1e-14:
            raise DomainError(f"{args.subcommand} requires k = 1, got k={cfg.k!r}")
        if args.subcommand in REQUIRES_DEGREE_1 and max(cfg.jmax, cfg.lmax or 0) < 1:
            raise DomainError(f"{args.subcommand} requires max(jmax, lmax) >= 1, got jmax={cfg.jmax!r}, lmax={cfg.lmax!r}")
    except (CRYamabeError, ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    stem = args.subcommand.replace("-", "_")
    try:
        table = RUNNERS[args.subcommand](cfg, args)
        rows = [("check", "value", "threshold", "passed")] + [(c, v, thr, int(ok)) for c, v, thr, ok in table.rows]
        files = {f"{stem}.csv": (_csv_text, rows), **table.files}
        if not table.passed:
            failures = [{"check": c, "value": v, "threshold": thr} for c, v, thr, ok in table.rows if not ok]
            files[f"{stem}_failures.json"] = (_json_text, failures)
        _write_files(cfg.out_dir, files)
        table.echo()
        return 0 if table.passed else 1
    except Exception as exc:  # the run's boundary: record what went wrong, never a raw traceback
        record = {
            "subcommand": args.subcommand,
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
        print(f"error: {record['type']}: {exc}", file=sys.stderr)
        try:
            _write_files(cfg.out_dir, {f"{stem}_error.json": (_json_text, record)})
        except OSError as write_exc:
            print(f"error record not written: {write_exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
