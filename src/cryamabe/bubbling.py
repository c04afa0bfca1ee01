"""Synthesized concentrating sequences, energy quantization, and flow experiments.

A synthesized sequence is u_n = u_inf + sum_l v_n^l with

    v_n^l = Lambda_sigma^{(Q-2k)/2Q} * beta^l * (U_inf^l o sigma_n^l),

where sigma_n is the inverse of the chart rho_n(w) = C(w_c . d_{R_n} w) and
beta is a sphere cutoff equal to 1 on the quarter ball around the
concentration center.  Band-limited projections of v_n cannot resolve scales
R_n below the quadrature resolution, so every quantitative check here
(energies, p*-masses, gradient residuals) is evaluated through the exact
conformal change of variables back to the group side, where the integrands
live at unit scale.  The residual dE(u_n) transports to the pointwise field

    G_n = L(W_n) - |W_n|^{p*-2} W_n,       W_n = Lambda_rho^{1/p*} (u_n o rho_n),

and ||dE(u_n)||_{L^pbar(sphere)} = ||G_n||_{L^pbar(group)} exactly, which
dominates the dual-space residual; a chart-adapted witness pairing supplies
the matching lower bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cayley import POLE, ConformalChart, cayley_inv, cayley_zt, conformal_pushforward, sphere_dist_zeta
from .errors import DomainError, PoleError
from .heisenberg import (
    Q,
    Array,
    HeisPoint,
    ShellScheme,
    _flow_stencil,
    _stencil_settled,
    _sum_last,
    gauge_zt,
    integrate_decaying,
    sub_laplacian,
    vector_field,
)
from .energy import (
    YamabeConstants,
    YamabeProblem,
    _dirichlet_density,
    bubble_horizontal_gradient_zt,
    bubble_shape_zt,
    dirichlet_form,
)
from .spectral import SpectralFunction, analyze, apply_A2k, h_minus_k_form, hk_form, norm_Hk

# ---------------------------------------------------------------------------
# cutoffs


def _smoothstep5(x: Array) -> Array:
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


@dataclass(frozen=True)
class CutoffSpec:
    """C^2 cutoff on the sphere: 1 inside the r_inner ball, 0 outside r_outer.

    The profile is the quintic smoothstep applied to the normalized squared
    quasi-distance, so two distributional derivatives stay bounded.
    """

    center: Array
    r_inner: float = 0.25
    r_outer: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.complex128)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if not 0 < self.r_inner < self.r_outer:
            raise DomainError("need 0 < r_inner < r_outer")

    def value(self, zeta: Array) -> Array:
        d2 = 2.0 * np.abs(1.0 - _sum_last(np.asarray(zeta) * np.conj(self.center)))
        x = (d2 - self.r_inner**2) / (self.r_outer**2 - self.r_inner**2)
        return 1.0 - _smoothstep5(x)


# ---------------------------------------------------------------------------
# charts and sequence specifications


@dataclass(frozen=True)
class BubbleChart:
    """One concentrating bubble: sphere center, shrinking radii, cutoff.

    Its group-side profile is the centred unit bubble omega
    (:func:`bubble_shape_zt`) times ``profile_factor``.
    """

    center: Array  # sphere point; the group center is its Cayley preimage
    radii: tuple[float, ...]
    cutoff: CutoffSpec
    profile_factor: float = 1.0  # multiplies the extremal profile (non-solutions probe decay failures)

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.complex128)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if not np.array_equal(self.cutoff.center, c):
            raise DomainError("the cutoff must be centred at the chart's centre")
        r = tuple(float(x) for x in self.radii)
        object.__setattr__(self, "radii", r)
        if len(r) == 0 or any(x <= 0 for x in r):
            raise DomainError("radii must be positive")
        if any(r[i + 1] >= r[i] for i in range(len(r) - 1)):
            raise DomainError("radii must decrease strictly")
        if sphere_dist_zeta(c, POLE) <= self.cutoff.r_outer:
            raise PoleError("cutoff support reaches the chart pole")

    @staticmethod
    def standard(center, radii: Sequence[float], constants: YamabeConstants, profile_factor: float = 1.0) -> "BubbleChart":
        """The bubble at the point ``center`` of S^3 in C^2, with the default cutoff.

        ``constants`` is not read since S^3 is the only sphere; the benchmark
        still passes it.
        """
        c = np.asarray(center, dtype=np.complex128)
        if c.shape != (2,):
            raise DomainError(f"a bubble centre is one point of C^2, got shape {c.shape}")
        return BubbleChart(
            c,
            tuple(radii),
            CutoffSpec(c),
            profile_factor,
        )

    @property
    def group_center(self) -> HeisPoint:
        return cayley_inv(self.center)

    def chart(self, n: int) -> ConformalChart:
        return ConformalChart(self.group_center, self.radii[n])


@dataclass(frozen=True)
class PSSequenceSpec:
    """Weak limit plus finitely many bubbles at pairwise distinct centers."""

    u_infty: SpectralFunction
    bubbles: tuple[BubbleChart, ...]

    def __post_init__(self):
        object.__setattr__(self, "bubbles", tuple(self.bubbles))
        cs = [b.center for b in self.bubbles]
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                if sphere_dist_zeta(cs[i], cs[j]) < 1e-8:
                    raise DomainError("bubble centers must have distinct limits")

    def disjoint_supports(self) -> bool:
        # the sphere quasi-distance satisfies the triangle inequality, and the
        # cutoffs vanish on their boundary spheres, so touching closed balls
        # still give disjoint open supports
        cs = [b.center for b in self.bubbles]
        rs = [b.cutoff.r_outer for b in self.bubbles]
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                if sphere_dist_zeta(cs[i], cs[j]) < rs[i] + rs[j]:
                    return False
        return True


# ---------------------------------------------------------------------------
# synthesis on the sphere (band-limited projections)


def vn_values(chart: BubbleChart, n: int, constants: YamabeConstants, zeta: Array) -> Array:
    """Pointwise values of v_n at sphere points; zero outside the cutoff."""
    beta = chart.cutoff.value(zeta)
    out = np.zeros(beta.shape)
    live = beta > 0.0
    if np.any(live):
        U = lambda z, t: chart.profile_factor * bubble_shape_zt(z, t, constants)
        out[live] = beta[live] * conformal_pushforward(U, chart.chart(n), constants.k)(zeta[live])
    return out


def synthesize_vn(chart: BubbleChart, n: int, prob: YamabeProblem) -> SpectralFunction:
    """Band-limited projection of v_n; tail_energy records unresolved mass."""
    vals = vn_values(chart, n, prob.constants, prob.quad.nodes())
    return analyze(vals, prob.quad, prob.basis)


def ps_term(spec: PSSequenceSpec, n: int, prob: YamabeProblem) -> SpectralFunction:
    """u_n = u_inf + sum_l v_n^l as spectral coefficients (band-limited)."""
    coeffs = spec.u_infty.coeffs.copy()
    tail = 0.0
    for chart in spec.bubbles:
        v = synthesize_vn(chart, n, prob)
        coeffs = coeffs + v.coeffs
        tail += v.tail_energy or 0.0
    return SpectralFunction(coeffs, prob.basis, tail_energy=tail)


# ---------------------------------------------------------------------------
# transported energy bookkeeping


def _restrict(mask: Array, *arrays: Array) -> tuple[Array, ...]:
    """The arrays at the nodes of ``mask``; uncopied where the mask keeps every node."""
    return arrays if mask.all() else tuple(a[mask] for a in arrays)


def _settled_nodes(chart: BubbleChart, conf: ConformalChart, g: Array, D: Array, h: Array) -> tuple[Array, Array]:
    """Masks (one, zero) of the nodes where the cutoff is exactly 1, or exactly 0, on the whole flow stencil of step h.

    ``conf`` is the chart rho_n(w) = C(c . d_R w) of a rung, ``g`` holds the
    gauges |w| of the base nodes and ``D`` the D_m = |P_m|^2 of their
    m = c . d_R(w).  As d_H(m, c) = R |w| (dilations are automorphisms;
    Folland and Stein 1982, ch. 1), verify-cayley's distance relation
    d_S(C a, C b) = d_H(a, b) fac(a) fac(b), fac = (4 / |P|^2)^{1/4} <= sqrt 2,
    puts rho_n(w) at d_S = R |w| fac(m) fac(c) from the cutoff's centre C(c)
    (:class:`BubbleChart` refuses any other) and its stencil within 2 R h of
    it; d_S is a metric (Rudin 1980, Prop. 5.1.2), hence the reach 2 R h.
    """
    cut, R, c = chart.cutoff, conf.scale, conf.center
    fac_c = (4.0 / ((1.0 + abs(c.z) ** 2) ** 2 + c.t**2)) ** 0.25
    d = R * g * (4.0 / D) ** 0.25 * fac_c
    return _stencil_settled(d, 2.0 * R * h, cut.r_inner, cut.r_outer)


def _transported_nodes(chart: BubbleChart, conf: ConformalChart, z: Array, t: Array, h_factor: float, weak: tuple) -> tuple:
    """The node prologue of both transported integrands through ``conf``: one group product m = c . d_R(w) per node.

    D_m = (1 + |z_m|^2)^2 + t_m^2 gives Lambda_rho = 2^Q R^Q / D_m^2 (as
    ``jacobian_zt``) and :func:`_settled_nodes`; zeta = C(m) is formed at the
    moving nodes, or at all live ones if a ``weak`` entry is not a constant.
    Returns the mask ``live`` (cutoff not 0 on the stencil of step
    h = h_factor (1 + |w|)), then z, t, h, the mask ``moving`` (cutoff not 1
    on it), beta, Lambda_rho and ``weak``'s values at the live nodes.
    """
    g = gauge_zt(z, t)
    h = h_factor * (1.0 + g)
    zm, tm = conf.group_point_zt(z, t)
    D = (1.0 + (zm * np.conj(zm)).real) ** 2 + tm * tm
    one, zero = _settled_nodes(chart, conf, g, D, h)
    live = ~zero
    z, t, h, one, zm, tm, D = _restrict(live, z, t, h, one, zm, tm, D)
    moving = ~one
    lam = (2.0**Q) / D**2 * conf.scale**Q
    beta = np.ones(t.shape)
    if any(map(callable, weak)):
        zeta = cayley_zt(zm, tm)
        weak = [v(zeta) if callable(v) else v for v in weak]
        beta[moving] = chart.cutoff.value(zeta[moving])
    elif moving.any():
        beta[moving] = chart.cutoff.value(cayley_zt(zm[moving], tm[moving]))
    return live, z, t, h, moving, beta, lam, weak


def bubble_piece_report(
    chart: BubbleChart,
    n: int,
    u_infty: SpectralFunction,
    prob: YamabeProblem,
    scheme: ShellScheme | None = None,
) -> dict:
    """Exact-transport integrals of one bubble piece at rung n.

    Returns the quadratic form a_n and p*-mass m_n of v_n, the coupling of
    v_n with the weak limit in both the quadratic and p*-parts, and the
    L^2-against-smooth pairing used for the weak-convergence diagnostic.
    Only the local case k = 1 supports the Dirichlet-form route.

    The four integrals share one shell walk and its node prologue
    :func:`_transported_nodes`.  W is evaluated at the base point and the four
    Dirichlet stencil points of each live node, with a cutoff at moving nodes
    only, so every integral is bitwise that of the unskipped walk.
    """
    constants = prob.constants
    if abs(constants.k - 1.0) > 1e-14:
        raise DomainError("transported bubbling reports require k = 1")
    R = chart.radii[n]
    scheme = scheme or ShellScheme.reaching(4.0 / R)
    conf = chart.chart(n)
    cut = chart.cutoff
    c_prof = chart.profile_factor
    p_star = constants.p_star
    e_quad = (Q + 2 * constants.k) / (2.0 * Q)
    # couplings with the weak limit pulled to the group side, live terms taken once per report
    weak = (u_infty.evaluator(), apply_A2k(u_infty, constants.k).evaluator())

    def integrand(z, t):
        rows = np.zeros((4, t.shape[0]))
        live, z, t, h, moving, beta, lam, (a, Au) = _transported_nodes(chart, conf, z, t, 0.01, weak)

        def W(zs, ts):  # transported bubble with cutoff at the stencil points of the live nodes
            beta = np.ones(ts.shape)
            if moving.any():
                beta[moving] = cut.value(conf.map_zt(*_restrict(moving, zs, ts)))
            return beta * c_prof * bubble_shape_zt(zs, ts, constants)

        w = beta * c_prof * bubble_shape_zt(z, t, constants)
        rows[1, live] = np.abs(w) ** p_star
        rows[2, live] = lam**e_quad * Au * w
        b = lam ** (-1.0 / p_star) * w
        rows[3, live] = lam * (np.abs(a + b) ** p_star - np.abs(a) ** p_star - np.abs(b) ** p_star)
        rows[0, live] = _dirichlet_density(W, z, t, h)
        return rows

    values, _ = integrate_decaying(integrand, 1, scheme)
    a_n, m_n, cross_quad, coupling = values

    return {
        "R_n": R,
        "a_n": a_n,
        "m_n": m_n,
        "cross_quad": cross_quad,
        "coupling_pstar": coupling,
        "energy_piece": 0.5 * a_n - m_n / p_star,
    }


def ps_energy_report(
    spec: PSSequenceSpec,
    n: int,
    prob: YamabeProblem,
    scheme: ShellScheme | None = None,
) -> dict:
    """Energies and masses of u_n evaluated by exact conformal transport.

    Bubble-bubble interactions vanish identically for k = 1 when the cutoff
    supports are disjoint (the operator is local), which the sequence spec
    enforces; couplings with the weak limit are integrated on the group side.
    """
    constants = prob.constants
    if len(spec.bubbles) > 1 and not spec.disjoint_supports():
        raise DomainError("overlapping bubble supports are out of scope")
    E_inf = prob.energy(spec.u_infty)
    mass_inf = prob.lp_star_mass(spec.u_infty)
    nsq_inf = hk_form(spec.u_infty.coeffs, prob.basis.multipliers(constants.k))
    pieces = [bubble_piece_report(ch, n, spec.u_infty, prob, scheme) for ch in spec.bubbles]
    E_n = (
        E_inf
        + sum(p["energy_piece"] for p in pieces)
        + sum(p["cross_quad"] for p in pieces)
        - sum(p["coupling_pstar"] for p in pieces) / constants.p_star
    )
    mass_n = mass_inf + sum(p["m_n"] + p["coupling_pstar"] for p in pieces)
    nsq_n = nsq_inf + sum(p["a_n"] + 2.0 * p["cross_quad"] for p in pieces)
    return {
        "n": n,
        "R_n": spec.bubbles[0].radii[n] if spec.bubbles else None,
        "E_n": E_n,
        "E_infty": E_inf,
        "energy_gap": E_n - E_inf - len(spec.bubbles) * constants.C_E,
        "mass_n": mass_n,
        "mass_infty": mass_inf,
        "mass_gap": mass_n - mass_inf - sum(p["m_n"] for p in pieces),
        "hk_norm_sq": nsq_n,
        "E_vn": sum(p["energy_piece"] for p in pieces),
        "pieces": pieces,
    }


def quantization_ladder(spec: PSSequenceSpec, prob: YamabeProblem) -> list[dict]:
    """One report per rung of the radius ladder shared by all bubbles."""
    n_rungs = len(spec.bubbles[0].radii) if spec.bubbles else 0
    return [ps_energy_report(spec, n, prob) for n in range(n_rungs)]


# ---------------------------------------------------------------------------
# gradient decay along the ladder


def _witness(z, t):
    """The lower bound's witness: a fixed Schwartz-type bump in chart coordinates."""
    return np.exp(-0.5 * ((z * np.conj(z)).real ** 2 + t * t))


_WITNESS_SCHEME = ShellScheme(l0=2.0, n_shells=5, n_inner=64, n_shell=48)


@functools.lru_cache(maxsize=None)
def _witness_norm(constants: YamabeConstants) -> float:
    """H^1 norm of the witness; it depends on the constants only, so each configuration computes it once."""
    return math.sqrt(dirichlet_form(_witness, constants, _WITNESS_SCHEME))


def residual_report(
    spec: PSSequenceSpec,
    n: int,
    prob: YamabeProblem,
    scheme: ShellScheme | None = None,
) -> dict:
    """Upper and lower bounds for ||dE(u_n)||_{H^{-k}} via the group transport.

    Upper: the L^pbar norm of the transported pointwise residual G_n (the
    dual-space embedding constant is harmless for trend assertions).  Lower:
    pairing with the chart-adapted witness, divided by its H^k norm.  Also
    reports the naive spectral residual of the band-limited projection.

    G_n opens with the node prologue :func:`_transported_nodes`; the cutoff's
    flow stencil is evaluated at moving nodes only, and G_n = A^3 - A^3 = 0 at
    nodes that are not live, so both bounds are bitwise those of the
    unskipped evaluation.
    """
    constants = prob.constants
    if abs(constants.k - 1.0) > 1e-14:
        raise DomainError("transported residual reports require k = 1")
    if len(spec.bubbles) != 1:
        raise DomainError("residual ladder is a one-bubble diagnostic")
    chart = spec.bubbles[0]
    R = chart.radii[n]
    scheme = scheme or ShellScheme.reaching(4.0 / R)
    conf = chart.chart(n)
    cut = chart.cutoff
    p_star = constants.p_star
    pbar = 2.0 * Q / (Q + 2.0 * constants.k)
    c_prof = chart.profile_factor
    expo = 1.0 / p_star

    # the weak limit must be an exact critical point for L(A) = A^{p*-1}
    resid_inf = prob.residual(spec.u_infty)
    weak = (spec.u_infty.evaluator(),)  # its live terms, taken once per report

    def G_fn(z, t):
        live, z, t, h, moving, beta, lam, (u,) = _transported_nodes(chart, conf, z, t, 0.02, weak)
        A = lam**expo * u
        # L(beta c om) = beta c om^3 + c om L(beta) + c H(beta, om), L = -Delta_b;
        # one flow stencil gives Delta_b beta and the X/Y derivatives of beta,
        # all exactly 0 where beta = 1 on the whole stencil
        grad = {"X": np.zeros(t.shape), "Y": np.zeros(t.shape)}
        lap_beta = np.zeros(t.shape)
        if moving.any():
            zs, ts, hm, bm0 = _restrict(moving, z, t, h, beta)
            lap = np.zeros(hm.shape)
            for kind, (zp, tp), (zm, tm) in _flow_stencil(zs, ts, hm):
                bp, bm = cut.value(conf.map_zt(zp, tp)), cut.value(conf.map_zt(zm, tm))
                lap = lap + (bp + bm - 2.0 * bm0)
                grad[kind][moving] = (bp - bm) / (2.0 * hm)
            lap_beta[moving] = lap / (4.0 * hm * hm)
        om = bubble_shape_zt(z, t, constants)
        gx_om, gy_om = bubble_horizontal_gradient_zt(z, t, constants)
        cross = -0.5 * (grad["X"] * gx_om + grad["Y"] * gy_om)
        L_betaU = c_prof * (beta * om**3 - om * lap_beta + cross)
        W = A + c_prof * beta * om
        # beta = 0 on the whole stencil of the other nodes: L(beta c om) = 0 and
        # W = A there, so G = A^3 - A^3 = 0
        G = np.zeros(live.shape)
        G[live] = A**3 + L_betaU - W**3
        return G

    ub_int, _ = integrate_decaying(lambda z, t: np.abs(G_fn(z, t)) ** pbar, 1, scheme)
    upper = ub_int ** (1.0 / pbar)

    wit_pair, _ = integrate_decaying(lambda z, t: G_fn(z, t) * _witness(z, t), 1, _WITNESS_SCHEME)
    lower = abs(wit_pair) / _witness_norm(constants)

    u_n = ps_term(spec, n, prob)
    spectral = prob.residual(u_n)
    return {
        "n": n,
        "R_n": R,
        "residual_upper": float(upper),
        "residual_lower": float(lower),
        "residual_spectral": float(spectral),
        "residual_weak_limit": float(resid_inf),
    }


def gradient_decay_check(spec: PSSequenceSpec, n_list: Sequence[int], prob: YamabeProblem) -> dict:
    """Residual ladder with a trend verdict.

    ``decays`` asserts a 10x drop of the transported residual bound between
    the first and last rung; the negative control (a profile that is not a
    solution) is flagged when the lower bound stays within a factor two of
    its first-rung value.
    """
    rows = [residual_report(spec, n, prob) for n in n_list]
    first, last = rows[0], rows[-1]
    decays = last["residual_upper"] <= 0.1 * first["residual_upper"]
    stagnates = last["residual_lower"] >= 0.5 * first["residual_lower"]
    return {"rows": rows, "decays": bool(decays), "stagnates": bool(stagnates)}


# ---------------------------------------------------------------------------
# preconditioned descent below the compactness threshold


def hk_gradient_flow(u_start: SpectralFunction, prob: YamabeProblem, max_iter: int = 400) -> dict:
    """u <- u - tau A_{2k}^{-1} dE(u) with Armijo backtracking from tau = 0.9.

    The preconditioner is diagonal in the basis, so each step is exact; the
    descent quantity is the squared dual norm of the gradient.  The flow has
    converged to zero once the H^k norm falls below 1e-5.
    """
    constants = prob.constants
    mult = prob.basis.multipliers(constants.k)
    u = u_start
    rows = []
    status = "budget_exhausted"
    for it in range(max_iter):
        g = prob.gradient(u)
        dual_sq = h_minus_k_form(g.coeffs, mult)
        E0 = prob.energy(u)
        rows.append({"iter": it, "energy": E0, "hk_norm": norm_Hk(u, constants.k), "residual": math.sqrt(dual_sq)})
        if norm_Hk(u, constants.k) < 1e-5:
            status = "converged_to_zero"
            break
        if math.sqrt(dual_sq) < 1e-12:
            status = "stationary"
            break
        step = 0.9
        accepted = False
        for _ in range(40):
            trial = SpectralFunction(u.coeffs - step * g.coeffs / mult, prob.basis)
            if prob.energy(trial) <= E0 - 1e-4 * step * dual_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            status = "line_search_failed"
            break
        u = trial
    final_norm = norm_Hk(u, constants.k)
    if status == "budget_exhausted" and final_norm < 1e-5:
        status = "converged_to_zero"
    return {"status": status, "final": u, "final_norm": final_norm, "rows": rows}


def subcritical_threshold_check(u_start: SpectralFunction, prob: YamabeProblem, energy_cap_frac: float = 1.0) -> dict:
    """Run the preconditioned flow from data below the bubble energy level."""
    E0 = prob.energy(u_start)
    cap = energy_cap_frac * prob.constants.C_E
    report = hk_gradient_flow(u_start, prob)
    report["initial_energy"] = E0
    report["below_threshold"] = bool(E0 < cap)
    return report


# ---------------------------------------------------------------------------
# three-term commutator


def three_commutator(u, v, p: HeisPoint) -> float:
    """H(u, v) = L(uv) - u L v - v L u at a point, for the local operator L = -Delta_b of k = 1.

    Both sides of the identity with :func:`commutator_identity_value` take the
    default finite-difference step of :mod:`heisenberg`.
    """
    z, t = p.z, np.asarray(p.t)
    prod = lambda zz, tt: np.asarray(u(zz, tt)) * np.asarray(v(zz, tt))
    val = (
        -sub_laplacian(prod, z, t)
        + np.asarray(u(z, t)) * sub_laplacian(v, z, t)
        + np.asarray(v(z, t)) * sub_laplacian(u, z, t)
    )
    return float(val)


def commutator_identity_value(u, v, p: HeisPoint) -> float:
    """-(1/2) (X u X v + Y u Y v) at a point (the k = 1 closed form)."""
    z, t = p.z, np.asarray(p.t)
    xx = vector_field("X", u, z, t) * vector_field("X", v, z, t)
    yy = vector_field("Y", u, z, t) * vector_field("Y", v, z, t)
    return -0.5 * float(xx + yy)
