"""Critical-exponent energies, sharp constants, bubbles, and calibrated solutions.

The sphere-side functional is

    E(u) = 1/2 int u A_{2k} u dv_S - 1/p* int |u|^{p*} dv_S,  p* = 2Q/(Q-2k),

with Euler-Lagrange equation A_{2k} u = |u|^{p*-2} u.  Its Heisenberg twin
E_H is evaluated on the group at k = 1, where the operator is -Delta_b.  The
extremal profile on the group side is

    omega(z, t) = cQ / ((1+|z|^2)^2 + t^2)^{(Q-2k)/4},

and cQ = 2^{(Q-2k)/2} u0 makes omega exactly the conformal image of the
positive constant solution u0 = lam_0(k)^{(Q-2k)/(2k)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cayley import ConformalChart, conformal_pullback, lambda_cayley_zt
from .errors import DomainError
from .heisenberg import (
    KAPPA_H,
    Q,
    Array,
    HeisPoint,
    ShellScheme,
    _flow_stencil,
    _gauge_sq_power,
    _only_h1,
    dilate_zt,
    gauge_zt,
    inv_zt,
    integrate_decaying,
    mul_zt,
)
from .spectral import (
    SPHERE_MASS,
    HarmonicBasis,
    SphereQuadrature,
    SpectralFunction,
    analyze,
    apply_A2k,
    build_basis,
    constant_function,
    hk_form,
    lambda_jk,
    norm_H_minus_k,
    total_sphere_mass,
)


def p_star(k: float) -> float:
    if not (0 < 2 * k < Q):
        raise DomainError(f"need 0 < 2k < Q = {Q}, got k = {k}")
    return 2.0 * Q / (Q - 2.0 * k)


def lambda0(N: int, k: float) -> float:
    return lambda_jk(0, k, 2 * N + 2)


def sobolev_constant(N: int, k: float) -> float:
    """Sharp constant of the fractional Sobolev inequality on S^{2N+1}.

    Equals lam_0(k)^{-2} * total_mass^{-2k/Q}; the Gamma-quotient form
    Gamma((N+1-k)/2)^2 / Gamma((N+1+k)/2)^2 * (mass)^{-2k/Q} is identical
    because (Q +- 2k)/4 = (N+1 +- k)/2.
    """
    Q = 2 * N + 2
    if not (0 < 2 * k < Q):
        raise DomainError(f"need 0 < 2k < Q = {Q}, got k = {k}")
    gammas = math.exp(2.0 * (math.lgamma((N + 1 - k) / 2.0) - math.lgamma((N + 1 + k) / 2.0)))
    return gammas * total_sphere_mass(N) ** (-2.0 * k / Q)


def constant_solution(k: float) -> float:
    """The positive constant u0 on S^3 with A_{2k} u0 = u0^{p*-1}: lam_0^{(Q-2k)/2k}."""
    return lambda0(1, k) ** ((Q - 2.0 * k) / (2.0 * k))


@dataclass(frozen=True)
class YamabeConstants:
    """All normalization-dependent constants for one k, on S^3 and H^1 (Q = ``heisenberg.Q``).

    The sphere's mass is ``spectral.SPHERE_MASS`` and the group's volume form
    ``heisenberg.KAPPA_H`` times Lebesgue measure.
    """

    k: float
    p_star: float
    C_S: float
    C_E: float
    u0: float
    cQ: float

    @staticmethod
    def create(k: float) -> "YamabeConstants":
        ps = p_star(k)
        cs = sobolev_constant(1, k)
        ce = (k / Q) * cs ** (-Q / (2.0 * k))
        u0 = constant_solution(k)
        cq = 2.0 ** ((Q - 2.0 * k) / 2.0) * u0
        return YamabeConstants(k=float(k), p_star=ps, C_S=cs, C_E=ce, u0=u0, cQ=cq)

    def __post_init__(self):
        if not (0 < 2 * self.k < Q):
            raise DomainError(f"need 0 < 2k < Q = {Q}, got k = {self.k}")
        expect = (self.k / Q) * self.C_S ** (-Q / (2 * self.k))
        if abs(self.C_E - expect) > 1e-12 * abs(expect):
            raise DomainError("C_E is not (k/Q) C_S^{-Q/2k}")


# ---------------------------------------------------------------------------
# bubbles


@dataclass(frozen=True)
class BubbleParams:
    """Scale and center of the extremal family on the group side."""

    lam: float
    xi: HeisPoint

    def __post_init__(self):
        if not self.lam > 0:
            raise DomainError("bubble scale must be positive")


def bubble_shape_zt(z: Array, t: Array, constants: YamabeConstants) -> Array:
    D = (1.0 + (z * np.conj(z)).real) ** 2 + t * t
    return constants.cQ * D ** (-(Q - 2.0 * constants.k) / 4.0)


def bubble_eval_zt(params: BubbleParams, z: Array, t: Array, constants: YamabeConstants) -> Array:
    """omega_{lam, xi}(w) = lam^{(2k-Q)/2} omega(d_{1/lam}(xi^{-1} w))."""
    zi, ti = mul_zt(*inv_zt(params.xi.z, np.asarray(params.xi.t)), z, t)
    zs, ts = dilate_zt(1.0 / params.lam, zi, ti)
    amp = params.lam ** ((2.0 * constants.k - Q) / 2.0)
    return amp * bubble_shape_zt(zs, ts, constants)


def bubble_field(params: BubbleParams, constants: YamabeConstants):
    return lambda z, t: bubble_eval_zt(params, z, t, constants)


def bubble_horizontal_gradient_zt(z: Array, t: Array, constants: YamabeConstants):
    """Closed-form X omega and Y omega for the centered unit bubble, each of the shape of the points."""
    A = 1.0 + (z * np.conj(z)).real
    D = A**2 + t * t
    expo = -(Q - 2.0 * constants.k) / 4.0
    pref = constants.cQ * expo * D ** (expo - 1.0)
    x, y = z.real, z.imag
    XD = 4.0 * (A * x + y * t)
    YD = 4.0 * (A * y - x * t)
    return pref * XD, pref * YD


# ---------------------------------------------------------------------------
# the sphere-side problem bundle


_BASIS_CACHE: dict[tuple[int, int], HarmonicBasis] = {}


def cached_basis(jmax: int, lmax: int | None = None) -> HarmonicBasis:
    lmax = jmax if lmax is None else lmax
    key = (jmax, lmax)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = build_basis(jmax, lmax)
    return _BASIS_CACHE[key]


@dataclass
class YamabeProblem:
    """Constants, basis and quadrature wired together for one configuration."""

    constants: YamabeConstants
    basis: HarmonicBasis
    quad: SphereQuadrature

    @staticmethod
    def build(
        N: int = 1,
        k: float = 1.0,
        jmax: int = 8,
        lmax: int | None = None,
        quad_degree: int | None = None,
        seed: int = 0,
    ) -> "YamabeProblem":
        """Constants, the cached basis and the sphere quadrature of S^3.

        The quadrature rule is deterministic, so ``seed`` does not change the
        problem, and ``N`` must be 1, refused otherwise before any work; the
        benchmark still passes both.
        """
        _only_h1(N)
        constants = YamabeConstants.create(k)
        basis = cached_basis(jmax, lmax)
        if quad_degree is None:
            quad_degree = 4 * (basis.jmax + basis.lmax)
        quad = SphereQuadrature.build(quad_degree)
        return YamabeProblem(constants, basis, quad)

    # --- elementary spectral objects ---------------------------------------

    def constant(self, value: float) -> SpectralFunction:
        return constant_function(value, self.basis)

    def ground_constant(self) -> SpectralFunction:
        return self.constant(self.constants.u0)

    def analyze(self, values: Array) -> SpectralFunction:
        return analyze(values, self.quad, self.basis)

    def values(self, u: SpectralFunction) -> Array:
        """Read-only values of u on the quadrature, synthesized once per coefficient vector.

        The values stay with u, keyed on this quadrature and basis and checked
        against a copy of the coefficients, so an in-place write to
        ``u.coeffs`` or another problem's quadrature synthesizes afresh.
        """
        memo = u._values_memo
        if memo is not None and memo[0] is self.quad and memo[1] is self.basis and np.array_equal(memo[2], u.coeffs):
            return memo[3]
        vals = self.quad.synthesize_values(u.coeffs, self.basis)
        vals.flags.writeable = False
        u._values_memo = (self.quad, self.basis, u.coeffs.copy(), vals)
        return vals

    # --- energy, gradient, quotients ----------------------------------------

    def lp_star_mass(self, u: SpectralFunction) -> float:
        vals = self.values(u)
        return self.quad.integrate(_gauge_sq_power(vals * vals, self.constants.p_star))

    def energy(self, u: SpectralFunction) -> float:
        quadratic = hk_form(u.coeffs, self.basis.multipliers(self.constants.k))
        return 0.5 * quadratic - self.lp_star_mass(u) / self.constants.p_star

    def gradient(self, u: SpectralFunction) -> SpectralFunction:
        """dE(u) = A_{2k} u - |u|^{p*-2} u projected on the working truncation."""
        vals = self.values(u)
        nl = _gauge_sq_power(vals * vals, self.constants.p_star - 2.0) * vals
        nl_spec = analyze(nl, self.quad, self.basis)
        g = apply_A2k(u, self.constants.k).coeffs - nl_spec.coeffs
        return SpectralFunction(g, self.basis, tail_energy=nl_spec.tail_energy)

    def residual(self, u: SpectralFunction) -> float:
        return norm_H_minus_k(self.gradient(u), self.constants.k)

    def sobolev_quotient(self, u: SpectralFunction) -> float:
        nsq = hk_form(u.coeffs, self.basis.multipliers(self.constants.k))
        if nsq == 0.0:
            raise DomainError("Sobolev quotient of the zero function")
        mass = self.lp_star_mass(u)
        return mass ** (2.0 / self.constants.p_star) / nsq


# ---------------------------------------------------------------------------
# Heisenberg-side energy


def _dirichlet_step(z, t, h_factor: float = 0.01) -> Array:
    """Default stencil step of :func:`_dirichlet_density`, h_factor * (1 + gauge)."""
    return h_factor * (1.0 + gauge_zt(z, t))


def _dirichlet_density(U, z, t, h=None, h_factor: float = 0.01) -> Array:
    """1/4 ((X U)^2 + (Y U)^2) at (z, t) by the exact-flow central stencil.

    The step is ``h`` or, by default, ``h_factor * (1 + gauge)``: it scales
    with the gauge, so far shells stay accurate.
    """
    step = h if h is not None else _dirichlet_step(z, t, h_factor)
    acc = np.zeros(t.shape)
    for _, (zp, tp), (zm, tm) in _flow_stencil(z, t, step):
        d = (np.asarray(U(zp, tp)) - np.asarray(U(zm, tm))) / (2.0 * step)
        acc += d * d
    return 0.25 * acc


def dirichlet_form(
    U,
    constants: YamabeConstants,
    scheme: ShellScheme,
    h: float | None = None,
    h_factor: float = 0.01,
) -> float:
    """int U (-Delta_b U) dv_H as 1/4 (||X U||^2 + ||Y U||^2).

    First derivatives use the exact-flow central stencil with a step that
    scales with the gauge, so far shells stay accurate.
    """
    val, _ = integrate_decaying(lambda z, t: _dirichlet_density(U, z, t, h, h_factor), 1, scheme)
    return val


def energy_heis(
    U,
    constants: YamabeConstants,
    *,
    scheme: ShellScheme | None = None,
    center: HeisPoint | None = None,
) -> float:
    """E_H(U) = 1/2 int U L U dv_H - 1/p* int |U|^{p*} dv_H for the local operator L = -Delta_b of k = 1.

    The Dirichlet form (the density of :func:`dirichlet_form`) and the
    p*-mass are integrated directly on the group, as two stacked rows of one
    shell walk.  Other k are refused before any walk; their energies live on
    the sphere (:meth:`YamabeProblem.energy`).
    """
    if abs(constants.k - 1.0) > 1e-14:
        raise DomainError("the group-side energy needs the local operator, k = 1")
    (quadratic, mass), _ = integrate_decaying(
        lambda z, t: np.stack([_dirichlet_density(U, z, t), np.abs(np.asarray(U(z, t))) ** constants.p_star]),
        1,
        scheme or ShellScheme(),
        center=center,
    )
    return 0.5 * quadratic - mass / constants.p_star


# ---------------------------------------------------------------------------
# calibration


def calibrate_normalizations(constants: YamabeConstants) -> dict:
    """Numerically confirm the normalization triple (kappa_H, dv_S mass, cQ).

    Fits kappa_H from the change-of-variables identity applied to f == 1,
    integrated over 7 shells, and reports the pointwise match between the
    transported constant solution and the bubble profile.
    """
    # the Lebesgue integral: the dv_H walk divided by KAPPA_H, exactly (a power of two)
    lam_integral, shells = integrate_decaying(
        lambda z, t: np.ones_like(t) * lambda_cayley_zt(z, t), 1, ShellScheme(n_shells=7)
    )
    lam_integral /= KAPPA_H
    shells = [s / KAPPA_H for s in shells]
    kappa_fit = SPHERE_MASS / lam_integral
    origin = HeisPoint(0.0, 0.0)
    field = conformal_pullback(
        lambda zeta: np.full(zeta.shape[:-1], constants.u0), ConformalChart(origin, 1.0), constants.k
    )
    rng = np.random.default_rng(3)
    z = rng.normal(size=64) + 1.0j * rng.normal(size=64)
    t = rng.normal(size=64) * 2.0
    transported = field(z, t)
    direct = bubble_eval_zt(BubbleParams(1.0, origin), z, t, constants)
    cq_match = float(np.max(np.abs(transported - direct) / np.abs(direct)))
    return {
        "kappa_fit": float(kappa_fit),
        "kappa_closed_form": KAPPA_H,
        "kappa_rel_err": abs(kappa_fit - KAPPA_H) / KAPPA_H,
        "mass_closed_form": SPHERE_MASS,
        "bubble_constant_rel_err": cq_match,
        "lambda_shells": shells,
    }
