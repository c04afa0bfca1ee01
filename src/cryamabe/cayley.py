"""Cayley transform between H^1 and the punctured unit sphere S^3 of C^2.

Group points are (z, t) with z complex (see :mod:`cryamabe.heisenberg`);
sphere points are arrays zeta of shape (..., 2).  The sphere carries the
quasi-distance d(zeta, eta)^2 = 2 |1 - <zeta, eta>|.  The transform used here
is

    C(z, t) = ( 2 z / P,  (1 - |z|^2 + i t) / P ),   P = 1 + |z|^2 - i t,

which maps the origin to (0, 1), misses exactly the pole (0, -1), and
satisfies

    d(C(w), C(w')) = d(w, w') * (4 / |P|^2)^{1/4} * (4 / |P'|^2)^{1/4}

with the left-invariant Koranyi distance on the group side.  (The sign of t
inside P is the unique choice consistent with the group law convention used in
:mod:`cryamabe.heisenberg`.)  The conformal volume factor is

    Lambda_C = 2^Q / ((1 + |z|^2)^2 + t^2)^2,   Q = 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, PoleError
from .heisenberg import Q, Array, HeisPoint, _sum_last, dilate_zt, inv_zt, mul_zt

POLE_TOL = 1e-6
# the one sphere point that no group point maps to
POLE = np.array([0.0, -1.0], dtype=np.complex128)
POLE.setflags(write=False)


# ---------------------------------------------------------------------------
# the transform and its conformal factor (array kernels)


def cayley_zt(z: Array, t: Array) -> Array:
    P = 1.0 + (z * np.conj(z)).real - 1.0j * t
    zeta = np.empty(P.shape + (2,), dtype=np.complex128)
    np.divide(2.0 * z, P, out=zeta[..., 0])
    np.divide(2.0 - P, P, out=zeta[..., 1])
    return zeta


def cayley_inv_zeta(zeta: Array) -> tuple[Array, Array]:
    denom = 1.0 + zeta[..., 1]
    if np.any(np.abs(denom) < POLE_TOL):
        raise PoleError("point within pole tolerance of (0, -1)")
    P = 2.0 / denom
    z = np.multiply(zeta[..., 0], P / 2.0)  # as a function call, never in place: see hermitian_im
    t = -P.imag
    return z, np.asarray(t, dtype=np.float64)


def lambda_cayley_zt(z: Array, t: Array) -> Array:
    D = (1.0 + (z * np.conj(z)).real) ** 2 + t * t
    return (2.0**Q) / D**2


def sphere_dist_zeta(a: Array, b: Array) -> Array:
    inner = _sum_last(a * np.conj(b))
    return np.sqrt(2.0 * np.abs(1.0 - inner))


def cayley_inv(zeta: Array) -> HeisPoint:
    """Group point of a single sphere point; see :func:`cayley_inv_zeta`."""
    z, t = cayley_inv_zeta(np.asarray(zeta, dtype=np.complex128))
    return HeisPoint(z, float(t))


# ---------------------------------------------------------------------------
# conformal charts: Cayley composed with a translation and a dilation


@dataclass(frozen=True)
class ConformalChart:
    """rho(w) = C(center . d_scale(w)), the chart used for concentration analysis.

    A chart written as C o d_R o tau_xi is this one with center d_R(xi):
    dilations are group automorphisms.
    """

    center: HeisPoint
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise DomainError("chart scale must be positive")

    # --- forward map and jacobian -----------------------------------------

    def map_zt(self, z: Array, t: Array) -> Array:
        zd, td = dilate_zt(self.scale, z, t)
        zm, tm = mul_zt(self.center.z, self.center.t, zd, td)
        return cayley_zt(zm, tm)

    def jacobian_zt(self, z: Array, t: Array) -> Array:
        """Lambda_rho = Lambda_C(center . d_R w) * R^Q by the chain rule."""
        zd, td = dilate_zt(self.scale, z, t)
        zm, tm = mul_zt(self.center.z, self.center.t, zd, td)
        return lambda_cayley_zt(zm, tm) * self.scale**Q

    # --- inverse map --------------------------------------------------------

    def inv_zeta(self, zeta: Array) -> tuple[Array, Array]:
        zc, tc = cayley_inv_zeta(zeta)
        zs, ts = mul_zt(*inv_zt(self.center.z, np.asarray(self.center.t)), zc, tc)
        return dilate_zt(1.0 / self.scale, zs, ts)


# ---------------------------------------------------------------------------
# conformal transport of functions


def conformal_pullback(u: Callable[[Array], Array], chart: ConformalChart, k: float):
    """Pull a sphere function back to H^1 with the (Q-2k)/2Q conformal weight.

    Returns a vectorized field (z, t) -> Lambda_rho^{(Q-2k)/2Q} * u(rho(z, t)).
    ``u`` receives a (..., 2) array of sphere points.
    """
    expo = (Q - 2.0 * k) / (2.0 * Q)

    def field(z: Array, t: Array) -> Array:
        return chart.jacobian_zt(z, t) ** expo * np.asarray(u(chart.map_zt(z, t)))

    return field


def conformal_pushforward(U: Callable[[Array, Array], Array], chart: ConformalChart, k: float):
    """Push a Heisenberg function to the sphere: Lambda_sigma^{(Q-2k)/2Q} * (U o sigma).

    sigma = rho^{-1}, so Lambda_sigma = 1 / (Lambda_rho o sigma): one inverse
    chart map serves both factors.
    """
    expo = (Q - 2.0 * k) / (2.0 * Q)

    def fn(zeta: Array) -> Array:
        z, t = chart.inv_zeta(np.asarray(zeta, dtype=np.complex128))
        return (1.0 / chart.jacobian_zt(z, t)) ** expo * np.asarray(U(z, t))

    return fn
