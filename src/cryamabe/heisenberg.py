"""Heisenberg group algebra, Koranyi metric, left-invariant derivatives, volume quadrature.

Points of the group H^1 are pairs (z, t) with z complex and t real.  The group
law is

    (z, t) . (z', t') = (z + z', t + t' + 2 Im(z conj(z'))),

anisotropic dilations are d_lam(z, t) = (lam z, lam^2 t), and the homogeneous
dimension is Q = 4.  All numerical kernels are vectorized: z and t are arrays
of the same shape, one entry per point, and broadcast against each other.

Integrals over all of H^1 run on nested Koranyi shells (:class:`ShellScheme`).
The shell loop exists once, as the block walker :func:`shell_nodes`; the
quadrature :func:`integrate_decaying`, the PV operator and the far field of
iterated convolutions in :mod:`riesz` all walk it.  An integrand may return
several stacked rows, so integrals that share their expensive inputs (chart
maps, Jacobians, cutoffs, stencil values) are accumulated in one walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DivergentIntegralError, DomainError

Array = np.ndarray

# homogeneous dimension of H^1
Q = 4
# theta ^ dtheta = 4 dx dy dt: the contact volume form on H^1 against Lebesgue
# measure.  Haar measure on a homogeneous group is Lebesgue measure up to one
# constant (Folland and Stein, Hardy Spaces on Homogeneous Groups, 1982, ch. 1),
# so dv_H is this constant times Lebesgue everywhere; a Lebesgue integral is a
# dv_H integral divided by it, exactly, since it is a power of two.  The whole
# calibration triple (Haar constant, sphere volume mass, conformal factor) is
# pinned by the change-of-variables identity and verified numerically in the
# tests.
KAPPA_H = 4.0


def _only_h1(N) -> None:
    """Refuse an N other than 1 for the signatures that still take one."""
    if N != 1:
        raise DomainError(f"the group is H^1, got N = {N!r}")


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class HeisPoint:
    """A point (z, t) of H^1; z is held as a 0-d complex array."""

    z: Array
    t: float

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.complex128)
        if z.size != 1:
            raise DomainError(f"a point of H^1 has one complex coordinate, got {z.size}")
        z = z.reshape(())
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", float(self.t))
        if not (np.isfinite(z) and math.isfinite(self.t)):
            raise DomainError("HeisPoint components must be finite")


def _sum_last(a: Array) -> Array:
    """Sum over the short last axis (the coordinates of a sphere point zeta), one component at a time.

    Starts from +0.0 as np.sum does, so for axes of length <= 3 it is bitwise
    equal to np.sum(a, axis=-1), which spends most of its time in reduction
    set-up on such short axes.
    """
    s = 0.0 + a[..., 0]
    for j in range(1, a.shape[-1]):
        s = s + a[..., j]
    return s


def hermitian_im(z1: Array, z2: Array) -> Array:
    """Im(z1 conj(z2)).

    Called as a function, np.multiply never reuses the temporary conj(z2) for
    its output.  With ``*``, numpy does so for a 0-d z1 (a point such as a
    chart centre) once conj(z2) passes 256 KiB, and that in-place loop rounds
    differently from the out-of-place one: the value would depend on the
    length of the block.
    """
    return np.multiply(z1, np.conj(z2)).imag


# array kernels ------------------------------------------------------------


def mul_zt(z1: Array, t1: Array, z2: Array, t2: Array) -> tuple[Array, Array]:
    return z1 + z2, t1 + t2 + 2.0 * hermitian_im(z1, z2)


def inv_zt(z: Array, t: Array) -> tuple[Array, Array]:
    return -z, -t


def dilate_zt(lam: float, z: Array, t: Array) -> tuple[Array, Array]:
    return lam * z, lam * lam * t


def gauge_zt(z: Array, t: Array) -> Array:
    """Koranyi gauge (|z|^4 + t^2)^(1/4), computed as sqrt(hypot(|z|^2, t))."""
    return np.sqrt(np.hypot((z * np.conj(z)).real, t))


def dist_zt(z1: Array, t1: Array, z2: Array, t2: Array) -> Array:
    """Left-invariant Koranyi distance, gauge(q^{-1} . p)."""
    zi, ti = mul_zt(*inv_zt(z2, t2), z1, t1)
    return gauge_zt(zi, ti)


def _int_power(x: Array, n: int) -> Array:
    if n < 0:
        return 1.0 / _int_power(x, -n)
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return np.ones_like(x) if out is None else out


def _gauge_sq_power(gauge_sq: Array, e: float) -> Array:
    """gauge^e from gauge^2, with multiply-only paths for (half-)integer e.

    Any |x|^e from x^2 alike: the kernels of ``riesz`` take gauge powers, and
    ``YamabeProblem.lp_star_mass`` and ``gradient`` take |u|^{p*} and
    |u|^{p*-2} from u^2 (u^4 and u^2 at k = 1).
    """
    half = e / 2.0
    if half == int(half):
        return _int_power(gauge_sq, int(half))
    if e == int(e):
        # e = 2h + 1: gauge^e = gauge * (gauge^2)^h
        h = (int(e) - 1) // 2
        root = np.sqrt(gauge_sq)
        return root / _int_power(gauge_sq, -h) if h < 0 else root * _int_power(gauge_sq, h)
    return gauge_sq**half


# ---------------------------------------------------------------------------
# left-invariant derivatives


def vector_field(which: str, f, z, t, h: float = 1e-4) -> Array:
    """Apply X, Y or T by a central difference along the exact flow.

    The flow of a left-invariant field is right group multiplication, so the
    stencil points are p.(±h, 0), p.(±ih, 0) or p.(0, ±h); left invariance
    holds to rounding error by construction.  ``which`` is "X", "Y" or "T".
    """
    z = np.asarray(z, dtype=np.complex128)
    t = np.asarray(t, dtype=np.float64)
    hh = np.asarray(h, dtype=np.float64)
    if which == "T":
        return (np.asarray(f(z, t + hh)) - np.asarray(f(z, t - hh))) / (2.0 * hh)
    for kind, (zp, tp), (zm, tm) in _flow_stencil(z, t, hh):
        if kind == which:
            return (np.asarray(f(zp, tp)) - np.asarray(f(zm, tm))) / (2.0 * hh)
    raise DomainError(f"unknown vector field {which!r}")


def _flow_stencil(z: Array, t: Array, h):
    """Yield (kind, (z+, t+), (z-, t-)): the points p.(+-h, 0) of X and p.(+-ih, 0) of Y.

    ``h`` is a scalar or one step per point.  These are the central-difference
    points of every horizontal derivative in the package, so a caller that
    needs several derivatives of one field evaluates it once per point.  With
    a zero t-offset the group law reads p.(+-h, 0) = (z +- h, t +- 2 h y) and
    p.(+-ih, 0) = (z +- ih, t -+ 2 h x), equal to the general :func:`mul_zt`.
    """
    hh = np.asarray(h, dtype=np.float64)
    x, y = z.real, z.imag
    for kind, step, dt in (("X", hh, 2.0 * hh * y), ("Y", 1j * hh, -2.0 * hh * x)):
        yield kind, (z + step, t + dt), (z - step, t - dt)


# rounding allowance of _stencil_settled, in the units of its distances: far
# above the rounding of a distance between points of the unit sphere (about
# 1e-15) and far below the slack of the bound itself
_SETTLE_MARGIN = 1e-9


def _stencil_settled(d: Array, reach: Array, inner: float, outer: float) -> tuple[Array, Array]:
    """Masks (inside, outside) of the nodes whose whole flow stencil stays within ``inner``, or beyond ``outer``, of a centre.

    Each point p.(+-h e, 0) of :func:`_flow_stencil` lies at Koranyi distance
    h from p.  If a map stretches Koranyi distances by at most a factor s into
    a metric with the triangle inequality, and ``d`` is the distance of the
    image of p from a centre, then the images of its stencil points lie at
    distances within d +- ``reach`` from it, where reach = s h.  A function of
    that distance which is constant on [0, inner] and on [outer, oo) is then
    constant on the whole stencil of an ``inside`` or ``outside`` node.
    """
    inside = d + reach + _SETTLE_MARGIN <= inner
    outside = d - reach - _SETTLE_MARGIN >= outer
    return inside, outside


def sub_laplacian(f, z, t, h: float = 1e-4) -> Array:
    """Delta_b f = (1/4) (X^2 + Y^2) f by second differences along flows."""
    z = np.asarray(z, dtype=np.complex128)
    t = np.asarray(t, dtype=np.float64)
    hh = np.asarray(h, dtype=np.float64)
    f0 = np.asarray(f(z, t))
    acc = np.zeros_like(f0)
    for _, (zp, tp), (zm, tm) in _flow_stencil(z, t, hh):
        acc = acc + (np.asarray(f(zp, tp)) + np.asarray(f(zm, tm)) - 2.0 * f0)
    return acc / (4.0 * hh * hh)


# ---------------------------------------------------------------------------
# volume form and quadrature


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box in (x, y, t) coordinates."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DomainError("box bounds must have equal length")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @staticmethod
    def koranyi(N: int, L: float) -> "BoxDomain":
        # anisotropic box [-L, L]^2 x [-L^2, L^2]; centering is applied by
        # left translation in the quadrature, not by shifting the bounds.
        # N must be 1 (the benchmark still passes it)
        _only_h1(N)
        return BoxDomain((-L, -L, -L * L), (L, L, L * L))


def _box_grid(box: BoxDomain, resolution) -> tuple[list[Array], float]:
    dim = box.dim
    res = (resolution,) * dim if np.isscalar(resolution) else tuple(resolution)
    if len(res) != dim or any(int(r) <= 0 for r in res):
        raise DomainError(f"resolution must be {dim} positive integers")
    axes, cell = [], 1.0
    for lo, hi, n in zip(box.lo, box.hi, res):
        n = int(n)
        h = (hi - lo) / n
        axes.append(lo + h * (np.arange(n) + 0.5))
        cell *= h
    return axes, cell


def koranyi_ball_volume(radius: float) -> float:
    """dv_H volume of a Koranyi ball, kappa_H (pi^2 / 2) R^Q.

    The Lebesgue volume of {|z|^4 + t^2 <= 1} is int_{|z| <= 1} 2 sqrt(1 - |z|^4) dz,
    which in polar coordinates and u = |z|^2 is 2 pi int_0^1 sqrt(1 - u^2) du = pi^2 / 2.
    """
    return KAPPA_H * (math.pi**2 / 2) * radius**Q


# ---------------------------------------------------------------------------
# nested-shell quadrature for decaying integrands


@dataclass(frozen=True)
class ShellScheme:
    """Geometric ladder of Koranyi-adapted boxes for integrands decaying at infinity.

    Boxes are [-L, L]^2 x [-L^2, L^2] with L doubling per shell; doubling
    keeps inner-box faces aligned with outer-shell cell boundaries, so the
    midpoint rule never splits a cell across the shell interface.
    """

    l0: float = 1.5
    n_shells: int = 5
    n_inner: int = 64
    n_shell: int = 48

    def __post_init__(self):
        if self.n_shell % 4 or self.n_inner <= 0 or self.n_shells < 1 or self.l0 <= 0:
            raise DomainError("need n_shell % 4 == 0, positive sizes")

    @staticmethod
    def reaching(l_max: float) -> "ShellScheme":
        """The default scheme with as many shells as it takes for the outermost box to reach l_max."""
        n = 1
        L = ShellScheme.l0
        while L < l_max:
            L *= 2.0
            n += 1
        return ShellScheme(n_shells=n)


# nodes per block of a shell walk.  integrate_decaying sums each shell block
# by block, so its values depend on this grouping; riesz's far field and PV
# operator take whole blocks and chunk their own work arrays
_WALK_BLOCK = 1 << 15
# nodes per call of an integrand of integrate_decaying.  A transported
# integrand's temporaries (chart images, stencil points, cutoffs) over a whole
# walk block take about 7 MB, which malloc returned to the kernel on free and
# each call faulted in afresh: about 100k minor page faults per
# transport-ladder pass.  At 2^13 nodes they stay in reused heap (4k-9k
# faults); BENCH_13.json has the sweep
_SUB_BLOCK = 1 << 13


def shell_nodes(scheme: ShellScheme, center: HeisPoint | None = None) -> Iterator[tuple[int, Array, Array, float]]:
    """Walk the nested Koranyi shells of ``scheme``: yield (shell_index, z, t, cell_weight).

    Shell 0 is the midpoint grid of the box of half-width l0 with n_inner
    nodes per axis; shell i > 0 is the n_shell grid of the box of half-width
    l0 * 2^i with the nodes of the previous box removed.  Nodes come in blocks
    of at most 2^15, in the row-major (x, y, t) order of each shell's full
    grid, so a caller's work arrays have a fixed bound whatever the shell
    size.  t is the fastest axis: within a block the nodes of one grid
    column (fixed z) are consecutive, with t increasing.
    ``cell_weight`` is the Lebesgue volume of the shell's cells, and with
    ``center`` the nodes are left-translated to center . (z, t).  A block is
    cut from the broadcast of the shell's z = x + i y plane over t on the
    x-slabs it touches, so no node index is formed.
    """
    L = scheme.l0
    for i in range(scheme.n_shells):
        n = scheme.n_inner if i == 0 else scheme.n_shell
        (x, y, t_ax), cell = _box_grid(BoxDomain.koranyi(1, L), n)
        plane = (x[:, None] + 1.0j * y)[:, :, None]
        if i > 0:
            Lin = L / 2.0
            inner = (np.abs(x) <= Lin)[:, None, None] & (np.abs(y) <= Lin)[:, None] & (np.abs(t_ax) <= Lin * Lin)
        for start in range(0, n**3, _WALK_BLOCK):
            stop = min(start + _WALK_BLOCK, n**3)
            a, b = start // (n * n), -(-stop // (n * n))  # the x-slabs of the block
            cut = slice(start - a * n * n, stop - a * n * n)
            z = np.broadcast_to(plane[a:b], (b - a, n, n)).reshape(-1)[cut]
            t = np.broadcast_to(t_ax, (b - a, n, n)).reshape(-1)[cut]
            if i > 0:
                outer = ~np.broadcast_to(inner[a:b], (b - a, n, n)).reshape(-1)[cut]
                z, t = z[outer], t[outer]
            if center is not None:
                z, t = mul_zt(center.z, center.t, z, t)
            yield i, z, t, cell
        L *= 2.0


def integrate_decaying(
    f,
    N: int,
    scheme: ShellScheme = ShellScheme(),
    center: HeisPoint | None = None,
) -> tuple[float, list[float]] | tuple[list[float], list[list[float]]]:
    """Integrate f dv_H over H^1 by nested Koranyi boxes centered at ``center``.

    Returns (value, per-shell contributions).  An integrand that returns a
    stacked (m, n) array for n nodes is m integrands over one walk: the
    result is then (list of m values, list of m per-shell lists).  Raises
    DivergentIntegralError when the outermost shells of any component grow,
    which diagnoses a non-integrable input.

    ``f`` sees at most 2^13 nodes per call; the values of a walk block are
    gathered into one array and summed whole, so the sums are those of
    evaluating each walk block in one call.  ``N`` must be 1; the benchmark
    still passes it.
    """
    _only_h1(N)
    acc = [0.0] * scheme.n_shells
    for i, z, t, cell in shell_nodes(scheme, center):
        n = t.shape[0]
        vals = None
        for s in range(0, n, _SUB_BLOCK):
            v = np.asarray(f(z[s : s + _SUB_BLOCK], t[s : s + _SUB_BLOCK]))
            if vals is None:
                vals = np.empty(v.shape[:-1] + (n,), dtype=v.dtype)
            vals[..., s : s + _SUB_BLOCK] = v
        acc[i] = acc[i] + KAPPA_H * cell * np.sum(vals, axis=-1)
    table = np.stack(acc, axis=-1)  # (n_shells,) or (m, n_shells)
    shells = table.reshape(-1, scheme.n_shells).tolist()
    if scheme.n_shells >= 3:
        for row in shells:
            tail = [abs(s) for s in row[-3:]]
            if tail[-1] > tail[-2] > tail[-3] and tail[-1] > 1e-12 * max(abs(s) for s in row):
                raise DivergentIntegralError(f"shell contributions grow: {row}")
    values = [sum(row) for row in shells]
    return (values[0], shells[0]) if table.ndim == 1 else (values, shells)
