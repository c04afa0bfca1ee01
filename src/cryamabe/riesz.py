"""Gauge-homogeneous kernels, group convolution on grids, and the PV fractional operator.

The model kernels are powers of the Koranyi gauge of two kinds: order-alpha
potentials |x|^{alpha-Q} (kind "riesz"; at alpha = 2k these are the Green-type
kernels |x|^{2k-Q}) and hypersingular kernels |x|^{-(Q+2k)} (kind "hyper").
Constant factors are never asserted; they are either normalized to one or
fitted (the Green constant by inverting the local operator on a bump, the PV
constant on the explicit extremal family).  Convolutions are group
convolutions (f * K)(x) = int f(y) K(y^{-1} x) dv_H(y) on midpoint grids over
H^1, with the singular cell replaced by its sheared sub-cell average around
an analytic core.  A grid field is a 3-d box of H^1 and its values, checked
once when it is built; the grid code and the PV operator are written for H^1.

The grid quadrature is written in w = y^{-1} x: every pair weight is the
midpoint kernel K(w) or a sub-cell average of K(d^{-1} w); on the ring around
the core that average splits t only, so it is a mean over t_w - d_t at fixed
|z_w|^2.  Since t is the centre of H^1, w depends on t_x and t_y only through
t_x - t_y, so on each pair of grid columns the weights are Toeplitz in the
level difference.  They are tabulated once per (output column, source column,
level) in regular blocks, and each block is summed by matrix products with
the level-reversed source field.  The singular cell x = y is the only
term that depends on z_y itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _count, _grid_shape, _half_widths
from .errors import DomainError, SingularPointError
from .heisenberg import (
    KAPPA_H,
    Q,
    Array,
    BoxDomain,
    HeisPoint,
    ShellScheme,
    _gauge_sq_power,
    _only_h1,
    gauge_zt,
    inv_zt,
    koranyi_ball_volume,
    mul_zt,
    shell_nodes,
    sub_laplacian,
)

# ---------------------------------------------------------------------------
# kernels


@dataclass(frozen=True)
class KernelSpec:
    """A homogeneous kernel gauge^(exponent) on H^1, normalized to constant one.

    kind "riesz": order alpha in (0, Q), exponent alpha - Q, positive; at
    alpha = 2k it is the Green-type kernel of the order-2k operator.
    kind "hyper": order 2k in (0, Q), exponent -(Q + 2k), positive magnitude;
    the PV operator built on it is positive at interior maxima.  ``N`` must
    be 1; the benchmark still passes it.
    """

    alpha: float
    N: int = 1
    kind: str = "riesz"

    def __post_init__(self):
        _only_h1(self.N)
        if self.kind not in ("riesz", "hyper"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if not 0 < self.alpha < Q:
            raise DomainError(f"{self.kind} order must lie in (0, {Q})")

    @property
    def Q(self) -> int:
        return Q

    @property
    def exponent(self) -> float:
        if self.kind == "hyper":
            return -(self.Q + self.alpha)
        return self.alpha - self.Q


# Values per work array: table entries or Hankel-matrix entries per block of
# the convolution, far-field (node, output) pairs per chunk, and entry x offset
# values per block of sub-cell averaging; each keeps a block's working set in
# cache.
_BLOCK = 1 << 15
_SUB = 1 << 14


def _subcell_offsets(steps: tuple[float, ...], subs: tuple[int, ...]) -> tuple[Array, Array, Array]:
    """Midpoints of a per-axis subdivision of one H^1 grid cell, as group offsets.

    Returned as the x and y parts (M_h,) of the horizontal offsets and the
    vertical offsets (M_t,); the offsets are all of their combinations.  The
    t-axis needs the finest split: in gauge geometry a coordinate cell is far
    taller in t (height ~ sqrt(h_t)) than wide in z, and homogeneous kernels
    vary in t on the squared-gauge scale.
    """
    ax, ay, at = [(np.arange(s) + 0.5) / s * h - h / 2.0 for h, s in zip(steps, subs)]
    dx, dy = np.meshgrid(ax, ay, indexing="ij")
    return dx.reshape(-1), dy.reshape(-1), at


def _offset_gauge_sq(wx: Array, wy: Array, wt: Array, sx: Array, sy: Array, offsets) -> Array:
    """gauge(w_z - d_z, w_t - d_t - 2 Im<d_z, s_z>)^2 per entry and offset d, shape (E, M_h, M_t).

    With s = w this is the gauge of d^{-1} w; with w = 0 and s = z_y it is
    the gauge of (y + d)^{-1} y, the coordinate cell seen from its midpoint.
    """
    dx, dy, dt = offsets
    zz = wx[:, None] - dx
    zz *= zz
    u = wy[:, None] - dy
    u *= u
    zz += u
    tb = wt[:, None] - 2.0 * (sx[:, None] * dy - sy[:, None] * dx)
    zz *= zz
    tt = tb[:, :, None] - dt
    tt *= tt
    tt += zz[:, :, None]
    return np.sqrt(tt, out=tt)


def _t_mean(spec: KernelSpec, zz: Array, wt: Array, dt: Array) -> Array:
    """Mean of the kernel at (|z_w|^2, t_w - d) over the vertical offsets d, for each entry w.

    A t-only sub-cell split has no horizontal offsets, so the twist term of
    d^{-1} w vanishes and only |z_w|^2 and t_w enter.  The work arrays are
    laid out (offset, entry), so every operation runs along a row of entries.
    """
    total = np.empty(len(wt))
    step = max(1, _SUB // len(dt))
    for a in range(0, len(wt), step):
        b = slice(a, a + step)
        zz4 = zz[b] * zz[b]
        tt = wt[b] - dt[:, None]
        tt *= tt
        tt += zz4
        total[b] = _gauge_sq_power(np.sqrt(tt, out=tt), spec.exponent).sum(axis=0)
    return total / len(dt)


def _subcell_mean(spec: KernelSpec, wx: Array, wy: Array, wt: Array, offsets) -> Array:
    """Mean of the kernel at d^{-1} w over the sub-cell offsets d, for each entry w."""
    m = len(offsets[0]) * len(offsets[2])
    step = max(1, _SUB // m)
    total = np.empty(len(wt))
    for a in range(0, len(wt), step):
        b = slice(a, a + step)
        gsq = _offset_gauge_sq(wx[b], wy[b], wt[b], wx[b], wy[b], offsets)
        total[b] = _gauge_sq_power(gsq, spec.exponent).sum(axis=(1, 2))
    return total / m


def _sheared_diagonal(spec: KernelSpec, steps: tuple[float, ...], xs: Array, ys: Array) -> Array:
    """Average of the kernel over a source cell seen from its own midpoint z_y = xs + i ys.

    In difference coordinates w = (y + d)^{-1} y the cell is sheared in t by
    2 Im<dz, z_y>, and the map d -> w preserves volume, so excluding the gauge
    ball B_rho and adding its closed-form integral is exact for any shear.
    rho is the largest radius whose ball stays inside the sheared image; the
    rest of the cell is averaged over a (12, 12, 16) sub-cell split.
    """
    hx, hy, ht = steps
    a = np.hypot(xs, ys)
    rho = np.minimum(0.45 * hx, 0.45 * hy)
    rho = np.minimum(rho, -a + np.sqrt(a * a + 0.45 * ht))
    offsets = _subcell_offsets(steps, (12, 12, 16))
    m = len(offsets[0]) * len(offsets[2])
    step = max(1, _SUB // m)
    total = np.empty(len(xs))
    zero = np.zeros_like(xs)
    for i in range(0, len(xs), step):
        b = slice(i, i + step)
        gsq = _offset_gauge_sq(zero[b], zero[b], zero[b], xs[b], ys[b], offsets)
        k = _gauge_sq_power(np.maximum(gsq, 1e-300), spec.exponent)
        k[gsq <= (rho[b] * rho[b])[:, None, None]] = 0.0
        total[b] = k.sum(axis=(1, 2))
    total *= hx * hy * ht / m
    vol1 = koranyi_ball_volume(1.0) / KAPPA_H  # Lebesgue volume of the unit ball
    core = spec.Q * vol1 * rho ** (spec.Q + spec.exponent) / (spec.Q + spec.exponent)
    return (total + core) / (hx * hy * ht)


def _pair_w(xs: Array, ys: Array, xo: Array, yo: Array) -> tuple[Array, Array]:
    """|z_w|^2 and the twist of w = y^{-1} x for every (source y, output x) pair.

    z_w = z_x - z_y and t_w = t_x - t_y + 2 Im<-z_y, z_x>; the twist is the
    last term.  Inputs are the real and imaginary parts of z in H^1, 1-D.
    """
    zz = xo - xs[:, None]
    zz *= zz
    d = yo - ys[:, None]
    d *= d
    zz += d
    twist = np.multiply.outer(xs, yo)
    twist -= np.multiply.outer(ys, xo)
    twist *= 2.0
    return zz, twist


def kernel_eval_zt(spec: KernelSpec, z: Array, t: Array) -> Array:
    g = gauge_zt(z, t)
    if np.any(g == 0.0):
        raise SingularPointError("kernel evaluated at the origin")
    return g**spec.exponent


def decay_exponent_fit(spec: KernelSpec) -> float:
    """Log-log slope of the kernel along a gauge ray at 40 radii in [0.5, 50] (regression oracle)."""
    radii = np.geomspace(0.5, 50.0, 40)
    vals = kernel_eval_zt(spec, radii.astype(np.complex128), np.zeros(len(radii)))
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# grid fields


@dataclass
class GridFieldH:
    """Values on a midpoint grid over a coordinate box in (x, y, t) of H^1.

    The box and the values are the whole field; the grid shape is that of the
    values.  Building one is its only check: a 3-d box, values with 3 axes of
    at least 8 cells each, all finite.
    """

    box: BoxDomain
    values: Array

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.box.dim != 3 or self.values.ndim != 3:
            raise DomainError(f"grid fields live on H^1: need a 3-d box and values, got {self.box.dim} and {self.values.ndim}")
        if any(s < 8 for s in self.shape):
            raise DomainError("grid resolution must be at least 8 per axis")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid values must be finite")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def steps(self) -> tuple[float, ...]:
        return tuple((h - l) / n for l, h, n in zip(self.box.lo, self.box.hi, self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.steps))

    def axes(self) -> list[Array]:
        return [
            l + (h - l) / n * (np.arange(n) + 0.5)
            for l, h, n in zip(self.box.lo, self.box.hi, self.shape)
        ]

    def points(self) -> tuple[Array, Array]:
        x, y, t = np.meshgrid(*self.axes(), indexing="ij")
        return (x + 1.0j * y).reshape(-1), t.reshape(-1)

    @staticmethod
    def from_function(fn, box: BoxDomain, shape: tuple[int, ...]) -> "GridFieldH":
        z, t = GridFieldH(box, np.zeros(shape)).points()
        return GridFieldH(box, np.reshape(fn(z, t), shape))

    def lp_norm(self, p: float) -> float:
        return float(
            (KAPPA_H * self.cell_volume * np.sum(np.abs(self.values) ** p)) ** (1.0 / p)
        )


def gaussian_bump(box: BoxDomain, shape: tuple[int, ...], width: float = 0.5, center: HeisPoint | None = None) -> GridFieldH:
    c = center or HeisPoint(0.0, 0.0)

    def fn(z, t):
        zi, ti = mul_zt(*inv_zt(c.z, np.asarray(c.t)), z, t)
        g = gauge_zt(zi, ti)
        return np.exp(-((g / width) ** 4))

    return GridFieldH.from_function(fn, box, shape)


# ---------------------------------------------------------------------------
# group convolution


def convolve(
    f: GridFieldH,
    spec: KernelSpec,
    out_indices: Array | None = None,
    support_threshold: float = 0.0,
) -> GridFieldH | Array:
    """(f * K)(x) = sum_y f(y) K(y^{-1} x) dv_H-cell, with singular-cell repair.

    Riesz kernels only: a hypersingular kernel (its integral diverges at the
    diagonal; the PV route handles it) is refused before any work.
    ``out_indices`` restricts the output to a flat subset of grid points, a
    1-D integer array of in-range indices; anything else is refused.
    Only source cells with |f| > support_threshold * max|f| contribute; a
    threshold outside [0, 1) is refused, since from 1 on no cell passes.

    Each weight is the midpoint kernel K(w) at w = y^{-1} x or, near the
    singularity, a sub-cell average of K(d^{-1} w), since the sub-cell y . d
    is seen from x at (y . d)^{-1} x = d^{-1} w; on the ring around the core
    the split is in t only, and the average is the mean of K at
    (|z_w|^2, t_w - d_t) (``_t_mean``).  As t is central, on a pair of grid
    columns these weights are Toeplitz in the level difference: each is
    evaluated once per (output column, source column, level difference), in
    a regular table per block of columns, and the sum over t is one matrix
    product of that table with the Hankel matrix of the level-reversed
    source field.  The singular cell x = y is the only weight that depends
    on z_y itself (``_sheared_diagonal``), one value per column.  Full-grid,
    subset and symmetry-class outputs share this path.
    """
    if spec.kind != "riesz":
        raise DomainError(f"grid convolution needs a riesz kernel, got {spec.kind!r}")
    if not 0.0 <= support_threshold < 1.0:
        raise DomainError(f"support threshold must lie in [0, 1), got {support_threshold!r}")
    n_all = f.values.size
    if out_indices is None:
        out_idx = np.arange(n_all)
    else:
        out_idx = np.asarray(out_indices)
        if out_idx.ndim != 1 or not (np.issubdtype(out_idx.dtype, np.integer) or out_idx.size == 0):
            raise DomainError("out_indices must be a 1-D integer array")
        if out_idx.size and (out_idx.min() < 0 or out_idx.max() >= n_all):
            raise DomainError(f"out_indices must lie in [0, {n_all})")
        out_idx = out_idx.astype(np.int64)
    vals = f.values.reshape(-1)
    thresh = support_threshold * np.max(np.abs(vals), initial=0.0)
    src = np.flatnonzero(np.abs(vals) > thresh)
    out = np.zeros(len(out_idx))
    if len(src) and len(out_idx):
        _toeplitz_sum(f, spec, vals, src, out_idx, out)
    out *= f.cell_volume * KAPPA_H
    if out_indices is None:
        return GridFieldH(f.box, out.reshape(f.shape))
    return out


def _grid_columns(flat: Array, nt: int, n_cols: int) -> tuple[Array, Array, Array, Array, Array]:
    """Split flat grid indices into (column, level) with column = flat // n_t.

    Returns the distinct columns (ascending), each point's position among
    them, each point's level, and the lowest and highest level per column.
    """
    col, k = np.divmod(flat, nt)
    present = np.zeros(n_cols, dtype=bool)
    present[col] = True
    cols = np.flatnonzero(present)
    ci = (np.cumsum(present) - 1)[col]
    k_lo = np.full(len(cols), nt)
    k_hi = np.full(len(cols), -1)
    np.minimum.at(k_lo, ci, k)
    np.maximum.at(k_hi, ci, k)
    return cols, ci, k, k_lo, k_hi


def _near_entries(gsq: Array, zz: Array, reach: Array, ring_sq: float) -> tuple[Array, Array, Array]:
    """The entries of a table with gsq <= ring_sq, found by scanning near column pairs only.

    ``gsq`` is a (output column, source column, level) table of squared
    gauges, ``zz`` the |z_w|^2 of each column pair and ``reach`` the last
    level each pair's sums read.  The squared gauge is at least |z_w|^2, so no
    pair with |z_w|^2 > ring_sq holds such an entry.  Returns their flat
    table indices, their values and the flat (output, source) index of each
    entry's column pair.
    """
    length = gsq.shape[-1]
    pair = np.flatnonzero(zz <= ring_sq)
    near = gsq.reshape(-1, length)[pair]
    mask = near <= ring_sq
    mask &= np.arange(length) <= reach.reshape(-1)[pair, None]
    hit = np.flatnonzero(mask)
    counts = np.count_nonzero(mask, axis=1)
    e = hit + np.repeat((pair - np.arange(len(pair))) * length, counts)
    return e, near.reshape(-1)[hit], np.repeat(pair, counts)


def _hankel(rev: Array, n_out: int, length: int) -> Array:
    """H[(s, i), a] = rev[s, i - a], zero where i - a is no level of rev, as a (S * length, n_out) matrix.

    A table row (s, i) times H sums, for each output level a, the levels
    a .. a + n_lev - 1 against the level-reversed source field ``rev``.  For
    one output level H is ``rev`` itself.
    """
    if n_out == 1:
        return rev.reshape(-1, 1)
    padded = np.zeros((len(rev), length + n_out - 1))
    padded[:, n_out - 1 : n_out - 1 + rev.shape[1]] = rev
    return padded[:, np.add.outer(np.arange(length), np.arange(n_out - 1, -1, -1))].reshape(-1, n_out)


def _toeplitz_sum(f: GridFieldH, spec: KernelSpec, vals: Array, src: Array, out_idx: Array, out: Array) -> None:
    """out[o] += sum over sources s of vals[s] K(s, o), via tables in the level difference.

    Output columns are taken in blocks of similar level span, widest first,
    and source columns in chunks.  A block's table has axes (output column,
    source column, level i): level i of the column pair (s, o) holds the
    weight at level difference k_o - k_s = ko_lo - ks_hi + i: t_w is
    (ko_lo - ks_hi + i) h_t, read per pair as a window of one row of level
    differences, plus the pair's twist.  Output level ko_lo + a thus reads
    levels a .. a + n_lev - 1 against the source column reversed in level
    (j = ks_hi - k_s), so each chunk of the block contracts as one matrix
    product with the Hankel matrix of the reversed field (``_hankel``).  The
    table and that matrix each stay within _BLOCK entries.
    """
    nt, steps = f.shape[-1], f.steps
    cx, cy = (m.reshape(-1) for m in np.meshgrid(*f.axes()[:2], indexing="ij"))
    cs, s_ci, s_k, ks_lo, ks_hi = _grid_columns(src, nt, len(cx))
    co, o_ci, o_k, ko_lo, ko_hi = _grid_columns(out_idx, nt, len(cx))
    span_s, span_o = ks_hi - ks_lo, ko_hi - ko_lo
    n_s, n_lev = len(cs), int(span_s.max()) + 1
    rev = np.zeros((n_s, n_lev))
    rev[s_ci, ks_hi[s_ci] - s_k] = vals[src]
    # (k_o - k_s) h_t for every level difference a table can hold, from 1 - n_t on
    d_ht = np.arange(1 - nt, 2 * nt + n_lev) * steps[-1]

    # midpoint kernel values are biased near the singularity: coordinate cells
    # are tall in gauge geometry (height ~ sqrt(h_t)) and the group twist
    # shears their t-extent by ~ 2 |dz| |z|.  Two correction tiers replace the
    # midpoint by sub-cell averages with exact group displacements -- a full
    # (4,4,8) split on the core, a t-only split on the surrounding ring where
    # only the vertical variation still matters (``_t_mean``) -- and the
    # singular cell gets the sheared average with an analytic core
    # (_sheared_diagonal).
    sqrt_ht = steps[-1] ** 0.5
    core_rad = max(3.5 * max(steps[:2]), 1.5 * sqrt_ht)
    ring_rad = max(3.2 * sqrt_ht, core_rad)
    core_sq, ring_sq = core_rad * core_rad, ring_rad * ring_rad
    core_offsets = _subcell_offsets(steps, (4, 4, 8))
    ring_dt = _subcell_offsets(steps, (1, 1, 6))[2]
    sing_tol = (1e-6 * min(steps)) ** 2
    diag = np.zeros(n_s)
    own = np.isin(cs, co)
    if np.any(own):
        diag[own] = _sheared_diagonal(spec, steps, cx[cs[own]], cy[cs[own]])

    col_order = np.argsort(-span_o, kind="stable")
    spans = span_o[col_order]
    rank = np.empty(len(co), dtype=np.int64)
    rank[col_order] = np.arange(len(co))
    o_row, o_a = rank[o_ci], o_k - ko_lo[o_ci]
    pt_order = np.argsort(o_row, kind="stable")
    p_start = np.concatenate(([0], np.cumsum(np.bincount(o_ci, minlength=len(co))[col_order])))
    b0 = 0
    while b0 < len(co):
        n_out = spans[b0] + 1
        length = n_out + n_lev - 1
        s_step = max(1, min(n_s, _BLOCK // (length * n_out)))
        # a block holds columns of at least half its widest span, so that no
        # column pays for a table much longer than its own
        last = np.searchsorted(-spans, -(spans[b0] // 2), side="right")
        b1 = min(last, b0 + max(1, _BLOCK // (length * s_step)))
        cols = col_order[b0:b1]
        d_win = np.lib.stride_tricks.as_strided(d_ht, (len(d_ht) - length + 1, length), d_ht.strides * 2)
        res = np.zeros((len(cols), n_out))
        for s0 in range(0, n_s, s_step):
            sb = slice(s0, s0 + s_step)
            zz, twist = (np.ascontiguousarray(a.T) for a in _pair_w(cx[cs[sb]], cy[cs[sb]], cx[co[cols]], cy[co[cols]]))
            wt = d_win[ko_lo[cols, None] - ks_hi[None, sb] + (nt - 1)]
            wt += twist[:, :, None]
            gsq = wt * wt
            gsq += (zz * zz)[:, :, None]
            np.sqrt(gsq, out=gsq)
            reach = span_o[cols, None] + span_s[None, sb]
            e, g, of_pair = _near_entries(gsq, zz, reach, ring_sq)
            table = _gauge_sq_power(np.maximum(gsq, sing_tol, out=gsq), spec.exponent)
            flat, wt = table.reshape(-1), wt.reshape(-1)
            core = (g > sing_tol) & (g <= core_sq)
            po, ps = np.divmod(of_pair[core], zz.shape[1])
            wx = cx[co[cols[po]]] - cx[cs[s0 + ps]]
            wy = cy[co[cols[po]]] - cy[cs[s0 + ps]]
            flat[e[core]] = _subcell_mean(spec, wx, wy, wt[e[core]], core_offsets)
            ring = g > core_sq
            flat[e[ring]] = _t_mean(spec, zz.reshape(-1)[of_pair[ring]], wt[e[ring]], ring_dt)
            sing = g <= sing_tol
            flat[e[sing]] = diag[s0 + of_pair[sing] % zz.shape[1]]
            res += table.reshape(len(cols), -1) @ _hankel(rev[sb], n_out, length)
        sel = pt_order[p_start[b0] : p_start[b1]]
        out[sel] += res[o_row[sel] - b0, o_a[sel]]
        b0 = b1


def _far_field_composition(
    box: BoxDomain,
    zo: Array,
    to: Array,
    mass: float,
    exponent_src: float,
    exponent_ker: float,
) -> Array:
    """int_{y outside box} mass |y|^{e_src} |y^{-1}x|^{e_ker} dv_H(y) at points x of H^1.

    Used to close iterated convolutions: outside the grid box the first
    potential is within O(|y|^{e_src - 1}) of its leading homogeneous term, so
    the far field of the second convolution reduces to this smooth integral,
    taken over 7 shells of 32 cells per axis.  The walk blocks are taken in
    chunks of _BLOCK // n_out nodes.  t is the walk's fastest axis, so the
    nodes of one grid column (fixed z_y) are consecutive: each chunk forms
    the z-terms of w = y^{-1} x (|z_w|^4, and the twist plus t_x) once per
    column and gathers them per node.  Every kernel value takes the same
    operations in the same order as a per-pair evaluation.
    """
    xo, yo = zo.real, zo.imag
    out = np.zeros(len(zo))
    # the first Koranyi shell box must contain the grid box: shell i is the
    # box of half-width L 2^(i+1) less the box of half-width L 2^i
    (lo_x, lo_y, lo_t), (hi_x, hi_y, hi_t) = box.lo, box.hi
    hw_xy = max(abs(lo_x), abs(lo_y), abs(hi_x), abs(hi_y))
    L = float(max(hw_xy, math.sqrt(max(abs(lo_t), abs(hi_t)))))
    scheme = ShellScheme(2.0 * L, 7, 32, 32)
    chunk = max(1, _BLOCK // max(len(zo), 1))
    for _, zy, ty, cellv in shell_nodes(scheme):
        x, y = zy.real, zy.imag
        keep = ~((x >= lo_x) & (x <= hi_x) & (y >= lo_y) & (y <= hi_y) & (ty >= lo_t) & (ty <= hi_t))
        zy, ty = zy[keep], ty[keep]
        gy = gauge_zt(zy, ty)
        src_w = _gauge_sq_power(gy * gy, exponent_src)
        # a column starts wherever z_y changes from the previous node
        starts = np.ones(len(ty), dtype=bool)
        starts[1:] = zy[1:] != zy[:-1]
        for c0 in range(0, len(ty), chunk):
            b = slice(c0, c0 + chunk)
            new = starts[b].copy()
            new[0] = True
            run = np.cumsum(new) - 1
            zc = zy[c0 + np.flatnonzero(new)]
            zz_col, wt_col = _pair_w(zc.real, zc.imag, xo, yo)
            zz_col *= zz_col
            wt_col += to
            wt = wt_col[run]
            wt -= ty[b, None]
            wt *= wt
            zz = zz_col[run]
            zz += wt
            gsq2 = np.sqrt(zz, out=zz)
            out += KAPPA_H * cellv * mass * (src_w[b] @ _gauge_sq_power(gsq2, exponent_ker))
    return out


def _grid_symmetry_classes(shape: tuple[int, ...]) -> tuple[Array, Array]:
    """Orbit representatives of the exact grid symmetries for centered radial data.

    On a centered midpoint grid with n_x = n_y, a gauge-radial source field
    makes the convolution output invariant under the quarter-turn rotations of
    (x, y) and under the joint reflection (y, t) -> (-y, -t); all of these map
    the grid to itself exactly.  Returns flat representative indices and the
    inverse map reconstructing the full grid.
    """
    nx, ny, nt = shape
    if nx != ny:
        raise DomainError("symmetry classes need n_x == n_y")
    ix, iy, it = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nt), indexing="ij")
    ix, iy, it = ix.reshape(-1), iy.reshape(-1), it.reshape(-1)
    # reflect t < 0 (indices below the midpoint) together with y
    low = it < nt // 2
    it = np.where(low, nt - 1 - it, it)
    iy = np.where(low, ny - 1 - iy, iy)
    # minimum over the four quarter-turns of (x, y)
    best = np.full(len(ix), np.iinfo(np.int64).max)
    cx, cy = ix, iy
    for _ in range(4):
        code = cx * ny + cy
        best = np.minimum(best, code)
        cx, cy = ny - 1 - cy, cx
    keys = (best * nt + it).astype(np.int64)
    uniq, inverse = np.unique(keys, return_inverse=True)
    first = np.full(len(uniq), len(keys), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(keys)))
    return first, inverse


def semigroup_check(
    shape: tuple[int, ...] = (64, 64, 64),
    half_widths: tuple[float, float] = (4.0, 8.0),
    n_eval: int = 512,
    seed: int = 0,
) -> dict:
    """Compare the two convolution paths R_1(R_1 f) and R_2 f on an H^1 grid.

    The source f is the centred gauge bump of width 0.85, and only its cells
    above 1e-6 of its maximum enter the convolutions of f.  The iterated path
    needs the intermediate potential on all of H^1; beyond the grid box it is
    replaced by its leading homogeneous term mass * |y|^{1-Q}, integrated by
    shells (the neglected correction decays one order faster).  The model
    kernels carry no calibrated constants, so the comparison fits a single
    proportionality factor and reports the relative L^2 shape residual on a
    random subsample of grid points.  A grid that is not 3 integers >= 8
    per axis with 2 finite positive half-widths (x = y, t) is refused before
    any work.
    """
    _count(n_eval, "n_eval")
    shape, (hw, hwt) = _grid_shape(shape, "shape"), _half_widths(half_widths, "half_widths")
    box = BoxDomain((-hw, -hw, -hwt), (hw, hw, hwt))
    f = gaussian_bump(box, shape, width=0.85)
    spec_1 = KernelSpec(1.0)
    spec_2 = KernelSpec(2.0)
    reps, inverse = _grid_symmetry_classes(shape)
    inner_reps = convolve(f, spec_1, out_indices=reps, support_threshold=1e-6)
    inner = GridFieldH(box, inner_reps[inverse].reshape(shape))
    rng = np.random.default_rng(seed)
    sub = rng.choice(int(np.prod(shape)), size=min(n_eval, int(np.prod(shape))), replace=False)
    z_all, t_all = f.points()
    zo, to = z_all[sub], t_all[sub]
    iterated = convolve(inner, spec_1, out_indices=sub)
    mass_f = KAPPA_H * f.cell_volume * float(np.sum(f.values))
    iterated = iterated + _far_field_composition(box, zo, to, mass_f, spec_1.exponent, spec_1.exponent)
    direct = convolve(f, spec_2, out_indices=sub, support_threshold=1e-6)
    fitted = float(iterated @ direct) / float(direct @ direct)
    resid = float(np.linalg.norm(iterated - fitted * direct) / np.linalg.norm(fitted * direct))
    return {
        "alpha": 1.0,
        "grid": shape,
        "fitted_constant": fitted,
        "shape_residual": resid,
        "n_eval": int(len(sub)),
    }


# ---------------------------------------------------------------------------
# local operator on grids and the Green-constant fit


def grid_sub_laplacian(u: GridFieldH) -> GridFieldH:
    """Delta_b on the grid via coordinate second differences.

    Delta_b = 1/4 [ d_xx + d_yy + 4 y d_xt - 4 x d_yt + 4 (x^2 + y^2) d_tt ].
    Boundary layers are left as zeros; fits must restrict to the interior.
    """
    hx, hy, ht = u.steps
    v = u.values
    out = np.zeros_like(v)
    ax = u.axes()
    x = ax[0][:, None, None]
    y = ax[1][None, :, None]
    c = np.s_[1:-1]
    d_xx = (v[2:, c, c] - 2 * v[c, c, c] + v[:-2, c, c]) / hx**2
    d_yy = (v[c, 2:, c] - 2 * v[c, c, c] + v[c, :-2, c]) / hy**2
    d_tt = (v[c, c, 2:] - 2 * v[c, c, c] + v[c, c, :-2]) / ht**2
    d_xt = (v[2:, c, 2:] - v[2:, c, :-2] - v[:-2, c, 2:] + v[:-2, c, :-2]) / (4 * hx * ht)
    d_yt = (v[c, 2:, 2:] - v[c, 2:, :-2] - v[c, :-2, 2:] + v[c, :-2, :-2]) / (4 * hy * ht)
    xc = x[1:-1]
    yc = y[:, 1:-1]
    out[c, c, c] = 0.25 * (
        d_xx + d_yy + 4.0 * yc * d_xt - 4.0 * xc * d_yt + 4.0 * (xc**2 + yc**2) * d_tt
    )
    return GridFieldH(u.box, out)


def green_inversion_check(f: GridFieldH, margin: int = 6, centered_radial: bool = False) -> dict:
    """Fit c so that -Delta_b (f * c |.|^{2-Q}) matches f; report the residual.

    The fit is least squares over interior cells; ``margin`` trims the
    finite-difference boundary layer.  ``centered_radial`` enables the exact
    grid-symmetry reduction of the potential (valid for centered gauge-radial
    sources only).
    """
    spec = KernelSpec(2.0)
    if centered_radial:
        reps, inverse = _grid_symmetry_classes(f.shape)
        pot_vals = convolve(f, spec, out_indices=reps, support_threshold=1e-10)[inverse]
        pot = GridFieldH(f.box, pot_vals.reshape(f.shape))
    else:
        pot = convolve(f, spec, support_threshold=1e-10)
    lap = grid_sub_laplacian(pot)
    m = margin
    V = -lap.values[m:-m, m:-m, m:-m].reshape(-1)
    F = f.values[m:-m, m:-m, m:-m].reshape(-1)
    denom = float(V @ V)
    if denom == 0.0:
        return {"constant": 0.0, "residual": 0.0 if not np.any(F) else 1.0}
    c_fit = float(V @ F) / denom
    resid = float(np.linalg.norm(c_fit * V - F) / max(np.linalg.norm(F), 1e-300))
    return {"constant": c_fit, "residual": resid}


# ---------------------------------------------------------------------------
# principal-value fractional operator


def _horizontal_moment_constant(alpha: float) -> float:
    """int_{B_1} |z|^2 gauge^{-Q-alpha} dv_H on H^1, in closed form: 4 pi kappa_H / (2 - alpha).

    In Koranyi polar coordinates (Folland and Stein, Hardy Spaces on
    Homogeneous Groups, 1982, ch. 1) dx dy dt = r^{Q-1} dr dsigma, so the
    integral is int_Sigma |z|^2 dsigma * int_0^1 r^{1-alpha} dr.  The same
    split gives int_{B_1} |z|^2 dx dy dt = 2 pi / 3 = (1/6) int_Sigma |z|^2 dsigma,
    hence int_Sigma |z|^2 dsigma = 4 pi.
    """
    return 4.0 * math.pi * KAPPA_H / (2.0 - alpha)


def pv_fractional(u, alpha: float, p: HeisPoint, return_sensitivity: bool = False):
    """PV int (u(x) - u(y)) |y^{-1} x|^{-Q-alpha} dv_H(y) at x = p in H^1, with kernel constant one.

    The sign makes the operator nonnegative at interior maxima (matching the
    local operator as alpha -> 2).  Integration pairs y with its group
    reflection through p, which cancels the odd part of the increment; inside
    the inner ball of radius delta the surviving quadratic part is integrated
    in closed form against the exact kernel moments, which keeps the alpha -> 2
    concentration of the operator on the grid's budget.  delta spans three
    inner cells horizontally and about 2.2 square roots of a half cell
    vertically.  ``return_sensitivity`` reruns at delta/2 and reports the
    difference as the honest error bar.
    """
    if not 0 < alpha < 2:
        raise DomainError("PV representation needs alpha in (0, 2)")
    scheme = ShellScheme(l0=1.0, n_shells=8, n_inner=96, n_shell=48)
    t_p = np.asarray(p.t)
    u_at_p = float(np.asarray(u(p.z, t_p)))
    h_xy = 2.0 * scheme.l0 / scheme.n_inner
    h_t = 2.0 * scheme.l0**2 / scheme.n_inner
    delta = max(3.0 * h_xy, 2.2 * math.sqrt(0.5 * h_t))
    lap = float(sub_laplacian(u, p.z, t_p, h=1e-3))
    mom1 = _horizontal_moment_constant(alpha) / 2

    def run(d: float) -> float:
        total = 2.0 * mom1 * d ** (2.0 - alpha) * (-lap)
        for _, z0, t0, cellv in shell_nodes(scheme):
            g = gauge_zt(z0, t0)
            keep = g > d
            z0, t0, g = z0[keep], t0[keep], g[keep]
            # symmetric pair: y = p . w and y' = p . w^{-1}
            zp_, tp_ = mul_zt(p.z, p.t, z0, t0)
            zm_, tm_ = mul_zt(p.z, p.t, -z0, -t0)
            incr = 2.0 * u_at_p - np.asarray(u(zp_, tp_)) - np.asarray(u(zm_, tm_))
            total += 0.5 * KAPPA_H * cellv * float(np.sum(incr * g ** (-(4 + alpha))))
        return total

    val = run(delta)
    if return_sensitivity:
        return val, abs(val - run(delta / 2.0))
    return val


def mapping_bound_probe(
    alpha: float,
    q: float,
    n_bumps: int = 20,
    shape: tuple[int, ...] = (24, 24, 24),
    seed: int = 2,
) -> dict:
    """Ratios ||f * R_alpha||_p / ||f||_q with 1/p = 1/q - alpha/Q over random bumps on H^1 (Q = 4).

    The bumps live on the Koranyi box of half-width 4 in H^1, the group the
    grid convolution runs on.  Only finiteness and stability are meaningful
    (the sharp constant is not modeled); the probe reports the max and spread
    of the ratios.
    """
    _count(n_bumps, "n_bumps")
    if not (math.isfinite(q) and q >= 1.0):
        raise DomainError(f"mapping bound probe needs a finite exponent q >= 1, got {q}")
    inv_p = 1.0 / q - alpha / 4
    if inv_p <= 0:
        raise DomainError("exponent relation leaves no room: decrease alpha or q")
    p_out = 1.0 / inv_p
    rng = np.random.default_rng(seed)
    spec = KernelSpec(alpha)
    box = BoxDomain.koranyi(1, 4.0)
    ratios = []
    for _ in range(n_bumps):
        width = rng.uniform(0.3, 1.0)
        cz = 0.8 * (rng.normal(size=1) + 1.0j * rng.normal(size=1))
        ct = float(rng.normal() * 0.5)
        f = gaussian_bump(box, shape, width, HeisPoint(cz, ct))
        conv = convolve(f, spec, support_threshold=1e-9)
        ratios.append(conv.lp_norm(p_out) / f.lp_norm(q))
    ratios = np.asarray(ratios)
    return {
        "alpha": alpha,
        "q": q,
        "p": p_out,
        "max_ratio": float(ratios.max()),
        "min_ratio": float(ratios.min()),
        "spread": float(ratios.max() / ratios.min()),
    }
