import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cryamabe.energy import BubbleParams, YamabeConstants, bubble_eval_zt, bubble_field
from cryamabe.errors import DomainError, SingularPointError
from cryamabe.heisenberg import (
    KAPPA_H,
    BoxDomain,
    HaarMeasure,
    HeisPoint,
    ShellScheme,
    _gauge_sq_power,
    dilate_zt,
    gauge_zt,
    hermitian_im,
    integrate_decaying,
    inv_zt,
    koranyi_ball_volume,
    mul_zt,
    shell_nodes,
    sub_laplacian,
)
from cryamabe.riesz import (
    _BLOCK,
    GridFieldH,
    KernelSpec,
    _far_field_composition,
    _grid_symmetry_classes,
    _horizontal_moment_constant,
    _pair_w,
    _subcell_mean,
    _subcell_offsets,
    _t_mean,
    convolve,
    decay_exponent_fit,
    gaussian_bump,
    green_inversion_check,
    grid_sub_laplacian,
    kernel_eval_zt,
    mapping_bound_probe,
    pv_fractional,
    semigroup_check,
)

BOX = BoxDomain((-3.0, -3.0, -6.0), (3.0, 3.0, 6.0))
ORIGIN = HeisPoint(0.0, 0.0)
STANDARD = BubbleParams(1.0, ORIGIN)  # the centred unit bubble


def fit_pv_constant(alpha: float, constants, n_points: int = 12, seed: int = 5) -> float:
    """Calibrate the hypersingular constant on the explicit extremal family.

    The fractional equation L_{2k} omega = omega^{p*-1} holds exactly for
    k = alpha/2, so the ratio of the target nonlinearity to the normalized PV
    value gives the constant; the fit averages over sample points.
    """
    k = alpha / 2.0
    if abs(constants.k - k) > 1e-12:
        raise DomainError("constants bundle must match k = alpha/2")
    rng = np.random.default_rng(seed)
    om = bubble_field(STANDARD, constants)
    ratios = []
    for _ in range(n_points):
        z = 0.8 * (rng.normal() + 1.0j * rng.normal())
        t = float(rng.normal())
        pt = HeisPoint(z, t)
        raw = pv_fractional(om, alpha, pt)
        target = float(bubble_eval_zt(STANDARD, pt.z, np.asarray(t), constants)) ** (constants.p_star - 1.0)
        if abs(raw) > 1e-14:
            ratios.append(target / raw)
    return float(np.median(ratios))


# ---------------------------------------------------------------------------
# dense reference: the pair-by-pair convolution in group coordinates, with
# loop-form sub-cell sums; full-grid output


def _ref_subcell_offsets(steps, subs):
    axes = [(np.arange(s) + 0.5) / s * h - h / 2.0 for h, s in zip(steps, subs)]
    x, y, t = (m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij"))
    z = x + 1.0j * y
    return [(z[i], t[i]) for i in range(len(t))]


def _ref_power(gauge_sq, e):
    return gauge_sq ** (e / 2.0)


def _ref_sheared_diagonal(spec, steps, z_src, subs=(12, 12, 16)):
    hx, hy, ht = steps
    a = np.abs(z_src)
    rho = np.minimum(0.45 * hx, 0.45 * hy)
    rho = np.minimum(rho, -a + np.sqrt(a * a + 0.45 * ht))
    offsets = _ref_subcell_offsets(steps, subs)
    subvol = hx * hy * ht / len(offsets)
    total = np.zeros(len(z_src))
    for off_z, off_t in offsets:
        wt = -off_t - 2.0 * hermitian_im(off_z, z_src)
        gsq = np.sqrt(np.abs(off_z) ** 4 + wt * wt)
        outside = gsq > rho * rho
        contrib = np.where(outside, _ref_power(np.maximum(gsq, 1e-300), spec.exponent), 0.0)
        total += contrib * subvol
    vol1 = koranyi_ball_volume(1.0, HaarMeasure(1.0))
    core = spec.Q * vol1 * rho ** (spec.Q + spec.exponent) / (spec.Q + spec.exponent)
    return (total + core) / (hx * hy * ht)


def _ref_convolve(f, spec, support_threshold=0.0):
    z_all, t_all = f.points()
    zo, to = z_all, t_all
    vals = f.values.reshape(-1)
    thresh = support_threshold * np.max(np.abs(vals), initial=0.0)
    src = np.nonzero(np.abs(vals) > thresh)[0]
    sqrt_ht = f.steps[-1] ** 0.5
    core_rad = max(3.5 * max(f.steps[:2]), 1.5 * sqrt_ht)
    ring_rad = max(3.2 * sqrt_ht, core_rad)
    tiers = (
        (core_rad, _ref_subcell_offsets(f.steps, (4, 4, 8))),
        (ring_rad, _ref_subcell_offsets(f.steps, (1, 1, 6))),
    )
    sing_tol = (1e-6 * min(f.steps)) ** 2
    out = np.zeros(len(zo))
    chunk = max(1, 10**6 // len(zo))
    for c0 in range(0, len(src), chunk):
        idx = src[c0 : c0 + chunk]
        zi, ti = inv_zt(z_all[idx], t_all[idx])
        zd = zi[:, None] + zo[None, :]
        td = ti[:, None] + to[None, :] + 2.0 * hermitian_im(zi[:, None], zo[None, :])
        zz = zd.real**2 + zd.imag**2
        gsq = np.sqrt(zz * zz + td * td)
        kv = _ref_power(np.maximum(gsq, sing_tol), spec.exponent)
        lower = sing_tol
        for rad, offsets in tiers:
            rows, cols = np.nonzero((gsq > lower) & (gsq <= rad * rad))
            lower = rad * rad
            acc = np.zeros(len(rows))
            for off_z, off_t in offsets:
                zs, ts = mul_zt(z_all[idx[rows]], t_all[idx[rows]], off_z, off_t)
                zd2, td2 = mul_zt(*inv_zt(zs, ts), zo[cols], to[cols])
                gg = gauge_zt(zd2, td2)
                acc += _ref_power(gg * gg, spec.exponent)
            kv[rows, cols] = acc / len(offsets)
        rows, cols = np.nonzero(gsq <= sing_tol)
        kv[rows, cols] = _ref_sheared_diagonal(spec, f.steps, z_all[idx[rows]])
        out += vals[idx] @ kv
    return out * f.cell_volume * KAPPA_H


def _ref_far_field(box, zo, to, mass, e_src, e_ker, measure):
    """The far field of the iterated convolution evaluated per (node, output) pair.

    The same shells, outside-the-box mask and chunks of _BLOCK // n_out nodes
    as ``_far_field_composition``, with |z_w|^2 and the twist of w = y^{-1} x
    formed afresh for every node.
    """
    hw_xy = max(abs(b) for b in (*box.lo[:2], *box.hi[:2]))
    L = float(max(hw_xy, math.sqrt(max(abs(box.lo[-1]), abs(box.hi[-1])))))
    out = np.zeros(len(zo))
    chunk = max(1, _BLOCK // len(zo))
    for _, zy, ty, cellv in shell_nodes(ShellScheme(2.0 * L, 7, 32, 32)):
        xy = np.stack([zy.real, zy.imag], axis=-1)
        inside = np.all((xy >= box.lo[:2]) & (xy <= box.hi[:2]), axis=-1) & (ty >= box.lo[-1]) & (ty <= box.hi[-1])
        zy, ty = zy[~inside], ty[~inside]
        gy = gauge_zt(zy, ty)
        src_w = _gauge_sq_power(gy * gy, e_src)
        for c0 in range(0, len(zy), chunk):
            b = slice(c0, c0 + chunk)
            xs, ys = zy[b].real, zy[b].imag
            zz = np.zeros((len(xs), len(zo)))
            for a, o in ((xs, zo.real), (ys, zo.imag)):
                d = o - a[:, None]
                d *= d
                zz += d
            wt = np.outer(xs, zo.imag)
            wt -= np.outer(ys, zo.real)
            wt *= 2.0
            wt += to
            wt -= ty[b, None]
            zz *= zz
            wt *= wt
            zz += wt
            np.sqrt(zz, out=zz)
            out += measure.kappa_H * cellv * mass * (src_w[b] @ _gauge_sq_power(zz, e_ker))
    return out


class TestKernels:
    def test_kind_validation(self):
        with pytest.raises(DomainError):
            KernelSpec(5.0, 1, "riesz")  # order must stay below Q = 4
        with pytest.raises(DomainError):
            KernelSpec(1.0, 1, "weird")

    def test_singular_point(self):
        with pytest.raises(SingularPointError):
            kernel_eval_zt(KernelSpec(1.0, 1), np.zeros(1, dtype=complex), np.zeros(1))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.1, max_value=5.0))
    def test_homogeneity_exact(self, lam):
        spec = KernelSpec(1.5, 1, "riesz")
        rng = np.random.default_rng(0)
        z = rng.normal(size=10) + 1.0j * rng.normal(size=10)
        t = rng.normal(size=10)
        zl, tl = dilate_zt(lam, z, t)
        lhs = kernel_eval_zt(spec, zl, tl)
        rhs = lam**spec.exponent * kernel_eval_zt(spec, z, t)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12

    def test_green_kernel_shape(self):
        spec = KernelSpec(2.0, 1)
        assert float(kernel_eval_zt(spec, np.asarray(2.0 + 0j), np.asarray(0.0))) == pytest.approx(2.0**-2, rel=1e-14)

    def test_hyper_decay_slope(self):
        spec = KernelSpec(2.0, 1, "hyper")  # order 2k = 2, exponent -(Q+2k) = -6
        assert abs(decay_exponent_fit(spec) - (-6.0)) < 1e-3


class TestGridFields:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridFieldH(BOX, np.zeros((4, 4, 4)))
        with pytest.raises(DomainError):
            GridFieldH(BOX, np.full((8, 8, 8), np.nan))

    def test_box_of_another_dimension_refused(self):
        # an H^2 box with an H^1 shape once took its t-axis from y_1's bounds
        with pytest.raises(DomainError):
            gaussian_bump(BoxDomain((-2.0,) * 4 + (-4.0,), (2.0,) * 4 + (4.0,)), (8, 8, 8), 0.6)

    def test_centre_of_another_group_refused(self):
        # a centre in C^2 once broadcast against the grid: the bump summed both columns
        with pytest.raises(DomainError):
            gaussian_bump(BOX, (8, 8, 8), 0.5, HeisPoint([0.5, 1j], 0.0))

    def test_from_function_checks_its_values(self):
        # the values were assigned after the check: 256 NaN cells convolved to zeros
        half_nan = lambda z, t: np.where(t > 0, np.nan, 1.0)
        with pytest.raises(DomainError):
            convolve(GridFieldH.from_function(half_nan, BOX, (8, 8, 8)), KernelSpec(1.0, 1))

    def test_lp_norm_constant(self):
        f = GridFieldH(BOX, np.ones((8, 8, 8)))
        vol = 4.0 * 6 * 6 * 12
        assert f.lp_norm(2.0) == pytest.approx(math.sqrt(vol), rel=1e-12)


@functools.lru_cache(maxsize=None)
def _oracle_case(n, kind, field):
    """A source field, its kernel and the dense reference on the full grid."""
    shape = (n,) * 3
    if field == "centred":
        f = gaussian_bump(BOX, shape, width=0.6)
    elif field == "off_centre":
        f = gaussian_bump(BOX, shape, width=0.5, center=HeisPoint(0.7 - 0.4j, 0.9))
    else:
        vals = np.zeros(shape)
        vals[n // 2 - 1, n // 2 + 2, n // 2 + 1] = 1.0
        f = GridFieldH(BOX, vals)
    spec = KernelSpec(1.0, 1, "riesz") if kind == "riesz" else KernelSpec(2.0, 1)
    return f, spec, _ref_convolve(f, spec, support_threshold=1e-9)


class TestConvolution:
    @pytest.mark.parametrize("outputs", ["full", "subset", "classes"])
    @pytest.mark.parametrize("field", ["centred", "off_centre", "delta"])
    @pytest.mark.parametrize("kind", ["riesz", "green"])
    @pytest.mark.parametrize("n", [16, 24])
    def test_matches_dense_reference(self, n, kind, field, outputs):
        f, spec, ref = _oracle_case(n, kind, field)
        if outputs == "full":
            idx = np.arange(n**3)
            got = convolve(f, spec, support_threshold=1e-9).values.reshape(-1)
        else:
            if outputs == "subset":
                idx = np.random.default_rng(n).choice(n**3, 128, replace=False)
            else:
                idx = _grid_symmetry_classes(f.shape)[0]
            got = convolve(f, spec, out_indices=idx, support_threshold=1e-9)
        assert np.max(np.abs(got - ref[idx]) / ref[idx]) <= 1e-12

    def test_out_indices_out_of_range(self):
        with pytest.raises(DomainError):
            convolve(gaussian_bump(BOX, (8, 8, 8)), KernelSpec(1.0, 1), out_indices=np.array([0, 512]))

    def test_out_indices_negative(self):
        with pytest.raises(DomainError):
            convolve(gaussian_bump(BOX, (8, 8, 8)), KernelSpec(1.0, 1), out_indices=np.array([3, -1]))

    def test_out_indices_non_integer(self):
        with pytest.raises(DomainError):
            convolve(gaussian_bump(BOX, (8, 8, 8)), KernelSpec(1.0, 1), out_indices=np.array([0.0, 1.0]))

    def test_linearity_exact(self):
        spec = KernelSpec(1.0, 1)
        f = gaussian_bump(BOX, (12, 12, 12), width=0.8)
        g = gaussian_bump(BOX, (12, 12, 12), width=0.5, center=HeisPoint(0.5 + 0j, 0.0))
        combo = GridFieldH(BOX, 2.0 * f.values - 3.0 * g.values)
        out = convolve(combo, spec)
        ref = 2.0 * convolve(f, spec).values - 3.0 * convolve(g, spec).values
        assert np.max(np.abs(out.values - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_near_delta_reproduces_kernel(self):
        spec = KernelSpec(1.0, 1)
        shape = (16, 16, 16)
        vals = np.zeros(shape)
        vals[8, 8, 8] = 1.0
        f = GridFieldH(BOX, vals)
        out = convolve(f, spec)
        z, t = f.points()
        src_z, src_t = z[8 * 256 + 8 * 16 + 8], t[8 * 256 + 8 * 16 + 8]
        far = np.abs(t - src_t) > 3.0
        from cryamabe.heisenberg import dist_zt

        d = dist_zt(z[far], t[far], np.full(far.sum(), src_z), np.full(far.sum(), src_t))
        expected = 4.0 * f.cell_volume * d**-3.0
        assert np.max(np.abs(out.values.reshape(-1)[far] - expected) / expected) < 0.05

    @pytest.mark.parametrize(
        "grid_N, kernel_N, kind",
        [(1, 2, "riesz"), (2, 1, "riesz"), (1, 1, "hyper")],
        ids=["kernel_N2", "grid_N2", "hyper"],
    )
    def test_unsupported_kernel_refused_before_work(self, grid_N, kernel_N, kind, monkeypatch):
        # the kernel tables and the sheared singular cell are written for
        # H^1, and a hypersingular kernel is not locally integrable.  A kernel
        # on H^2 is refused when its spec is built, an H^2 grid when it is built
        import cryamabe.riesz as rz

        def no_work(*args, **kwargs):
            raise AssertionError("the convolution started work before refusing the kernel")

        monkeypatch.setattr(rz, "_toeplitz_sum", no_work)
        n = 2 * grid_N + 1
        with pytest.raises(DomainError):
            convolve(gaussian_bump(BoxDomain((-3.0,) * n, (3.0,) * n), (8,) * n), KernelSpec(1.0, kernel_N, kind))

    @pytest.mark.parametrize("threshold", [1.0, 2.0, math.nan, -0.5])
    def test_support_threshold_refused_before_work(self, threshold, monkeypatch):
        # from 1 on no cell passes |v| > t max|v| and the output was all zero;
        # a negative threshold acted as 0
        import cryamabe.riesz as rz

        def no_work(*args, **kwargs):
            raise AssertionError("the convolution started work before refusing the threshold")

        monkeypatch.setattr(rz, "_toeplitz_sum", no_work)
        with pytest.raises(DomainError):
            convolve(gaussian_bump(BOX, (8, 8, 8), 0.6), KernelSpec(1.0), support_threshold=threshold)

    @pytest.mark.parametrize("alpha", [1.0, 2.0], ids=["riesz", "green"])
    def test_ring_is_a_t_only_average(self, alpha):
        # the ring tier's (1, 1, 6) split has no horizontal offset, so its mean
        # needs only |z_w|^2 and t_w; it must equal the general sub-cell mean
        # bit for bit, including at z_w = 0 and t_w = +-0
        spec = KernelSpec(alpha)
        grid = GridFieldH(BOX, np.zeros((24, 24, 16)))
        steps, axes = grid.steps, grid.axes()
        rng = np.random.default_rng(7)
        n = 4000
        xs, ys, xo, yo = (rng.choice(axes[i % 2], n) for i in range(4))
        xo[:200], yo[:200] = xs[:200], ys[:200]
        zz, twist = (np.diagonal(a).copy() for a in _pair_w(xs, ys, xo, yo))
        wt = rng.integers(-8, 9, n) * steps[-1] + twist
        wt[:100], wt[100:200] = 0.0, -0.0
        got = _t_mean(spec, zz, wt, _subcell_offsets(steps, (1, 1, 6))[2])
        ref = _subcell_mean(spec, xo - xs, yo - ys, wt, _subcell_offsets(steps, (1, 1, 6)))
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("outputs", ["full", "subset", "classes"])
    def test_near_pair_scan_matches_full_scan(self, outputs, monkeypatch):
        # every table entry a tier or the singular cell can take has
        # gsq <= ring_rad^2; scanning the near column pairs only must find
        # exactly the entries a scan of the whole table finds
        import cryamabe.riesz as rz

        scanned, near_entries = [], rz._near_entries

        def checked(gsq, zz, reach, ring_sq):
            found = near_entries(gsq, zz, reach, ring_sq)
            length = gsq.shape[-1]
            full = np.flatnonzero((gsq <= ring_sq) & (np.arange(length) <= reach[:, :, None]))
            assert np.array_equal(found[0], full)
            assert np.array_equal(found[1], gsq.reshape(-1)[full])
            assert np.array_equal(found[2], full // length)
            scanned.append(len(full))
            return found

        monkeypatch.setattr(rz, "_near_entries", checked)
        f = gaussian_bump(BOX, (16, 16, 16), width=0.5, center=HeisPoint(0.7 - 0.4j, 0.9))
        if outputs == "full":
            convolve(f, KernelSpec(1.0), support_threshold=1e-9)
        else:
            idx = np.random.default_rng(3).choice(16**3, 128, replace=False)
            if outputs == "classes":
                idx = _grid_symmetry_classes(f.shape)[0]
            convolve(f, KernelSpec(2.0), out_indices=idx, support_threshold=1e-9)
        assert sum(scanned) > 0

    def test_riesz_order_guard(self):
        # an order outside (0, Q) is refused when the spec is built, so no
        # convolution starts with it; the endpoints are outside for every kind
        f = gaussian_bump(BOX, (8, 8, 8))
        for kind in ("riesz", "hyper"):
            for alpha in (0.0, 4.0, 5.0):
                with pytest.raises(DomainError):
                    convolve(f, KernelSpec(alpha, 1, kind))


class TestSemigroup:
    def test_needs_evaluation_points(self, monkeypatch):
        # 2.5 and True raised numpy's TypeError after the inner convolution
        import cryamabe.riesz as rz

        def no_work(*args, **kwargs):
            raise AssertionError("the semigroup check started work before refusing n_eval")

        monkeypatch.setattr(rz, "gaussian_bump", no_work)
        for n_eval in (0, -3, 2.5, True, 4.0):
            with pytest.raises(DomainError):
                semigroup_check(shape=(16, 16, 16), n_eval=n_eval)

    @pytest.mark.parametrize(
        "grid",
        [
            {"shape": (8, 8, 8), "half_widths": (-4.0, 8.0)},  # a box with lo > hi ran silently
            {"shape": (16, 16)},  # raised a raw ValueError
            {"shape": (8,) * 5},  # raised a raw IndexError
            {"shape": 8},  # raised a raw TypeError
        ],
        ids=["negative_half_width", "two_axes", "five_axes", "not_a_sequence"],
    )
    def test_bad_grid_refused_before_work(self, grid, monkeypatch):
        import cryamabe.riesz as rz

        def no_work(*args, **kwargs):
            raise AssertionError("the semigroup check started work before refusing the grid")

        monkeypatch.setattr(rz, "gaussian_bump", no_work)
        monkeypatch.setattr(rz, "convolve", no_work)
        with pytest.raises(DomainError):
            semigroup_check(n_eval=4, **grid)

    def test_numpy_integer_sizes_accepted(self):
        # the grid took Python ints only while n_eval took any integral type
        ref = semigroup_check(shape=(16, 16, 16), n_eval=4)
        rep = semigroup_check(shape=(np.int64(16),) * 3, n_eval=np.int64(4))
        assert rep == ref and all(type(n) is int for n in rep["grid"])

    @pytest.mark.parametrize("n_out", [128, 100])  # 100 outputs: chunks of 327 nodes end mid-column
    def test_far_field_equals_per_pair_evaluation(self, n_out):
        # the z-terms are formed once per grid column of the walk; every
        # kernel value must be the per-pair one bit for bit.  Outputs come in
        # pairs that share a grid column.
        n = 24
        box = BoxDomain((-4.0, -4.0, -8.0), (4.0, 4.0, 8.0))
        z_all, t_all = GridFieldH(box, np.zeros((n,) * 3)).points()
        rng = np.random.default_rng(n_out)
        cols = rng.choice(n * n, n_out // 2, replace=False)
        levels = np.stack([rng.choice(n, 2, replace=False) for _ in cols])
        sub = rng.permutation((cols[:, None] * n + levels).reshape(-1))
        args = (box, z_all[sub], t_all[sub], 1.7, -3.0, -3.0, HaarMeasure())
        assert np.array_equal(_far_field_composition(*args), _ref_far_field(*args))

    def test_small_grid_shape_agreement(self):
        rep = semigroup_check(shape=(32, 32, 32), n_eval=256)
        assert rep["shape_residual"] < 0.10
        assert rep["fitted_constant"] > 0


class TestGreenInversion:
    def test_zero_input(self):
        f = GridFieldH(BOX, np.zeros((16, 16, 16)))
        rep = green_inversion_check(f, margin=3)
        assert rep["constant"] == 0.0 and rep["residual"] == 0.0

    def test_fit_against_local_operator(self):
        f = gaussian_bump(BOX, (32, 32, 32), width=0.6)
        rep = green_inversion_check(f, margin=4, centered_radial=True)
        # cross-check: the constant is the reciprocal p*-mass of the extremal
        # profile, 1/(8 pi) here; the coarse-grid fit carries an O(h_t) bias
        # that the two-resolution stability check bounds more tightly
        assert rep["constant"] == pytest.approx(1.0 / (8 * math.pi), rel=0.15)
        assert rep["residual"] < 0.15

    def test_translation_covariance_exact_on_lattice(self):
        # vertical lattice translations map the grid to itself, so the whole
        # discretized pipeline is exactly covariant
        shape = (24, 24, 24)
        ht = 12.0 / shape[2]
        centered = green_inversion_check(gaussian_bump(BOX, shape, width=0.6), margin=3)
        shifted = green_inversion_check(
            gaussian_bump(BOX, shape, width=0.6, center=HeisPoint(0.0j, 2 * ht)), margin=3
        )
        assert shifted["constant"] == pytest.approx(centered["constant"], rel=0.02)

    def test_translation_covariance_generic_shift(self):
        # generic shifts break lattice alignment; agreement is limited by the
        # t-anisotropy of the cells and tightens under refinement
        shape = (32, 32, 64)
        shifted = gaussian_bump(BOX, shape, width=0.6, center=HeisPoint(0.4 + 0.2j, 0.5))
        rep_shift = green_inversion_check(shifted, margin=4)
        centered = green_inversion_check(
            gaussian_bump(BOX, shape, width=0.6), margin=4, centered_radial=True
        )
        assert rep_shift["constant"] == pytest.approx(centered["constant"], rel=0.15)

    def test_grid_laplacian_needs_n1(self):
        # an H^2 grid is refused when it is built, before the operator sees it
        with pytest.raises(DomainError):
            grid_sub_laplacian(GridFieldH(BoxDomain((-1.0,) * 5, (1.0,) * 5), np.zeros((8,) * 5)))


class TestPrincipalValue:
    def test_constant_annihilated(self):
        const = lambda z, t: np.ones_like(t)
        assert pv_fractional(const, 1.0, HeisPoint(0.2 + 0.1j, 0.3)) == 0.0

    def test_interior_maximum_sign(self):
        bump = lambda z, t: np.exp(-(np.abs(z) ** 4 + t * t))
        val, sens = pv_fractional(bump, 1.0, ORIGIN, return_sensitivity=True)
        assert val > 0
        assert sens < 0.05 * val

    def test_alpha_range_guard(self):
        const = lambda z, t: np.ones_like(t)
        with pytest.raises(DomainError):
            pv_fractional(const, 2.5, ORIGIN)

    def test_other_N_refused_before_work(self, monkeypatch):
        # the H^2 inner shell alone walks 96^5 nodes; a point of H^2 is not a point
        import cryamabe.riesz as rz

        def no_work(*args, **kwargs):
            raise AssertionError("the PV operator started work before refusing N")

        monkeypatch.setattr(rz, "shell_nodes", no_work)
        const = lambda z, t: np.ones_like(t)
        with pytest.raises(DomainError):
            pv_fractional(const, 1.0, HeisPoint(np.zeros(2), 0.0))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_core_moment_closed_form(self, alpha):
        # the closed form against the quadrature it replaced: one annulus
        # 1/2 < gauge <= 1 on the 96-cell unit box, summed geometrically over
        # the dyadic annuli (ratio 2^(alpha-2)); it reads 4e-4 to 6e-4 high
        def annulus_density(z, t):
            g = gauge_zt(z, t)
            return np.where((g > 0.5) & (g <= 1.0), np.abs(z) ** 2 * g ** (-(4 + alpha)), 0.0)

        annulus, _ = integrate_decaying(annulus_density, 1, ShellScheme(1.0, 1, 96, 96))
        quadrature = annulus / (1.0 - 2.0 ** (alpha - 2.0))
        closed = _horizontal_moment_constant(alpha)
        assert closed == 4.0 * math.pi * KAPPA_H / (2.0 - alpha)
        assert abs(quadrature - closed) <= 1e-3 * closed

    def test_extremal_family_calibration(self):
        consts = YamabeConstants.create(1, 0.5)
        c_fit = fit_pv_constant(1.0, consts, n_points=6)
        rng = np.random.default_rng(3)
        om = bubble_field(STANDARD, consts)
        rels = []
        for _ in range(4):
            p = HeisPoint(0.7 * (rng.normal() + 1.0j * rng.normal()), float(rng.normal()))
            lhs = c_fit * pv_fractional(om, 1.0, p)
            rhs = float(bubble_eval_zt(STANDARD, p.z, np.asarray(p.t), consts)) ** (consts.p_star - 1.0)
            rels.append(abs(lhs - rhs) / rhs)
        assert max(rels) < 0.05

    def test_local_limit_recorded(self):
        # alpha -> 2 cross-check against the local operator; low accuracy by
        # construction, so the aggregate comparison is recorded, not pinned
        consts = YamabeConstants.create(1, 0.95)
        c_fit = fit_pv_constant(1.9, consts, n_points=5)
        bump = lambda z, t: np.exp(-(np.abs(z) ** 4 + t * t))
        rng = np.random.default_rng(4)
        lhs, rhs = [], []
        for _ in range(6):
            p = HeisPoint(0.5 * (rng.normal() + 1.0j * rng.normal()), 0.5 * float(rng.normal()))
            lhs.append(c_fit * pv_fractional(bump, 1.9, p))
            rhs.append(float(-sub_laplacian(bump, p.z, np.asarray(p.t), h=1e-3)))
        lhs, rhs = np.asarray(lhs), np.asarray(rhs)
        aggregate = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
        assert aggregate < 0.5  # regression guard only


class TestMappingBound:
    def test_probe_finite_and_stable(self):
        rep = mapping_bound_probe(1.0, q=2.0, n_bumps=8, shape=(20, 20, 20), seed=5)
        assert math.isfinite(rep["max_ratio"]) and rep["max_ratio"] > 0
        assert rep["spread"] < 3.0

    def test_needs_a_bump(self, monkeypatch):
        # 2.5 raised Python's TypeError from range()
        import cryamabe.riesz as rz

        def no_work(*args, **kwargs):
            raise AssertionError("the probe started work before refusing n_bumps")

        monkeypatch.setattr(rz, "gaussian_bump", no_work)
        for n_bumps in (0, 2.5, True, 3.0):
            with pytest.raises(DomainError):
                mapping_bound_probe(1.0, q=2.0, n_bumps=n_bumps)

    def test_exponent_relation_guard(self):
        with pytest.raises(DomainError):
            mapping_bound_probe(3.5, q=2.0)

    @pytest.mark.parametrize("q", [0.0, 0.5, -2.0, math.nan, math.inf])
    def test_exponent_q_refused_before_work(self, q, monkeypatch):
        import cryamabe.riesz as rz

        def no_work(*args, **kwargs):
            raise AssertionError("the probe started work before refusing q")

        monkeypatch.setattr(rz, "gaussian_bump", no_work)
        monkeypatch.setattr(rz, "convolve", no_work)
        with pytest.raises(DomainError):
            mapping_bound_probe(1.0, q=q)
