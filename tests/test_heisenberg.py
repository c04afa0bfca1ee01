import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cryamabe.errors import DivergentIntegralError, DomainError
from cryamabe.heisenberg import (
    _SUB_BLOCK,
    KAPPA_H,
    _WALK_BLOCK,
    BoxDomain,
    HeisPoint,
    ShellScheme,
    _box_grid,
    _flow_stencil,
    dilate_zt,
    dist_zt,
    gauge_zt,
    integrate_decaying,
    inv_zt,
    koranyi_ball_volume,
    mul_zt,
    shell_nodes,
    sub_laplacian,
    vector_field,
)
from cryamabe.spectral import SPHERE_MASS

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


ORIGIN = HeisPoint(0.0, 0.0)


@st.composite
def points(draw):
    return HeisPoint(draw(finite) + 1.0j * draw(finite), draw(finite))


# the group operations on single points, through the array kernels
def group_mul(p, q):
    z, t = mul_zt(p.z, p.t, q.z, q.t)
    return HeisPoint(z, float(t))


def group_inv(p):
    return HeisPoint(*inv_zt(p.z, p.t))


def dilate(lam, p):
    return HeisPoint(*dilate_zt(lam, p.z, p.t))


def gauge(p):
    return float(gauge_zt(p.z, p.t))


def is_close(p, q, tol=1e-12):
    return bool(abs(p.z - q.z) <= tol and abs(p.t - q.t) <= tol)


class TestGroupLaw:
    def test_identity(self):
        e = ORIGIN
        p = HeisPoint(0.3 + 0.1j, -0.7)
        assert is_close(group_mul(e, p), p)
        assert is_close(group_mul(p, e), p)

    def test_twist_example(self):
        p = HeisPoint(1.0 + 0j, 0.0)
        q = HeisPoint(1.0j, 0.0)
        r = group_mul(p, q)
        assert r.z == 1.0 + 1.0j and r.t == -2.0

    def test_inverse_values(self):
        assert is_close(group_inv(ORIGIN), ORIGIN)
        p = group_inv(HeisPoint(1.0j, 3.0))
        assert p.z == -1.0j and p.t == -3.0

    @settings(max_examples=60, deadline=None)
    @given(points(), points(), points())
    def test_associativity(self, a, b, c):
        lhs = group_mul(group_mul(a, b), c)
        rhs = group_mul(a, group_mul(b, c))
        assert is_close(lhs, rhs, tol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(points())
    def test_inverse_axiom(self, p):
        assert is_close(group_mul(p, group_inv(p)), ORIGIN, tol=1e-12)
        assert is_close(group_inv(group_inv(p)), p)

    def test_finite_validation(self):
        with pytest.raises(DomainError):
            HeisPoint(np.nan + 0j, 0.0)
        with pytest.raises(DomainError):
            HeisPoint(0.0j, math.inf)

    def test_one_complex_coordinate(self):
        # a size-1 array is the coordinate; a point of C^2 is not a point of H^1
        p = HeisPoint(np.array([0.5 - 0.25j]), 1.0)
        assert p.z.shape == () and p.z == 0.5 - 0.25j
        for z in ([0.5, 1j], np.zeros(0), np.zeros((2, 2))):
            with pytest.raises(DomainError):
                HeisPoint(z, 0.0)


class TestDilations:
    def test_identity_map(self):
        p = HeisPoint(0.5 - 0.2j, 1.1)
        assert is_close(dilate(1.0, p), p)

    def test_substitution(self):
        p = dilate(2.0, HeisPoint(1.0 + 0j, 3.0))
        assert p.z == 2.0 + 0j and p.t == 12.0

    @settings(max_examples=40, deadline=None)
    @given(points(), st.floats(min_value=0.05, max_value=8.0))
    def test_group_property(self, p, lam):
        assert is_close(dilate(1.0 / lam, dilate(lam, p)), p, tol=1e-11)
        assert gauge(dilate(lam, p)) == pytest.approx(lam * gauge(p), abs=1e-11)


class TestGaugeAndDistance:
    def test_gauge_pure_parts(self):
        assert gauge(HeisPoint(3.0 + 4.0j, 0.0)) == pytest.approx(5.0, abs=1e-14)
        assert gauge(HeisPoint(0.0j, 9.0)) == pytest.approx(3.0, abs=1e-14)

    def test_left_invariance_batch(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=10_000) + 1.0j * rng.normal(size=10_000)
        t = rng.normal(size=10_000)
        za, ta = rng.normal(size=10_000) + 1.0j * rng.normal(size=10_000), rng.normal(size=10_000)
        zb, tb = rng.normal(size=10_000) + 1.0j * rng.normal(size=10_000), rng.normal(size=10_000)
        d1 = dist_zt(*mul_zt(z, t, za, ta), *mul_zt(z, t, zb, tb))
        d2 = dist_zt(za, ta, zb, tb)
        assert np.max(np.abs(d1 - d2)) < 1e-12

    def test_self_distance_zero(self):
        # the twist term cancels only up to one rounding when FMA is in play,
        # and the fourth root amplifies that to ~1e-9
        p = HeisPoint(0.2 + 0.9j, -0.4)
        assert float(dist_zt(p.z, p.t, p.z, p.t)) <= 1e-8

    def test_quasi_triangle_constant(self):
        rng = np.random.default_rng(1)
        n = 10_000
        mk = lambda: (rng.normal(size=n) + 1.0j * rng.normal(size=n), rng.normal(size=n))
        (za, ta), (zb, tb), (zc, tc) = mk(), mk(), mk()
        K = np.max(dist_zt(za, ta, zb, tb) / (dist_zt(za, ta, zc, tc) + dist_zt(zc, tc, zb, tb)))
        assert K <= 2.0


class TestDerivatives:
    def test_constant_field(self):
        f = lambda z, t: np.ones_like(t)
        z, t = np.array([0.3 + 0.2j]), np.array([0.1])
        for which in ("X", "Y", "T"):
            assert abs(vector_field(which, f, z, t)[0]) < 1e-12
        assert abs(sub_laplacian(f, z, t)[0]) < 1e-12

    def test_vertical_coordinate(self):
        f = lambda z, t: t
        z, t = np.array([0.7 + 0.4j]), np.array([0.0])
        assert vector_field("X", f, z, t)[0] == pytest.approx(2 * 0.4, abs=1e-10)
        assert vector_field("Y", f, z, t)[0] == pytest.approx(-2 * 0.7, abs=1e-10)
        assert vector_field("T", f, z, t)[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(sub_laplacian(f, z, t)[0]) < 1e-10

    def test_horizontal_coordinate(self):
        f = lambda z, t: z.real
        z, t = np.array([0.7 + 0.4j]), np.array([0.3])
        assert vector_field("X", f, z, t)[0] == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DomainError):
            vector_field(("X", 1), f, z, t)

    def test_sub_laplacian_radial_square(self):
        f = lambda z, t: (z * np.conj(z)).real
        z, t = np.array([0.5 - 0.1j]), np.array([0.2])
        assert sub_laplacian(f, z, t)[0] == pytest.approx(1.0, abs=1e-8)

    def test_left_invariance(self):
        f = lambda z, t: np.sin(z.real + t) * np.exp(-(z.imag**2))
        rng = np.random.default_rng(2)
        a = HeisPoint(rng.normal() + 1.0j * rng.normal(), float(rng.normal()))
        z = rng.normal(size=50) + 1.0j * rng.normal(size=50)
        t = rng.normal(size=50)
        shifted = lambda zz, tt: f(*mul_zt(a.z, a.t, zz, tt))
        za, ta = mul_zt(a.z, a.t, z, t)
        for which in ("X", "Y"):
            lhs = vector_field(which, shifted, z, t, h=1e-4)
            rhs = vector_field(which, f, za, ta, h=1e-4)
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_scaling_covariance(self):
        f = lambda z, t: np.cos(z.real) * z.imag + np.sin(t)
        rng = np.random.default_rng(3)
        z = rng.normal(size=50) + 1.0j * rng.normal(size=50)
        t = rng.normal(size=50)
        lam = 1.7
        scaled = lambda zz, tt: f(lam * zz, lam * lam * tt)
        lhs = sub_laplacian(scaled, z, t, h=1e-4)
        rhs = lam * lam * sub_laplacian(f, lam * z, lam * lam * t, h=1e-4)
        # both sides are O(h^2) approximations of the same covariant value
        assert np.max(np.abs(lhs - rhs)) < 1e-4


class TestHaarQuadrature:
    def test_bubble_mass_matches_sphere_transport(self):
        # int omega^{p*} dv_H equals u0^{p*} times the sphere volume mass,
        # which collapses to pi^2 for N = 1, k = 1
        from cryamabe.energy import BubbleParams, YamabeConstants, bubble_eval_zt

        consts = YamabeConstants.create(1.0)
        val, shells = integrate_decaying(
            lambda z, t: bubble_eval_zt(BubbleParams(1.0, ORIGIN), z, t, consts) ** 4,
            1,
            ShellScheme(l0=2.0, n_shells=7, n_inner=96, n_shell=48),
        )
        exact = consts.u0**4 * SPHERE_MASS
        assert exact == pytest.approx(math.pi**2, rel=1e-12)
        assert val == pytest.approx(exact, rel=2e-3)
        assert abs(shells[-1]) < 1e-5 * abs(val)

    def test_divergent_tail_diagnosed(self):
        with pytest.raises(DivergentIntegralError):
            integrate_decaying(lambda z, t: np.ones_like(t), 1, ShellScheme(n_shells=5))

    def test_ball_volume_closed_form(self):
        assert koranyi_ball_volume(1.0) / KAPPA_H == pytest.approx(math.pi**2 / 2.0, rel=1e-15)
        assert koranyi_ball_volume(2.0) == pytest.approx(KAPPA_H * 8.0 * math.pi**2, rel=1e-15)
        # midpoint rule on the (x, y) square with the t-extent 2 sqrt(1 - |z|^4)
        # of the unit gauge ball integrated exactly
        n = 400
        h = 2.0 / n
        c = -1.0 + h * (np.arange(n) + 0.5)
        r2 = c[:, None] ** 2 + c[None, :] ** 2
        box = h**2 * float(np.sum(2.0 * np.sqrt(np.clip(1.0 - r2 * r2, 0.0, None))))
        assert koranyi_ball_volume(1.0) / KAPPA_H == pytest.approx(box, rel=5e-4)

    def test_haar_measure_validation(self):
        # dv_H is KAPPA_H times Lebesgue measure: the box [-1, 1]^3 has dv_H volume 8 KAPPA_H
        val, _ = integrate_decaying(lambda z, t: np.ones_like(t), 1, ShellScheme(l0=1.0, n_shells=1, n_inner=4, n_shell=4))
        assert KAPPA_H == 4.0 and val == 8.0 * KAPPA_H
        with pytest.raises(DomainError):
            _box_grid(BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 0)

    @pytest.mark.parametrize("call", ["integrate_decaying", "koranyi_box"])
    def test_other_N_refused_before_work(self, call):
        # at N = 2 the walk once ran on 5-d shells
        def no_work(z, t):
            raise AssertionError("the integrand was evaluated before N was refused")

        with pytest.raises(DomainError):
            if call == "integrate_decaying":
                integrate_decaying(no_work, 2, ShellScheme(l0=1.0, n_shells=2, n_inner=4, n_shell=4))
            else:
                BoxDomain.koranyi(2, 1.0)


def _unblocked_shells(scheme, center=None):
    """The nested-shell loop as written before the walker: whole shells at once."""
    out = []
    L = scheme.l0
    for i in range(scheme.n_shells):
        n = scheme.n_inner if i == 0 else scheme.n_shell
        axes, cell = _box_grid(BoxDomain.koranyi(1, L), (n, n, n))
        x, y, t = (m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij"))
        z = x + 1.0j * y
        if i > 0:
            Lin = L / 2.0
            xy_in = (np.abs(z.real) <= Lin) & (np.abs(z.imag) <= Lin)
            keep = ~(xy_in & (np.abs(t) <= Lin * Lin))
            z, t = z[keep], t[keep]
        if center is not None:
            z, t = mul_zt(center.z, center.t, z, t)
        out.append((z, t, cell))
        L *= 2.0
    return out


class TestShellWalker:
    # the ids keep the "1" of the N = 1 cases from when the walker took N
    @pytest.mark.parametrize(
        "scheme",
        [
            ShellScheme(l0=1.5, n_shells=4, n_inner=64, n_shell=48),
            ShellScheme(l0=0.7, n_shells=3, n_inner=36, n_shell=80),
        ],
        ids=["1-scheme0", "1-scheme1"],
    )
    @pytest.mark.parametrize("center", [None, HeisPoint(0.3 - 0.8j, 1.7)])
    def test_same_nodes_and_weights_as_unblocked_loop(self, scheme, center):
        blocks = list(shell_nodes(scheme, center))
        assert all(len(t) <= 2**15 and z.shape == t.shape for _, z, t, _ in blocks)
        assert [i for i, _, _, _ in blocks] == sorted(i for i, _, _, _ in blocks)
        for i, (z_ref, t_ref, cell_ref) in enumerate(_unblocked_shells(scheme, center)):
            mine = [b for b in blocks if b[0] == i]
            assert all(cell == cell_ref for _, _, _, cell in mine)
            assert np.array_equal(np.concatenate([b[1] for b in mine]), z_ref)
            assert np.array_equal(np.concatenate([b[2] for b in mine]), t_ref)

    @pytest.mark.parametrize(
        "scheme",
        [ShellScheme(8.0, 3, 32, 32), ShellScheme(l0=1.5, n_shells=3, n_inner=64, n_shell=48)],
        ids=["far_field", "columns_split_by_blocks"],
    )
    def test_grid_columns_are_runs_with_t_increasing(self, scheme):
        # t is the fastest axis: in every block each distinct z is one run of
        # consecutive nodes with t increasing, in shell 0 and in the shells
        # that lose the inner box (the far field's per-column tables need it)
        seen = set()
        for i, z, t, _ in shell_nodes(scheme):
            seen.add(i)
            new = np.ones(len(t), dtype=bool)
            new[1:] = z[1:] != z[:-1]
            starts = np.flatnonzero(new)
            assert len(np.unique(z[starts])) == len(starts)
            assert np.all(np.diff(t)[~new[1:]] > 0)
        assert seen == set(range(scheme.n_shells))

    def test_stacked_integrand_equals_scalar_calls(self):
        from cryamabe.energy import BubbleParams, YamabeConstants, bubble_eval_zt

        consts = YamabeConstants.create(1.0)
        rows = (
            lambda z, t: bubble_eval_zt(BubbleParams(1.0, ORIGIN), z, t, consts) ** 4,
            lambda z, t: np.exp(-(np.abs(z) ** 4 + t * t)),
            lambda z, t: np.sin(t) / (1.0 + np.abs(z) ** 2 + np.abs(t)) ** 4,
        )
        scheme = ShellScheme(l0=1.0, n_shells=5, n_inner=40, n_shell=32)
        centre = HeisPoint(0.4 + 0.2j, -0.3)
        values, shells = integrate_decaying(
            lambda z, t: np.stack([f(z, t) for f in rows]), 1, scheme, center=centre
        )
        assert len(values) == len(shells) == len(rows)
        for f, v, sh in zip(rows, values, shells):
            v_ref, sh_ref = integrate_decaying(f, 1, scheme, center=centre)
            assert abs(v - v_ref) <= 1e-15 * abs(v_ref)
            assert np.max(np.abs(np.subtract(sh, sh_ref))) <= 1e-15 * max(map(abs, sh_ref))

    def test_growing_row_of_a_stack_diagnosed(self):
        decaying = lambda z, t: np.exp(-(np.abs(z) ** 4 + t * t))  # noqa: E731
        scheme = ShellScheme(n_shells=5)
        integrate_decaying(lambda z, t: np.stack([decaying(z, t), decaying(z, t)]), 1, scheme)
        with pytest.raises(DivergentIntegralError):
            integrate_decaying(lambda z, t: np.stack([decaying(z, t), np.ones_like(t)]), 1, scheme)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_sub_blocks_sum_as_whole_walk_blocks(self, stacked):
        from cryamabe.energy import BubbleParams, YamabeConstants, bubble_eval_zt

        consts = YamabeConstants.create(1.0)

        def f(z, t):
            rows = [
                bubble_eval_zt(BubbleParams(1.0, ORIGIN), z, t, consts) ** 4,
                np.exp(-(np.abs(z) ** 4 + t * t)),
                np.sin(t) / (1.0 + np.abs(z) ** 2 + np.abs(t)) ** 4,
            ]
            return np.stack(rows) if stacked else rows[0]

        sizes = []

        def sub_block_only(z, t):
            if len(t) > _SUB_BLOCK:
                raise AssertionError(f"integrand got {len(t)} nodes")
            sizes.append(len(t))
            return f(z, t)

        # 64^3 inner nodes in 8 walk blocks, then two shells of 4 blocks each,
        # whose blocks lose the nodes of the inner box
        scheme = ShellScheme(l0=1.5, n_shells=3, n_inner=64, n_shell=48)
        centre = HeisPoint(0.4 + 0.2j, -0.3)
        values, shells = integrate_decaying(sub_block_only, 1, scheme, center=centre)
        ref_values, ref_shells = _whole_block_integral(f, scheme, centre)
        assert _SUB_BLOCK < _WALK_BLOCK and len(sizes) > len(list(shell_nodes(scheme, centre)))
        assert sum(sizes) == sum(len(t) for _, _, t, _ in shell_nodes(scheme, centre))
        if stacked:
            assert values == ref_values and shells == ref_shells
        else:
            assert values == ref_values[0] and shells == ref_shells[0]


def _whole_block_integral(f, scheme, center=None):
    """The per-shell sums of integrate_decaying with f called once per walk block."""
    acc = [0.0] * scheme.n_shells
    for i, z, t, cell in shell_nodes(scheme, center):
        acc[i] = acc[i] + KAPPA_H * cell * np.sum(np.asarray(f(z, t)), axis=-1)
    shells = np.stack(acc, axis=-1).reshape(-1, scheme.n_shells).tolist()
    return [sum(row) for row in shells], shells


def _mul_zt_stencil(z, t, h):
    """The points p.(+-h, 0) of X and p.(+-ih, 0) of Y through the general group law."""
    hh = np.asarray(h, dtype=np.float64)
    zeros = np.zeros_like(t)
    for kind, unit in (("X", 1.0 + 0j), ("Y", 1.0j)):
        he = hh * unit
        yield kind, mul_zt(z, t, he, zeros), mul_zt(z, t, -he, zeros)


class TestFlowStencil:
    # the ids keep the "1" of the N = 1 cases from when the stencil looped over N
    @pytest.mark.parametrize("per_point", [False, True], ids=["False-1", "True-1"])
    def test_axis_aligned_points_equal_the_group_law(self, per_point):
        rng = np.random.default_rng(12)
        z = rng.normal(size=301) + 1.0j * rng.normal(size=301)
        t = rng.normal(size=301)
        h = 0.01 * (1.0 + gauge_zt(z, t)) if per_point else 0.013
        mine, ref = list(_flow_stencil(z, t, h)), list(_mul_zt_stencil(z, t, h))
        assert [kind for kind, _, _ in mine] == [kind for kind, _, _ in ref] == ["X", "Y"]
        for (_, (zp, tp), (zm, tm)), (_, (zpr, tpr), (zmr, tmr)) in zip(mine, ref):
            # every x_j and y_j is nonzero, so each t-shift is too and its sign shows
            assert np.all(tp != t) and np.all(tm != t)
            for a, b in ((zp, zpr), (tp, tpr), (zm, zmr), (tm, tmr)):
                assert np.array_equal(a, b)
