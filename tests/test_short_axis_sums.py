"""The coordinate-axis sums of the array kernels, against their np.sum form.

The kernels add the N (or N + 1) components of a point one at a time
(``heisenberg._sum_last``) where they once called np.sum(..., axis=-1).  The
reference functions below are those np.sum forms.  Every value must agree to
the bit, signed zeros included, at N = 1 and N = 2.
"""

import numpy as np
import pytest

from cryamabe.bubbling import CutoffSpec, _smoothstep5
from cryamabe.cayley import cayley_zt, lambda_cayley_zt, sphere_dist_zeta
from cryamabe.energy import YamabeConstants, bubble_shape_zt
from cryamabe.heisenberg import gauge_zt, hermitian_im, homogeneous_dim


def _ref_hermitian_im(z1, z2):
    return np.sum(z1 * np.conj(z2), axis=-1).imag


def _ref_gauge(z, t):
    return np.sqrt(np.hypot(np.sum((z * np.conj(z)).real, axis=-1), t))


def _ref_cayley(z, t):
    P = 1.0 + np.sum((z * np.conj(z)).real, axis=-1) - 1.0j * t
    return np.concatenate([2.0 * z / P[..., None], ((2.0 - P) / P)[..., None]], axis=-1)


def _ref_lambda_cayley(z, t):
    N = z.shape[-1]
    D = (1.0 + np.sum((z * np.conj(z)).real, axis=-1)) ** 2 + t * t
    return (2.0 ** homogeneous_dim(N)) / D ** (N + 1)


def _ref_sphere_dist(a, b):
    return np.sqrt(2.0 * np.abs(1.0 - np.sum(a * np.conj(b), axis=-1)))


def _ref_bubble_shape(z, t, constants):
    D = (1.0 + np.sum((z * np.conj(z)).real, axis=-1)) ** 2 + t * t
    return constants.cQ * D ** (-(constants.Q - 2.0 * constants.k) / 4.0)


def _ref_cutoff(cut, zeta):
    d2 = 2.0 * np.abs(1.0 - np.sum(zeta * np.conj(cut.center), axis=-1))
    x = (d2 - cut.r_inner**2) / (cut.r_outer**2 - cut.r_inner**2)
    return 1.0 - _smoothstep5(x)


def _same_bits(got, ref):
    got, ref = (np.ascontiguousarray(np.atleast_1d(a)) for a in (got, ref))
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got.view(np.uint8), ref.view(np.uint8))


def _blocks(N, seed):
    """Group points (z, t) and sphere points: random blocks, a single point, signed zeros."""
    rng = np.random.default_rng(seed)
    for n in (1, 7, 4099):
        z = rng.normal(size=(n, N)) * 3.0 + 1.0j * rng.normal(size=(n, N)) * 3.0
        t = rng.normal(size=n) * 9.0
        zr, zi = z.real.copy(), z.imag.copy()
        zr[rng.random(zr.shape) < 0.3] = -0.0
        zi[rng.random(zi.shape) < 0.3] = -0.0
        zr[0], zi[0], t[0] = -0.0, -0.0, -0.0  # a point with every component -0.0
        z = zr + 1.0j * zi
        t[rng.random(n) < 0.2] = -0.0
        zeta = cayley_zt(z, t)
        yield z, t, zeta
        yield z[-1], t[-1], zeta[-1]  # one point, no leading axis


@pytest.mark.parametrize("N", [1, 2])
def test_kernels_equal_their_np_sum_form(N):
    constants = YamabeConstants.create(N, 1.0)
    center = np.zeros(N + 1, dtype=np.complex128)
    center[0] = 1.0
    cut = CutoffSpec(center)
    for seed in range(3):
        for z, t, zeta in _blocks(N, seed):
            w = z[::-1] if z.ndim > 1 else -z
            _same_bits(hermitian_im(z, w), _ref_hermitian_im(z, w))
            _same_bits(hermitian_im(z, z), _ref_hermitian_im(z, z))
            _same_bits(gauge_zt(z, t), _ref_gauge(z, t))
            _same_bits(cayley_zt(z, t), _ref_cayley(z, t))
            _same_bits(lambda_cayley_zt(z, t), _ref_lambda_cayley(z, t))
            _same_bits(bubble_shape_zt(z, t, constants), _ref_bubble_shape(z, t, constants))
            for c in (center, zeta if zeta.ndim == 1 else zeta[0]):
                _same_bits(sphere_dist_zeta(zeta, c), _ref_sphere_dist(zeta, c))
            _same_bits(cut.value(zeta), _ref_cutoff(cut, zeta))
