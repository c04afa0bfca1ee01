"""The coordinate-axis sums of the sphere kernels, against their np.sum form.

The kernels on sphere points zeta in C^{N+1} add the components one at a time
(``heisenberg._sum_last``) where they once called np.sum(..., axis=-1).  The
reference functions below are those np.sum forms.  Every value must agree to
the bit, signed zeros included, at N = 1 and N = 2.  Group points carry one
complex coordinate and no axis to sum.
"""

import numpy as np
import pytest

from cryamabe.bubbling import CutoffSpec, _smoothstep5
from cryamabe.cayley import sphere_dist_zeta


def _ref_sphere_dist(a, b):
    return np.sqrt(2.0 * np.abs(1.0 - np.sum(a * np.conj(b), axis=-1)))


def _ref_cutoff(cut, zeta):
    d2 = 2.0 * np.abs(1.0 - np.sum(zeta * np.conj(cut.center), axis=-1))
    x = (d2 - cut.r_inner**2) / (cut.r_outer**2 - cut.r_inner**2)
    return 1.0 - _smoothstep5(x)


def _same_bits(got, ref):
    got, ref = (np.ascontiguousarray(np.atleast_1d(a)) for a in (got, ref))
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got.view(np.uint8), ref.view(np.uint8))


def _blocks(N, seed):
    """Sphere points of C^{N+1}: random blocks, a single point, signed zeros."""
    rng = np.random.default_rng(seed)
    for n in (1, 7, 4099):
        zr, zi = rng.normal(size=(n, N + 1)), rng.normal(size=(n, N + 1))
        zr[rng.random(zr.shape) < 0.3] = -0.0
        zi[rng.random(zi.shape) < 0.3] = -0.0
        zr[0, :-1], zi[0, :-1] = -0.0, -0.0  # a point with every component but one -0.0
        zr[~np.any((zr != 0) | (zi != 0), axis=-1), -1] = 1.0  # no point at 0 before normalizing
        zeta = zr + 1.0j * zi
        zeta /= np.linalg.norm(zeta, axis=-1)[:, None]
        yield zeta
        yield zeta[-1]  # one point, no leading axis


@pytest.mark.parametrize("N", [1, 2])
def test_kernels_equal_their_np_sum_form(N):
    center = np.zeros(N + 1, dtype=np.complex128)
    center[0] = 1.0
    cut = CutoffSpec(center)
    for seed in range(3):
        for zeta in _blocks(N, seed):
            for c in (center, zeta if zeta.ndim == 1 else zeta[0]):
                _same_bits(sphere_dist_zeta(zeta, c), _ref_sphere_dist(zeta, c))
            _same_bits(cut.value(zeta), _ref_cutoff(cut, zeta))
