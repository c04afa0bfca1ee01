"""Numerical laboratory for the fractional CR Yamabe problem.

Core layers: Heisenberg group algebra and quadrature (:mod:`heisenberg`),
the Cayley conformal equivalence (:mod:`cayley`), bidegree harmonic analysis
on the CR sphere (:mod:`spectral`), critical-exponent energies and bubbles
(:mod:`energy`), concentration/bubbling experiments (:mod:`bubbling`),
homogeneous kernel calculus (:mod:`riesz`), and symmetry-restricted critical
point searches (:mod:`minimax`).  The command line driver lives in
:mod:`cli`.
"""

from .heisenberg import (
    HaarMeasure,
    HeisPoint,
    ScalarFieldH,
    dilate,
    group_inv,
    group_mul,
    haar_integral,
    koranyi_dist,
    koranyi_gauge,
    sub_laplacian,
    vector_field,
)
from .cayley import (
    ConformalChart,
    SpherePoint,
    cayley,
    cayley_inv,
    conformal_pullback,
    conformal_pushforward,
    lambda_cayley,
    sphere_dist,
)
from .spectral import (
    HarmonicBasis,
    SphereQuadrature,
    SpectralFunction,
    analyze,
    apply_A2_differential,
    apply_A2k,
    build_basis,
    dim_H,
    lambda_jk,
    monomial_moment,
    norm_Hk,
    norm_H_minus_k,
    pairing,
    synthesize,
)
from .energy import (
    BubbleParams,
    YamabeConstants,
    YamabeProblem,
    bubble_eval,
    constant_solution,
    energy_heis,
    p_star,
    sobolev_constant,
)

__version__ = "0.1.0"
