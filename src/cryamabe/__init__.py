"""Numerical laboratory for the fractional CR Yamabe problem.

Core layers: algebra and quadrature on the Heisenberg group H^1 (:mod:`heisenberg`),
the Cayley conformal equivalence (:mod:`cayley`), bidegree harmonic analysis
on the CR sphere (:mod:`spectral`), critical-exponent energies and bubbles
(:mod:`energy`), concentration/bubbling experiments (:mod:`bubbling`),
homogeneous kernel calculus (:mod:`riesz`), and symmetry-restricted critical
point searches (:mod:`minimax`).  The command line driver lives in
:mod:`cli`.
"""

__version__ = "0.1.0"
