"""Symmetry-restricted subspaces and Nehari-constrained critical point searches.

Two commuting constraints act diagonally on the bidegree blocks: invariance
under the phase circle zeta -> e^{i theta} zeta keeps exactly the blocks with
j = l, and oddness under the antipodal map keeps exactly the blocks with
j + l odd.  The antipodal map is the phase rotation at theta = pi, so the two
masks are provably incompatible: j = l forces j + l even at every truncation.
Requesting both therefore raises MaskEmptyError, and the combined search
degrades to the odd mask (the component that excludes constants and forces
sign changes), recording the degradation in its report.

The energy is invariant under the unitary group U(N+1), which maps each
bidegree block H_{j,l} to itself.  ``invariance_check`` measures that: a
unitary g acts on the bidegree-(a, b) part of a polynomial through its
symmetric powers, taking the coefficient matrix C over (alpha_1, beta_1) to
Sym^a(g)^T C conj(Sym^b(g)), so u o g is exact on the quadrature without
evaluating u at rotated points.

Critical points are searched by preconditioned descent restricted to the
Nehari normalization, where the energy reduces to a positive multiple of the
squared Sobolev norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, MaskEmptyError
from .energy import YamabeProblem
from .spectral import SpectralFunction, h_minus_k_form, norm_Hk

Array = np.ndarray


@dataclass(frozen=True)
class SubgroupSpec:
    """Flags selecting the symmetry constraints.

    ``hopf_invariant``: invariance under the diagonal phase action (circle
    orbits accumulate everywhere).  ``antipodal_odd``: equivariance
    u(-zeta) = -u(zeta) under the antipodal involution.
    """

    hopf_invariant: bool = False
    antipodal_odd: bool = False

    def __post_init__(self):
        if not (self.hopf_invariant or self.antipodal_odd):
            raise DomainError("at least one symmetry flag must be set")

    @property
    def name(self) -> str:
        parts = []
        if self.hopf_invariant:
            parts.append("hopf")
        if self.antipodal_odd:
            parts.append("odd")
        return "+".join(parts)


def mask_for(G: SubgroupSpec, basis) -> Array:
    """Boolean mask over basis elements kept by the invariance constraints."""
    keep = np.ones(basis.n_basis, dtype=bool)
    if G.hopf_invariant:
        keep &= basis.labels_j == basis.labels_l
    if G.antipodal_odd:
        keep &= (basis.labels_j + basis.labels_l) % 2 == 1
    if not np.any(keep):
        raise MaskEmptyError(
            f"mask {G.name!r} selects no coefficients: the phase circle contains "
            "the antipodal map, so invariant blocks (j = l) are all antipodally even"
        )
    return keep


def invariance_check(u: SpectralFunction, g: Array, prob: YamabeProblem) -> float:
    """|E(u) - E(u o g)| for a unitary g acting on C^{N+1}.

    u o g is synthesized on the quadrature by rotating u's bidegree blocks
    with the symmetric powers of g (``SphereQuadrature.rotated_values``),
    exact to rounding, and analyzed back onto the basis.  A g that is not
    finite, not square of side N+1 or not unitary to 1e-10 is refused before
    any work.
    """
    g = np.asarray(g, dtype=np.complex128)
    n = u.basis.N + 1
    if g.shape != (n, n) or not np.all(np.isfinite(g)) or np.max(np.abs(g.conj().T @ g - np.eye(n))) > 1e-10:
        raise DomainError("group element must be a finite unitary matrix on C^{N+1}")
    u_rot = prob.analyze(prob.quad.rotated_values(u.coeffs, u.basis, g))
    return abs(prob.energy(u) - prob.energy(u_rot))


def random_unitary(n: int, rng: np.random.Generator) -> Array:
    g = rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :].conj()


# ---------------------------------------------------------------------------
# Nehari normalization and the search


def nehari_rescale(u: SpectralFunction, prob: YamabeProblem) -> SpectralFunction:
    """Scale u so that its Sobolev norm squared equals its p*-mass.

    On the resulting ray point, E = (1/2 - 1/p*) ||u||^2.
    """
    k = prob.constants.k
    nsq = norm_Hk(u, k) ** 2
    if nsq == 0.0:
        raise DomainError("cannot normalize the zero function")
    mass = prob.lp_star_mass(u)
    t = (nsq / mass) ** (1.0 / (prob.constants.p_star - 2.0))
    return u.copy_with(t * u.coeffs)


@dataclass
class CriticalPointReport:
    candidate: SpectralFunction
    energy: float
    residual: float
    residual_full: float
    distance_to_bubble_level: float
    iterations: int
    converged: bool
    seed_index: int
    mask_name: str
    mask_degraded: bool = False
    message: str = ""
    nl_tail: float = 0.0  # quadrature L^2 mass of |u|^{p*-2}u beyond the truncation

    def __post_init__(self):
        if self.residual < 0 or self.residual_full < 0:
            raise DomainError("residuals are norms")

    def to_json_dict(self) -> dict:
        return {
            "mask": self.mask_name,
            "mask_degraded": self.mask_degraded,
            "seed_index": self.seed_index,
            "energy": self.energy,
            "residual_masked": self.residual,
            "residual_full": self.residual_full,
            "distance_to_bubble_level": self.distance_to_bubble_level,
            "iterations": self.iterations,
            "converged": self.converged,
            "jmax": self.candidate.basis.jmax,
            "nl_tail": self.nl_tail,
            "coefficients": list(map(float, self.candidate.coeffs)),
            "message": self.message,
        }


def _masked_descent(
    seed_fn: SpectralFunction,
    mask: Array,
    prob: YamabeProblem,
    budget: int,
    tol: float,
) -> tuple[SpectralFunction, SpectralFunction, int, bool, str]:
    """Descend from the masked seed; returns (u, full gradient at u, iterations, converged, message)."""
    k = prob.constants.k
    mult = prob.basis.multipliers(k)
    u = nehari_rescale(seed_fn.copy_with(np.where(mask, seed_fn.coeffs, 0.0)), prob)
    message = ""
    grad = prob.gradient(u)
    for it in range(budget):
        g = grad.coeffs * mask
        res = math.sqrt(h_minus_k_form(g, mult))
        if res < tol:
            return u, grad, it, True, message
        step = 1.0
        E0 = prob.energy(u)
        moved = False
        direction = g / mult
        decrease = float(np.sum(g * direction))
        for _ in range(30):
            trial_c = u.coeffs - step * direction
            if not np.any(trial_c):
                step *= 0.5
                continue
            trial = nehari_rescale(u.copy_with(trial_c), prob)
            if prob.energy(trial) <= E0 - 1e-4 * step * decrease:
                u = trial
                moved = True
                break
            step *= 0.5
        if not moved:
            message = "line search stalled"
            break
        grad = prob.gradient(u)
    res = math.sqrt(h_minus_k_form(grad.coeffs * mask, mult))
    return u, grad, budget, res < tol, message or ("budget exhausted" if res >= tol else "")


def minimax_search(
    G: SubgroupSpec,
    seeds: Sequence[SpectralFunction] | int,
    prob: YamabeProblem,
    budget: int = 300,
    tol: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> list[CriticalPointReport]:
    """Nehari-constrained descent inside the masked subspace, one run per seed.

    When both flags are requested the literal mask is empty (see module
    docstring); the search then runs on the odd mask alone and marks every
    report ``mask_degraded``.
    """
    degraded = False
    try:
        mask = mask_for(G, prob.basis)
        mask_name = G.name
    except MaskEmptyError:
        mask = mask_for(SubgroupSpec(antipodal_odd=True), prob.basis)
        mask_name = G.name + "->odd"
        degraded = True
    rng = rng or np.random.default_rng(0)
    if isinstance(seeds, int):
        seed_list = []
        for _ in range(seeds):
            c = rng.standard_normal(prob.basis.n_basis)
            seed_list.append(SpectralFunction(c, prob.basis))
    else:
        seed_list = list(seeds)
    k = prob.constants.k
    mult = prob.basis.multipliers(k)
    reports = []
    for idx, seed_fn in enumerate(seed_list):
        u, grad, iters, converged, message = _masked_descent(seed_fn, mask, prob, budget, tol)
        g_full = grad.coeffs
        res_masked = math.sqrt(h_minus_k_form(g_full * mask, mult))
        res_full = math.sqrt(h_minus_k_form(g_full, mult))
        E = prob.energy(u)
        reports.append(
            CriticalPointReport(
                candidate=u,
                energy=E,
                residual=res_masked,
                residual_full=res_full,
                distance_to_bubble_level=abs(E - prob.constants.C_E),
                iterations=iters,
                converged=converged,
                seed_index=idx,
                mask_name=mask_name,
                mask_degraded=degraded,
                message=message,
                nl_tail=grad.tail_energy or 0.0,
            )
        )
    return reports
