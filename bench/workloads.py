"""The four benchmark workloads and the check of their outputs.

A workload has a set-up (the ``YamabeProblem`` builds it will ask for, so the
basis cache is full before timing) and a pass: one fixed sequence of
operations on the inputs of one input set, sized to take a few seconds so
that a run repeats it several times.  A pass returns its operations as
``(name, values, passed)``: ``values`` are compared with the reference
recorded at the seed commit, ``passed`` is the runner's own ``CheckTable``
verdict.  Input set ``s`` is the library seed ``s``; a run with ``--seed n``
repeats input set ``n % INPUT_SETS``.
"""

from __future__ import annotations

import math

import numpy as np

INPUT_SETS = 16


def _table_ops(table) -> list[tuple[str, dict, bool]]:
    """One operation per CheckTable row; recorded rows (no threshold) carry their value."""
    ops = []
    for check, value, threshold, ok in table.rows:
        values = {"value": value} if math.isnan(threshold) else {}
        ops.append((f"{table.name}:{check}", values, bool(ok)))
    return ops


def riesz_full(s: int) -> list:
    """Ten full-grid convolutions of off-centre bumps on one 24^3 grid.

    The centres are those of ``riesz.mapping_bound_probe(1.0, 1, q=2.0,
    n_bumps=10, seed=s)``: the probe's random width is drawn and discarded
    before each centre.  Bump i takes instead the midpoint of the i-th tenth
    of (0.3, 0.6), so the source supports, which set the work, total 347 to
    373 points over the 16 input sets (the probe's random widths in (0.3, 1.0)
    move the work of a pass by more than a third between seeds).
    """
    from cryamabe import heisenberg as hg
    from cryamabe import riesz as rz

    rng = np.random.default_rng(s)
    spec = rz.KernelSpec(1.0, 1, "riesz")
    box = hg.BoxDomain.koranyi(1, 4.0)
    q = 2.0
    p = 1.0 / (1.0 / q - spec.alpha / spec.Q)
    ops = []
    for i in range(10):
        rng.uniform(0.3, 1.0)
        width = 0.3 + 0.03 * (i + 0.5)
        cz = 0.8 * (rng.normal(size=1) + 1.0j * rng.normal(size=1))
        ct = float(rng.normal() * 0.5)
        f = rz.gaussian_bump(box, (24,) * 3, width, hg.HeisPoint(cz, ct))
        conv = rz.convolve(f, spec, support_threshold=1e-9)
        ops.append((f"bump{i}", {"ratio": conv.lp_norm(p) / f.lp_norm(q)}, True))
    return ops


def riesz_sparse(s: int) -> list:
    """Symmetry-reduced and 128-point subset convolutions plus the far-field shells.

    ``semigroup_check`` at 24^3 with 128 evaluation points drawn by the seed,
    then the centred Green inversion at 32^3.
    """
    from cryamabe import heisenberg as hg
    from cryamabe import riesz as rz

    sg = rz.semigroup_check(shape=(24,) * 3, n_eval=128, seed=s)
    box = hg.BoxDomain((-3.0, -3.0, -6.0), (3.0, 3.0, 6.0))
    green = rz.green_inversion_check(rz.gaussian_bump(box, (32,) * 3, 0.6), margin=6, centered_radial=True)
    return [
        ("semigroup_check", {k: sg[k] for k in ("fitted_constant", "shape_residual")}, True),
        ("green_inversion_check", {k: green[k] for k in ("constant", "residual")}, True),
    ]


def transport_ladder(s: int) -> list:
    """The finest rung (R = 1e-3) of criterion 6's ladder for one bubble.

    The same ``ps_energy_report`` call ``cli.run_ps_quantization`` makes for
    that rung: four transported integrals with chart maps and cutoffs.  The
    inputs do not depend on the seed (the N = 1 sphere quadrature has no
    random nodes).
    """
    from cryamabe.bubbling import BubbleChart, PSSequenceSpec, ps_energy_report
    from cryamabe.config import ExperimentConfig
    from cryamabe.energy import YamabeProblem

    cfg = ExperimentConfig(seed=s)
    prob = YamabeProblem.build(cfg.N, cfg.k, cfg.jmax, cfg.lmax, cfg.quad_degree, seed=cfg.seed)
    centre = np.zeros(cfg.N + 1, dtype=np.complex128)
    centre[0] = 1.0
    spec = PSSequenceSpec(prob.ground_constant(), (BubbleChart.standard(centre, cfg.rn_ladder, prob.constants),))
    n = len(cfg.rn_ladder) - 1
    r = ps_energy_report(spec, n, prob)
    keys = ("E_n", "mass_n", "energy_gap", "mass_gap", "hk_norm_sq")
    return [(f"rung{n}", {k: r[k] for k in keys}, True)]


def spectral_descent(s: int) -> list:
    """Masked minimax descents, subcritical flows and the jmax-4 spectral checks.

    Two minimax descents and four subcritical flows, drawn by the seed, on the
    jmax-8 basis; the eigen-check runs at jmax 4.
    """
    from cryamabe import cli
    from cryamabe.config import ExperimentConfig

    cfg = ExperimentConfig(seed=s, minimax_seeds=2, flow_seeds=4)
    table, reports = cli.run_minimax_explore(cfg)
    ops = [
        (
            f"minimax_seed{r.seed_index}",
            {"energy": r.energy, "residual_full": r.residual_full, "converged": bool(r.converged)},
            True,
        )
        for r in reports
    ]
    ops += _table_ops(table)
    ops += _table_ops(cli.run_subcritical_flow(cfg))
    ops += _table_ops(cli.run_verify_spectral(cfg.with_overrides(jmax=4)))
    return ops


# name -> (pass, jmax values built in set-up, (rtol, atol) for reference values).
# Tolerances: 1e-10 relative for the riesz values and 1e-12 for the transported
# integrals (ROADMAP aim 2), the runners' own 1e-5 convergence tolerance for
# the iterative descents.
WORKLOADS = {
    "riesz-full": (riesz_full, (), (1e-10, 0.0)),
    "riesz-sparse": (riesz_sparse, (), (1e-10, 0.0)),
    "transport-ladder": (transport_ladder, (8,), (1e-12, 1e-12)),
    "spectral-descent": (spectral_descent, (8, 4), (1e-5, 1e-5)),
}


def setup(name: str) -> None:
    """Import the package and build every problem the workload will ask for."""
    from cryamabe.config import ExperimentConfig
    from cryamabe.energy import YamabeProblem

    cfg = ExperimentConfig()
    for jmax in WORKLOADS[name][1]:
        YamabeProblem.build(cfg.N, cfg.k, jmax, cfg.lmax, cfg.quad_degree, seed=cfg.seed)


def run_pass(name: str, s: int) -> list:
    return WORKLOADS[name][0](s)


def mismatches(name: str, ops: list, reference: dict) -> tuple[int, list[str]]:
    """Operations attempted (run or expected) and the names of those that failed.

    An operation fails when its CheckTable row failed, when a value differs
    from the reference by more than the workload's tolerance, or when the
    pass did not produce an operation the reference has.
    """
    rtol, atol = WORKLOADS[name][2]
    bad = []
    seen = set()
    for op, values, passed in ops:
        seen.add(op)
        ref = reference.get(op)
        ok = passed and ref is not None and set(ref) == set(values)
        for key, v in values.items():
            if not ok:
                break
            r = ref[key]
            if isinstance(r, bool) or isinstance(v, bool):
                ok = bool(v) == bool(r)
            else:
                ok = math.isfinite(v) and abs(v - r) <= rtol * abs(r) + atol
        if not ok:
            bad.append(op)
    bad += [op for op in reference if op not in seen]
    return len(seen | set(reference)), bad
