#!/usr/bin/env python3
"""Symmetry-restricted critical point search above the bubble energy level.

Runs the Nehari-constrained descent inside the odd subspace from random
seeds, reports energies relative to the bubble level, and emits one JSON
record per candidate.  Increasing --jmax (up to spectral.JMAX_VERIFIED)
emulates the unbounded sequence of levels: the attainable p*-mass grows with
the truncation, which the summary records as a trend.

Usage: python scripts/explore_minimax.py [--seeds 10] [--jmax 8] [--out out/]
"""

import argparse
import os
import sys

import numpy as np

from cryamabe.energy import YamabeProblem
from cryamabe.minimax import SubgroupSpec, minimax_search, write_reports
from cryamabe.spectral import JMAX_VERIFIED


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--jmax", type=int, default=8)
    ap.add_argument("--budget", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=str, default="out")
    args = ap.parse_args()
    if not 0 <= args.jmax <= JMAX_VERIFIED:
        ap.error(f"--jmax must lie in [0, {JMAX_VERIFIED}]")

    prob = YamabeProblem.build(N=1, k=1.0, jmax=args.jmax)
    consts = prob.constants
    reports = minimax_search(
        SubgroupSpec(antipodal_odd=True),
        args.seeds,
        prob,
        budget=args.budget,
        rng=np.random.default_rng(args.seed),
    )
    print(f"bubble level C_E = {consts.C_E:.6f}")
    for r in reports:
        mass = prob.lp_star_mass(r.candidate)
        print(
            f"seed {r.seed_index:2d}: E = {r.energy:.6f} ({r.energy / consts.C_E:.3f} C_E), "
            f"residual = {r.residual_full:.2e}, p*-mass = {mass:.4f}, converged = {r.converged}"
        )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"minimax_jmax{args.jmax}.json")
    write_reports(reports, path)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
