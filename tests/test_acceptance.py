"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is evaluated through the same runner its command-line
subcommand uses, at pinned tolerances; the printed lines give the one-look
summary under ``pytest -s``.
"""

import time

from cryamabe.cli import (
    run_bubble_residual,
    run_calibrate,
    run_commutator_check,
    run_gradient_decay,
    run_minimax_explore,
    run_ps_quantization,
    run_riesz_check,
    run_sobolev_sharpness,
    run_subcritical_flow,
    run_verify_cayley,
    run_verify_group,
    run_verify_spectral,
)
from cryamabe.config import ExperimentConfig

CFG = ExperimentConfig()


def _finish(number: int, name: str, table, started: float) -> None:
    verdict = "PASS" if table.passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({time.time() - started:.1f}s)")
    failing = [(c, v, thr) for c, v, thr, ok in table.rows if not ok]
    assert table.passed, f"failing checks: {failing}"


def test_criterion_01_group_metric_suite():
    t0 = time.time()
    table = run_verify_group(CFG)
    _finish(1, "group/metric suite", table, t0)


def test_criterion_02_spectral_eigen_consistency():
    t0 = time.time()
    table = run_verify_spectral(CFG.with_overrides(jmax=6))
    _finish(2, "spectral eigen-consistency", table, t0)


def test_criterion_03_conformal_covariance():
    t0 = time.time()
    table = run_verify_cayley(CFG)
    _finish(3, "conformal covariance", table, t0)


def test_criterion_04_sharp_constant():
    t0 = time.time()
    table = run_sobolev_sharpness(CFG)
    _finish(4, "sharp constant", table, t0)


def test_criterion_05_bubble_solution():
    t0 = time.time()
    table = run_bubble_residual(CFG)
    _finish(5, "bubble solution", table, t0)


def test_criterion_06_bubbling_quantization():
    t0 = time.time()
    table1 = run_ps_quantization(CFG, n_bubbles=1)
    table2 = run_ps_quantization(CFG, n_bubbles=2)
    table1.rows.extend(table2.rows)
    _finish(6, "bubbling quantization", table1, t0)


def test_criterion_07_gradient_decay():
    t0 = time.time()
    table = run_gradient_decay(CFG)
    _finish(7, "gradient decay", table, t0)


def test_criterion_08_subcritical_threshold():
    t0 = time.time()
    table = run_subcritical_flow(CFG)
    _finish(8, "sub-critical threshold", table, t0)


def test_criterion_09_riesz_suite():
    t0 = time.time()
    table = run_riesz_check(CFG)
    _finish(9, "riesz suite", table, t0)


def test_criterion_10_commutator_identity():
    t0 = time.time()
    table = run_commutator_check(CFG)
    _finish(10, "commutator identity", table, t0)


def test_criterion_11_symmetry_minimax():
    t0 = time.time()
    table, reports = run_minimax_explore(CFG)
    # the run must emit candidate reports regardless of the margin: each search
    # seed's, then the Hopf control's
    _, candidates = table.files["minimax_candidates.json"]
    assert len(candidates) == CFG.minimax_seeds + 1
    assert len(reports) == CFG.minimax_seeds
    _finish(11, "symmetry/minimax", table, t0)


def test_normalization_calibration():
    # shared premise of criteria 4-6: the volume normalization triple
    t0 = time.time()
    table = run_calibrate(CFG)
    _finish(0, "normalization calibration", table, t0)
