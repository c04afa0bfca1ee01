"""Tests of the benchmark itself: tracer bindings, exact counts, metric lists.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.prepare()

import spans  # noqa: E402


def _run(workload: str, *, trace: int, cwd: str = ROOT, seconds: float = 1.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_tracer_patches_every_import_binding():
    from cryamabe import bubbling, energy, heisenberg, spectral

    originals = (heisenberg.integrate_decaying, spectral.analyze, spectral.SpectralFunction.eval)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = heisenberg.integrate_decaying
        assert wrapped is not originals[0]
        assert energy.integrate_decaying is wrapped and bubbling.integrate_decaying is wrapped
        assert spectral.analyze is not originals[1]
        assert energy.analyze is spectral.analyze and bubbling.analyze is spectral.analyze
        assert spectral.SpectralFunction.eval is not originals[2]
        scheme = heisenberg.ShellScheme(l0=1.0, n_shells=2, n_inner=4, n_shell=4)
        f = lambda z, t: 1.0 / (1.0 + t * t + abs(z[..., 0]) ** 8)  # noqa: E731
        heisenberg.integrate_decaying(f, 1, scheme)
        energy.integrate_decaying(f, 1, scheme)
        bubbling.integrate_decaying(f, 1, scheme)
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.totals()
    assert calls["heisenberg.integrate_decaying"] == 3
    # 4^3 inner nodes plus 4^3 - 2^3 per outer shell, per call
    assert tracer.counts["heisenberg.integrate_decaying.points"] == 3 * (64 + 56)
    assert heisenberg.integrate_decaying is originals[0] and energy.integrate_decaying is originals[0]
    assert spectral.analyze is originals[1] and energy.analyze is originals[1] and bubbling.analyze is originals[1]
    assert spectral.SpectralFunction.eval is originals[2]


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 5.0, 7.0, 0], ["b", 5.5, 6.0, 2]]
    calls, incl, self_s = tracer.totals()
    assert calls == {"a": 2, "b": 2}
    assert incl["a"] == 10.0 and incl["b"] == 3.5  # a nested in a counts once
    assert self_s["a"] == pytest.approx((10 - 3 - 2) + (2 - 0.5))
    assert self_s["b"] == pytest.approx(3.5)


def test_transport_ladder_counts_are_exact():
    proc = _run("transport-ladder", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # one bubble at one rung; 4 integrals per piece, one of them through energy.dirichlet_form
    assert metrics["heisenberg.integrate_decaying.calls"] == 4
    assert metrics["bubbling.bubble_piece_report.calls"] == 1
    assert metrics["energy.dirichlet_form.calls"] == 1
    assert metrics["bubbling.integrals_per_piece"] == 4
    assert set(metrics) == {name for name, _, _ in spans.PER_LAYER}


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mib"}
    import workloads

    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("riesz-full", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
