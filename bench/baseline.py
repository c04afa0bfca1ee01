"""Run the workloads over several seeds and summarise them as a baseline.

    python3 bench/baseline.py [--runs 10] [--seconds S] [--out bench/BASELINE.json] [WORKLOAD ...]

For each workload and seed 0 .. ``--runs``-1: one untraced and one traced run
on that seed, back to back, each in a fresh process, the untraced one first on
even seeds and second on odd ones.  Every end-to-end metric gets its median,
quartiles (``statistics.quantiles(n=4)``), the quartile distance as a share
of the median and the sample count.  The tracing overhead is the median over
seeds of traced ``wall_s`` minus untraced ``wall_s`` on the same inputs.  The
per-layer numbers are those of seed 0, whose exact counts are checked against
a second traced run at seed 0.  ``--seconds`` defaults to ``run_seconds`` of
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# For each ROADMAP item with a predicted gain: where its mechanism acts and
# where it should change nothing.
ROADMAP_CHECKS = {
    "item 2 (t-Toeplitz riesz.convolve, kernel-table cache)": {
        "acts": "wall_s on riesz-full", "no_change": "wall_s on transport-ladder"},
    "item 5 (one fused shell walker)": {
        "acts": "wall_s on transport-ladder", "no_change": "wall_s on riesz-full"},
    "item 3 (closed-form N = 1 basis)": {
        "acts": "setup_s on spectral-descent", "no_change": "setup_s on riesz-full"},
}


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "n": len(values), "values": values}


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    seconds = args.seconds or bench["run_seconds"]
    out = {"workloads": {}}
    if os.path.exists(args.out):  # re-running some workloads keeps the others
        with open(args.out, encoding="utf-8") as fh:
            out = json.load(fh)
    out["roadmap_checks"] = ROADMAP_CHECKS
    for name in args.workloads or list(why):
        results, traced, info = [], [], None
        for seed in range(args.runs):
            for trace in (0, 1) if seed % 2 == 0 else (1, 0):
                run_info, result = one_run(name, seed, seconds, trace)
                (traced if trace else results).append(result)
                info = info or run_info
            print(name, seed, {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()},
                  "traced", round(traced[-1]["metrics"]["trace.wall_s"]["value"], 4), flush=True)
        metrics = {m: summary([r["metrics"][m]["value"] for r in results]) for m in results[0]["metrics"]}
        overheads = [t["metrics"]["trace.wall_s"]["value"] - r["metrics"]["wall_s"]["value"]
                     for t, r in zip(traced, results)]
        _, again = one_run(name, 0, seconds, 1)
        out["machine"] = info["machine"]
        out["workloads"][name] = {
            "why": why[name],
            "seeds": list(range(args.runs)),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results) + sum(t["failed"] for t in traced),
            "metrics": metrics,
            "trace_overhead_s": {"median": statistics.median(overheads), "paired_differences": overheads},
            "per_layer_seed0": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            "seed0_counts_repeat": counts(traced[0]) == counts(again),
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
