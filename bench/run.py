"""Benchmark of cryamabe: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run sets up the workload (import plus every ``YamabeProblem.build`` it
will ask for), then repeats passes on input set ``N % 16`` back to back
while another pass still fits in ``--seconds`` (at least one).  Every
operation of every pass is checked against reference values recorded at the
seed commit (``reference.json``).

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median of this process's set-up and that of 4 to 8 fresh child
processes) and ``peak_rss_mib``.  ``--trace 1`` wraps each layer's public
functions (``spans.py``), runs exactly one pass and prints the per-layer
metrics; its spans go to ``.bench_out/`` in the checkout.  The last line of
standard output is the JSON result; the line before it records the machine.
BLAS/OpenMP pools are capped at the number of usable cores.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CRYAMABE_THREADS")
# Fresh-process set-up samples: at least 4, then more while they take under
# 3 s in all, at most 8.  A short set-up (import only) is noisy and cheap to repeat.
SETUP_CHILDREN = (4, 8)
SETUP_BUDGET_S = 3.0


def prepare() -> None:
    """Cap the thread pools and put the checkout's ``src`` first on the path.

    Must run before numpy is imported.  Exits 2 when the checkout holds no
    ``src/cryamabe``, so an installed copy is never measured instead.
    """
    if not os.path.isfile(os.path.join(SRC, "cryamabe", "__init__.py")):
        print(f"error: no cryamabe sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, SRC)


def machine() -> dict:
    import ctypes

    import numpy as np

    def sysconf(code: int) -> int | None:  # _SC_LEVEL2/3_CACHE_SIZE in glibc
        try:
            value = ctypes.CDLL(None).sysconf(code)
        except (OSError, AttributeError):
            return None
        return value if value > 0 else None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_dir = os.path.join(SRC, "cryamabe")
    src_lines = 0
    for fname in sorted(os.listdir(src_dir)):
        if fname.endswith(".py"):
            with open(os.path.join(src_dir, fname), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "nproc": NPROC,
        "blas_threads": NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "l2_bytes": sysconf(191),
        "l3_bytes": sysconf(194),
        "src_lines": src_lines,
    }


def child_setup_s(workload: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    workloads.setup(args.workload)
    setup_s = time.perf_counter() - t_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload, {})

    s = args.seed % workloads.INPUT_SETS
    pass_s: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    t_measure = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            ops = workloads.run_pass(args.workload, s)
        except Exception:  # report the broken pass as one failed operation
            traceback.print_exc()
            attempted, failed = attempted + 1, failed + 1
            failures.append(f"pass{len(pass_s) + 1}:raised")
            pass_s.append(time.perf_counter() - t0)
            break
        pass_s.append(time.perf_counter() - t0)
        n, bad = workloads.mismatches(args.workload, ops, reference.get(str(s), {}))
        attempted += n
        failed += len(bad)
        failures += [f"pass{len(pass_s)}:{op}" for op in bad]
        elapsed = time.perf_counter() - t_measure
        if tracer is not None or elapsed + statistics.median(pass_s) > args.seconds:
            break

    setups = [setup_s]
    if tracer is not None:
        tracer.uninstall()
        values = tracer.per_layer_metrics()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spans.PER_LAYER if name in values}
        metrics["trace.wall_s"] = {"value": pass_s[0], "unit": "s"}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        t0 = time.perf_counter()
        while len(setups) <= SETUP_CHILDREN[0] or (
            len(setups) <= SETUP_CHILDREN[1] and time.perf_counter() - t0 < SETUP_BUDGET_S
        ):
            setups.append(child_setup_s(args.workload))
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(pass_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        }

    info = {"machine": machine(), "workload": args.workload, "seed": args.seed, "input_set": s,
            "pass_s": pass_s, "setup_s": setups, "failures": failures}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
