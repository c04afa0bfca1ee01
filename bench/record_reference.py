"""Record the reference outputs of the workloads for every input set.

    python3 bench/record_reference.py [WORKLOAD ...]

Run it at the commit whose outputs are the reference (the default is every
workload).  It refuses to record a pass in which a runner check failed and
merges the result into ``reference.json``.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(names: list[str]) -> int:
    run.prepare()
    import workloads

    path = os.path.join(run.HERE, "reference.json")
    reference = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            reference = json.load(fh)
    for name in names or list(workloads.WORKLOADS):
        workloads.setup(name)
        sets = {}
        for s in range(workloads.INPUT_SETS):
            ops = workloads.run_pass(name, s)
            failed = [op for op, _, passed in ops if not passed]
            if failed:
                print(f"error: {name} set {s}: checks failed: {failed}", file=sys.stderr)
                return 1
            sets[str(s)] = {op: values for op, values, _ in ops}
            print(f"{name} set {s}: {len(ops)} operations", flush=True)
        reference[name] = sets
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(path + ".tmp", path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
