"""Record reference.json: the compared outputs of each workload at the default seed.

Usage (from the repository root): ``python3 perfbench/record.py``.  Run it
only on a commit whose outputs are known to be right; the benchmark then
holds later commits to these values within the tolerances in workloads.py.
"""

import json
import os
import shutil
import sys

from run import HERE, WORK, run_child
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    ref = {}
    for wl in WORKLOADS.values():
        work = os.path.join(WORK, "record", wl.name)
        shutil.rmtree(work, ignore_errors=True)
        inputs = os.path.join(work, "inputs")
        prep = wl.prepare(inputs)
        if prep:
            run_child(inputs, prep)
        pdir = os.path.join(work, "pass")
        res = run_child(pdir, wl.steps(DEFAULT_SEED, inputs))
        if any(c != 0 for c in res["codes"]):
            sys.exit(f"{wl.name}: step exit codes {res['codes']}")
        observed = wl.check(pdir, DEFAULT_SEED, None)
        observed.pop("iterations", None)
        ref[wl.name] = observed
        ref["kernel_backend"] = res["env"]["kernel_backend"]
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
