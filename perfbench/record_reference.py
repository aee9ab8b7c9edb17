#!/usr/bin/env python3
"""Record reference.json: the quality values of each workload's probe.

    python3 perfbench/record_reference.py

Every benchmark run re-evaluates its workload's probe (the tiny size on a
fixed seed) and compares it with these values, so record them only at a commit
whose outputs are known to be right.
"""

import json
import os
import shutil

from run import ROOT, use_checkout_sources


def main() -> None:
    if not use_checkout_sources():
        raise SystemExit(f"no fisherdyn sources under {ROOT}/src")
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_tmp", "reference")
    os.makedirs(workdir, exist_ok=True)
    try:
        doc = {"seed": workloads.REFERENCE_SEED}
        for name in workloads.WORKLOADS:
            doc[name] = workloads.reference_values(name, workdir)
    finally:
        shutil.rmtree(os.path.dirname(workdir))
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
