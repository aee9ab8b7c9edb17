#!/usr/bin/env python3
"""Run the fisherdyn benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload dynamic --seed 1 --seconds 30 --trace 0

Runs one workload (``kinematic``, ``dynamic`` or ``dynamic_field``) on inputs
generated from ``--seed`` for about ``--seconds`` seconds, checks every output,
and prints the metrics one per line, then the run record, then as the last
line one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones. Without ``--workload`` all three workloads run one after
another, each in its own process.

Exit status: 0 on success, 1 when an output check fails, 2 when the fisherdyn
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("kinematic", "dynamic", "dynamic_field")
# numpy's BLAS is pinned to one thread: every timed call runs on a single CPU
# (see bench.QuietClock).
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def use_checkout_sources() -> bool:
    """Pin BLAS threads and put the checkout's src/ first on the import path;
    False when the checkout has no fisherdyn sources. Call before numpy is
    imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    return os.path.isfile(os.path.join(src, "fisherdyn", "__init__.py"))


def run_one(args) -> int:
    if not use_checkout_sources():
        print(f"perfbench: no fisherdyn sources under {ROOT}/src", file=sys.stderr)
        return 2
    import bench
    import workloads
    with open(workloads.REFERENCE_PATH) as fh:
        reference = json.load(fh)[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, details = bench.measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace), workdir, reference)
    except workloads.CheckError as err:
        print(f"perfbench: output check failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is still using it

    record = bench.run_record(ROOT, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"record": {**record, **details}}))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
