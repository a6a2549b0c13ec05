"""Benchmark launcher.

    python3 bench/run.py --workload records|fit|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Pins BLAS/OpenMP threads to one,
puts the checkout's ``src/`` on ``PYTHONPATH`` (the way the tier-1 tests
run; the package is not installed) and runs ``bench/workloads.py`` in a
child process, so the thread settings are in place before numpy loads
and each workload's peak RSS is its own.  The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

WORKLOADS = ("records", "fit", "sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fairmap benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fairmap", "__init__.py")):
        print(f"no fairmap package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "workloads.py")
    cmd = [sys.executable, worker, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=env, cwd=root,
                              timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
