"""Run one coverage-study workload and print its metrics.

    python3 covbench/run.py --workload lomax_coverage [--seed N]
        [--seconds 20] [--trace 0|1] [--out covbench/out]

Run from the repository root: the package is imported from ``src/`` next to
this directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.
"""

import os
import sys

# One BLAS thread, set before numpy is first imported: the work is one
# replicate at a time, and multithreaded BLAS on small fits is slower and
# less steady on few cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# Keep freed memory in the heap.  With glibc's defaults every 1-2 MB numpy
# temporary of the M/G/1 solve is a fresh mmap: 814k page faults and a
# quarter of the wall time in the kernel per replicate, a cost that moves
# with the host's load by tens of percent between minutes.
MALLOC_THRESHOLD = 32 * 1024 * 1024  # glibc's largest mmap threshold
try:
    import ctypes
    _libc = ctypes.CDLL(None)
    if not (_libc.mallopt(-3, MALLOC_THRESHOLD)           # M_MMAP_THRESHOLD
            and _libc.mallopt(-1, 2 * MALLOC_THRESHOLD)):  # M_TRIM_THRESHOLD
        MALLOC_THRESHOLD = None
except (OSError, AttributeError):
    MALLOC_THRESHOLD = None

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    import argparse
    import json

    # import this directory as the covbench package, not as loose modules
    sys.path[:] = [ROOT] + [p for p in sys.path if os.path.abspath(p) != HERE]
    from covbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="master seed of the seeded workloads (default: "
                        "the criterion's); the others run fixed replicates")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="nominal run length; fixes the replicate count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(ROOT, "covbench", "out"))
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "implicit_boot", "cli.py")):
        print(f"error: no implicit_boot sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from covbench import bench

    env = dict(bench.environment(), malloc_mmap_threshold=MALLOC_THRESHOLD)
    result = bench.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.out, env)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
