"""Run one workload of the hrgenet benchmark and print its result.

    python3 perfbench/run.py --workload train-n12 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` under ``.perfbench-work/``. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it record the environment, the set-up split, quartiles
and sample counts.
"""

import argparse
import json
import os
import sys
import time

# BLAS threads are pinned in this process's own environment before numpy
# loads; the matrices are small, and one thread keeps runs steady.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    t0 = time.perf_counter()
    import harness
    try:
        harness.import_program()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    env = harness.environment(BLAS_THREADS)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} config "
          f"{workload.config_hash()} trace {args.trace}")
    work = harness.ROOT / ".perfbench-work" / workload.name
    result, lines = harness.measure(workload, args.seed, args.seconds,
                                    bool(args.trace), work, import_s)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
