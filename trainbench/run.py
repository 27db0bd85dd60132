"""Training benchmark entry point.

Run from the repository root::

    python3 trainbench/run.py --workload bert-eager --seed 1 --seconds 20 --trace 0

Prints progress lines starting with ``#`` and, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The program is imported from ``src/`` next to
this directory; without it the run exits with code 2 and prints no result.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported: a second
# OpenBLAS thread mostly spins, doubling CPU time for a few % of wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bert-eager", "mt-varlen-replay", "gpt-dp2")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python3 trainbench/run.py",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="seeds every input the workload generates")
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum timed run length; whole rounds are run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: alternate traced and untraced rounds and report "
                        "per-layer metrics")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program to benchmark: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace),
                         out_dir=os.path.join(ROOT, ".bench_out"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
