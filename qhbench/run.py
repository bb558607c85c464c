"""Benchmark of qhkit: one workload per run, in this single-threaded process.

    python3 qhbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports qhkit from the checkout's
`src/` and refuses to run without it.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics when --trace is 0 and the per-layer metrics when it is 1.
Traces and report files go to `.qhbench_out/` in the checkout.
"""
import os

# Single-threaded numerics: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mesh-build", "punctured-batch", "halfplane-single", "paper-repro")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "qhkit" / "__init__.py").is_file():
        print(f"error: no qhkit sources under {src}; run from a qhkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qhkit
    if Path(qhkit.__file__).resolve().parent != (src / "qhkit").resolve():
        print(f"error: imported qhkit from {qhkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    import runner
    out_root = ROOT / ".qhbench_out"
    out_root.mkdir(exist_ok=True)
    result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        str(out_root))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
