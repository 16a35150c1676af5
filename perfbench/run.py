"""OIM benchmark: run one workload and report its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload g1-sqsmooth --seed 1 --seconds 25 --trace 0

--trace 0 runs untraced and reports the end-to-end metrics.  --trace 1 runs
the same trials with the layer trace installed and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a readable
report and the run's provenance.  Exit codes: 0 success, 1 an output check
failed, 2 bad arguments or the package sources are missing.
"""
import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_SEED = 2 ** 63
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    from workloads import SPECS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        ap.error(f"--seed must be in [0, 2**63), got {args.seed}")
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    if not (SRC / "oscising" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:   # before numpy is imported
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import bench
    result, lines = bench.run(SPECS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
