"""One set-up of a workload in a fresh interpreter: import rolljoint, then
build every design the workload uses.  Prints the elapsed seconds.

    python3 perfbench/setup_once.py --workload long_chain --seed 0
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, ROOT)
    print(f"{time.perf_counter() - START:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
