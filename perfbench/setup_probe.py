"""Set-up probe: start, import the library, build a workload's batch, exit.

run.py times several of these child processes and reports their median as
``setup_s``.  Run by hand as
``python3 perfbench/setup_probe.py --workload cli-suites --seed 1``.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the library on the path first)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workloads.build(args.workload, args.seed, str(ROOT / ".perfbench"))


if __name__ == "__main__":
    main()
