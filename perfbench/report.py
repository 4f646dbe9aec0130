"""Every workload, untraced then traced, in one command.

    python3 perfbench/report.py --seed 0 --seconds 25

For each workload this runs ``run.py`` with ``--trace 0`` and then with
``--trace 1``, one after the other, and prints both tables: the end-to-end
metrics with unit, sample count and error rate, and next to them the
per-layer metrics of the traced run, including ``trace.overhead_s``.  Exits 1
if any run fails or reports an incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            got = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600,
            )
            lines = got.stdout.strip().splitlines()
            if got.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
                print(got.stderr.strip())
            print("\n".join(lines[:-1] if lines else []))
            print()
    return status


if __name__ == "__main__":
    sys.exit(main())
