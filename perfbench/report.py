"""Print every end-to-end metric of every workload, by name and with its unit.

    python3 perfbench/report.py --seed 1
    python3 perfbench/report.py --seed 1 --trace 1   # per-layer metrics instead

Runs perfbench/run.py once per workload listed in BENCHMARK.json, each in its
own process so peak memory is per workload, and prints one line per metric
plus the failed runs out of those attempted and the correctness flag.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:8s} run.py exited {proc.returncode} without a result")
            status = 1
            continue
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:8s} {name:32s} {m['value']:>14.6g} {m['unit']}")
        print(f"{workload:8s} {'failed':32s} {result['failed']:>14d} of {result['attempted']} runs attempted")
        print(f"{workload:8s} {'correct':32s} {str(result['correct']):>14s}")
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
