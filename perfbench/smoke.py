"""The benchmark's own test: every workload at a tiny size, both modes.

    python3 perfbench/smoke.py

Checks that each run exits 0 and that its last stdout line is a result
with all operations correct and the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import ops
from run import BENCH_DIR, ROOT


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(ops.WORKLOADS):
        print("BENCHMARK.json workloads differ from ops.WORKLOADS")
        return 1
    failures = 0
    for workload in ops.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            problem = None
            if proc.returncode != 0:
                problem = f"exit {proc.returncode}: {proc.stderr.strip()}"
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                wanted = {m["name"]: m["unit"] for m in spec[section]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if not result["correct"] or result["failed"]:
                    problem = "operations failed:\n" + proc.stdout
                elif got != wanted:
                    problem = f"metrics {sorted(got)} != {sorted(wanted)}"
            print(f"{workload:12s} trace={trace}: {problem or 'ok'}")
            failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
