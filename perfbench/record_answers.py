"""Record the answers the correctness gate compares against.

    python3 perfbench/record_answers.py

Runs every operation any workload can run, requires each to pass the
invariant checks, and writes their mathematical answers to answers.json.
Run it only on code whose answers are trusted; the benchmark then fails
any operation whose answer changes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import ops
from checks import ANSWERS_PATH, answers, invariant_problems
from run import OUT_DIR, import_cli, run_op


def main() -> int:
    cli = import_cli()
    os.makedirs(OUT_DIR, exist_ok=True)
    recorded = {}
    for op in sorted(ops.all_ops(), key=lambda op: op.key):
        cache_dir = tempfile.mkdtemp(prefix="record-", dir=OUT_DIR)
        try:
            code, seconds, stdout = run_op(cli, op, cache_dir)
        finally:
            shutil.rmtree(cache_dir)
        if code != 0:
            print(f"{op.key}: exit status {code}", file=sys.stderr)
            return 1
        doc = json.loads(stdout)
        problems = invariant_problems(op, doc)
        if problems:
            print(f"{op.key}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        recorded[op.key] = answers(op, doc)
        print(f"{seconds:8.3f}s  {op.key}")
    with open(ANSWERS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"answers": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
