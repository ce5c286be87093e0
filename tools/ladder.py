"""The ladder: a fixed list of instances, timed end to end, written as
one BENCH_<n>.json.

Run from anywhere, with pytest installed:

    python tools/ladder.py --out BENCH_1.json

The ladder copies src/, tests/, perfbench/ and README.md of this
checkout into a temporary directory, leaving out every __pycache__, and
compiles the copy once, so no stale bytecode can bias a run (stale
bytecode under PYTHONDONTWRITEBYTECODE=1 made setup times read 4-12%
low).  Every run is then a fresh child process with PYTHONPATH on the
copy's src/ and no bytecode writes:

* a command row times cyheights.cli.main(argv) with time.perf_counter,
  after the import, with stdout captured and stderr dropped;
* the library row times the expression it names the same way;
* the start-up row times `import cyheights.cli`;
* the Tier-1 row times `python -m pytest -q` on the copy's tests/,
  from the outside, with its own timeout.

A run over its timeout (20 s, Tier-1 excepted) is killed and recorded
as "timeout".  Each row runs RUNS times and records every time, the min
and the median of the runs that finished, the exit status, and the
stdout bytes and sha256 (for Tier-1 its summary line instead, since
pytest prints durations).  The file also records the Python version,
the CPU count, the git sha of HEAD, whether src/ differs from HEAD, and
a sha256 of the package sources that ran.

`zeta --p 13 --m 6 --r 6` is left out: it printed nothing within 15 s,
and `zeta_fermat(13, 6, 6)` took 100 s and 3.1 GB peak RSS.  Its
alpha budget admits |A| but not the size of the record (a budget hole),
so a ladder run could exhaust the memory it shares with other
processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
TIMEOUT_S = 20
TIER1_TIMEOUT_S = 600

# ROADMAP item 1's instances, and the JSON form of one stickelberger
# instance, the format every benchmark workload reads
COMMANDS = [
    "height --p 3 --m 10 --r 8",
    "height --p 5 --m 12 --r 10",
    "height --p 19 --m 20 --r 18",
    "height --p 29 --m 652 --r 1",
    "zeta --p 13 --m 6 --r 4 --check 1,2",
    "zeta --p 2 --m 21 --r 2",
    "stickelberger --p 7 --m 5 --r 3",
    "stickelberger --p 2 --m 73 --r 1",
    "stickelberger --p 2 --m 73 --r 1 --format json",
    "survey artin --m 8 --r 6 --p-max 50 --jobs 1",
    "kummer --p 999983",
    "survey kummer --p-min 900000 --p-max 1000000 --jobs 1",
]

# a field near the table budget: one walk of GF(4093^2) for the character
LIBRARY_SETUP = ("from cyheights.character_sums import Character\n"
                 "from cyheights.finite_field import build_field\n")
LIBRARY_CALL = "Character(build_field(4093, 2), 6).minus_one_exp"

EXCLUDED = [
    {"row": "zeta --p 13 --m 6 --r 6",
     "why": "3.1 GB peak RSS and 100 s for zeta_fermat(13, 6, 6): a "
            "budget hole, not a timing"},
]

# The child: spec = {"argv": [...]} | {"setup": ..., "expr": ...} |
# {"import": true}; it prints one JSON line of seconds, exit status and
# the captured stdout's size and sha256.
CHILD = r"""
import contextlib, hashlib, io, json, sys, time
spec = json.loads(sys.argv[1])
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = 0
    if "import" in spec:
        start = time.perf_counter()
        import cyheights.cli
    elif "argv" in spec:
        from cyheights import cli
        start = time.perf_counter()
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code
    else:
        exec(spec["setup"])
        start = time.perf_counter()
        print(eval(spec["expr"]))
    seconds = time.perf_counter() - start
data = out.getvalue().encode()
print(json.dumps({"seconds": seconds, "exit_status": code,
                  "stdout_bytes": len(data),
                  "stdout_sha256": hashlib.sha256(data).hexdigest()}))
"""


def copy_tree(into: Path) -> None:
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, into / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "README.md", into)
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(into / "src")], check=True)


def child_env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"),
            "PYTHONDONTWRITEBYTECODE": "1"}


def run_child(tree: Path, spec: dict) -> dict | str:
    """One run in a fresh process: its record, or "timeout"."""
    try:
        done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(spec)],
                              cwd=tree, env=child_env(tree),
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S, check=True)
    except subprocess.TimeoutExpired:
        return "timeout"
    return json.loads(done.stdout)


def run_tier1(tree: Path) -> dict | str:
    """One Tier-1 run, timed from the outside: seconds, exit status and
    the summary line without its duration."""
    command = [sys.executable, "-m", "pytest", "-q", "-p",
               "no:cacheprovider"]
    started = perf_counter()
    try:
        done = subprocess.run(command, cwd=tree / "tests",
                              env=child_env(tree), capture_output=True,
                              text=True, timeout=TIER1_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    seconds = perf_counter() - started
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    return {"seconds": seconds, "exit_status": done.returncode,
            "summary": summary.rsplit(" in ", 1)[0]}


def row(name: str, runs: list) -> dict:
    """One row of the file from its runs."""
    finished = [r for r in runs if r != "timeout"]
    times = [r["seconds"] for r in finished]
    record = {"row": name,
              "runs_s": [r if r == "timeout" else round(r["seconds"], 6)
                         for r in runs],
              "min_s": round(min(times), 6) if times else None,
              "median_s": (round(statistics.median(times), 6) if times
                           else None)}
    outcomes = {json.dumps({k: v for k, v in r.items() if k != "seconds"},
                           sort_keys=True) for r in finished}
    if len(outcomes) == 1:
        record.update(json.loads(outcomes.pop()))
    elif outcomes:  # runs that disagree are a finding, not an average
        record["outcomes"] = sorted(map(json.loads, outcomes), key=str)
    return record


def provenance() -> dict:
    digest = hashlib.sha256()
    pkg = ROOT / "src" / "cyheights"
    for path in sorted(pkg.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True,
                                  timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src")
    return {"python": platform.python_version(),
            "cpu_count": os.cpu_count(), "git_sha": git("rev-parse", "HEAD"),
            "src_differs_from_head": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True,
                        help="the BENCH_<n>.json file to write")
    args = parser.parse_args(argv)
    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        copy_tree(tree)
        plan = [(command, {"argv": command.split()})
                for command in COMMANDS]
        plan.append((LIBRARY_CALL,
                     {"setup": LIBRARY_SETUP, "expr": LIBRARY_CALL}))
        plan.append(("start-up: import cyheights.cli", {"import": True}))
        for name, spec in plan:
            rows.append(row(name, [run_child(tree, spec)
                                   for _ in range(RUNS)]))
            print(f"{rows[-1]['median_s']!s:>10} s  {name}", flush=True)
        rows.append(row("Tier-1: pytest -q",
                        [run_tier1(tree) for _ in range(RUNS)]))
        print(f"{rows[-1]['median_s']!s:>10} s  Tier-1", flush=True)
    bench = {**provenance(), "runs_per_row": RUNS, "timeout_s": TIMEOUT_S,
             "tier1_timeout_s": TIER1_TIMEOUT_S, "excluded": EXCLUDED,
             "rows": rows}
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
