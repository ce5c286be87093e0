"""The ladder: a fixed list of instances, timed end to end, written as
one BENCH_<n>.json.

Run from anywhere, with pytest installed:

    python tools/ladder.py --out BENCH_2.json

The ladder copies src/, tests/, perfbench/ and README.md of this
checkout into a temporary directory, leaving out every __pycache__, and
compiles the copy once, so no stale bytecode can bias a run (stale
bytecode under PYTHONDONTWRITEBYTECODE=1 made setup times read 4-12%
low).  Every run is then a fresh child process with PYTHONPATH on the
copy's src/ and no bytecode writes:

* a command row times cyheights.cli.main(argv) with time.perf_counter,
  after the import, with stdout captured and stderr dropped;
* a library row times the expression it names the same way;
* the start-up row times `import cyheights.cli`;
* the Tier-1 row times `python -m pytest -q` on the copy's tests/,
  from the outside, with its own timeout.

The host's speed drifts by a third within minutes, so raw times compare
only within one run phase.  Each child therefore also times
perfbench/run.py's reference_time() before and after its row (for the
start-up row both after it, since loading run.py loads modules the
import would otherwise time), and records the row's time scaled to the
reference host speed by run.py's host_scale, as the benchmark does.
The Tier-1 row is not scaled.

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
    "stickelberger --p 2 --m 13 --r 1",
    "stickelberger --p 197 --m 3 --r 3",
    "survey artin --m 8 --r 6 --p-max 50",
    "kummer --p 999983",
    "survey kummer --p-min 900000 --p-max 1000000 --jobs 1",
]

# fields near the table budget: one walk of GF(4093^2) for the
# character, and the modulus and generator search of GF(2^24)
LIBRARY_SETUP = ("from cyheights.character_sums import Character\n"
                 "from cyheights.finite_field import build_field\n")
LIBRARY_CALLS = ["Character(build_field(4093, 2), 6).minus_one_exp",
                 "build_field(2, 24)"]

EXCLUDED = [
    {"row": "zeta --p 13 --m 6 --r 6",
     "why": "3.1 GB peak RSS and 100 s for zeta_fermat(13, 6, 6): a "
            "budget hole, not a timing"},
]

# The child: spec = {"argv": [...]} | {"setup": ..., "expr": ...} |
# {"import": true}; it prints one JSON line of seconds, the reference
# times around them and the scaled seconds, exit status and the captured
# stdout's size and sha256.
CHILD = r"""
import contextlib, hashlib, io, json, sys, time
spec = json.loads(sys.argv[1])
sys.path.insert(0, "perfbench")
if "import" not in spec:
    from run import host_scale, reference_time
    before = reference_time()
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
if "import" in spec:
    from run import host_scale, reference_time
    before = reference_time()
after = reference_time()
data = out.getvalue().encode()
print(json.dumps({"seconds": seconds, "reference_s": [before, after],
                  "scaled_seconds": seconds * host_scale(before, after),
                  "exit_status": code, "stdout_bytes": len(data),
                  "stdout_sha256": hashlib.sha256(data).hexdigest()}))
"""

# what differs from run to run of one row, and is no outcome
TIMINGS = ("seconds", "reference_s", "scaled_seconds")


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


def times_of(runs: list, key: str) -> tuple[list, float | None,
                                           float | None]:
    """Each run's value of key, or "timeout", and the min and the median
    of the runs that finished."""
    values = [r if r == "timeout" else r[key] for r in runs]
    done = [v for v in values if v != "timeout"]
    return ([v if v == "timeout" else round(v, 6) for v in values],
            round(min(done), 6) if done else None,
            round(statistics.median(done), 6) if done else None)


def row(name: str, runs: list) -> dict:
    """One row of the file from its runs: raw times, and for a child's
    row the mean reference time around each run and the scaled times."""
    finished = [r for r in runs if r != "timeout"]
    record = {"row": name}
    record["runs_s"], record["min_s"], record["median_s"] = times_of(
        runs, "seconds")
    if finished and "reference_s" in finished[0]:
        record["reference_s"] = [
            r if r == "timeout" else round(sum(r["reference_s"]) / 2, 6)
            for r in runs]
        (record["scaled_runs_s"], record["scaled_min_s"],
         record["scaled_median_s"]) = times_of(runs, "scaled_seconds")
    outcomes = {json.dumps({k: v for k, v in r.items() if k not in TIMINGS},
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
        plan += [(call, {"setup": LIBRARY_SETUP, "expr": call})
                 for call in LIBRARY_CALLS]
        plan.append(("start-up: import cyheights.cli", {"import": True}))
        for name, spec in plan:
            rows.append(row(name, [run_child(tree, spec)
                                   for _ in range(RUNS)]))
            print(f"{rows[-1]['median_s']!s:>10} s "
                  f"{rows[-1].get('scaled_median_s')!s:>10} s scaled  {name}",
                  flush=True)
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
