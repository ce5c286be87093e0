"""Benchmark runner for cyheights: run one workload from a seed.

    python3 perfbench/run.py --workload heights --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  The
load is a closed loop in this one process: documented CLI commands go
through ``cyheights.cli.main(argv)`` with ``--format json``, one after
another, and every answer is checked (see checks.py).  A run executes
rounds of operations (see ops.py) until ``--seconds`` would be exceeded,
with at least three rounds when the workload has them.

End-to-end metrics (``--trace 0``):
  setup_s      median over three fresh processes of start to ready:
               import, operation generation and, for fields_warm, the
               cache fill
  wall_s       time of one round, the batch a user waits for: per class
               of operations the median time, summed over the classes
  peak_rss_mb  resident-memory high-water mark of this process
Times are scaled to a fixed host speed with a reference loop timed
around every measurement (see host_scale); the summary lines also show
the raw round times.  Failures are the ``failed`` count against
``attempted`` in the result, printed as fail_share in the summary.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of spans.py from the traced ones; the spans are
written to perfbench/out/.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import ops
from checks import Gate
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_PROBES = 3
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 150

# Time of reference_work() on an uncontended 2-vCPU Intel Xeon virtual
# machine under Python 3.11; measured times are scaled to this host speed
# (see host_scale).
REFERENCE_S = 0.012


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """cyheights.cli from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "cyheights", "cli.py")):
        raise SetupError(f"no cyheights sources under {SRC}")
    sys.path.insert(0, SRC)
    try:
        from cyheights import cli
    except ImportError as exc:
        raise SetupError(f"cyheights does not import: {exc}") from exc
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"cyheights imported from {cli.__file__}, not {SRC}")
    return cli


def reference_work() -> int:
    """A fixed slice of interpreter work like the library's own mix:
    building tuples, dict updates, big-integer products, list indexing."""
    rows = [tuple((i * j) % 7 for j in range(6)) for i in range(3000)]
    counts: dict[tuple, int] = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    acc, big = 0, 3 ** 2000
    for i in range(300):
        acc += (big * (i + 1)) % 1000003
    table = list(range(4096))
    for i in range(60000):
        acc += table[(i * 2654435761) & 4095]
    return acc + len(counts)


def reference_time() -> float:
    """Fastest of three runs of reference_work, with the collector paused
    so the program's live objects cannot slow it down."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def host_scale(before: float, after: float) -> float:
    """Factor that converts a time measured between two reference timings
    to the reference host speed.

    Other tenants of a shared host slow every instruction by up to 1.6x
    for seconds to minutes at a time; raw times then spread by 40% from
    run to run.  The reference slows by the same factor, so a time scaled
    by REFERENCE_S / reference time measures the program, not the host.
    """
    return REFERENCE_S / ((before + after) / 2)


def run_op(cli, op: ops.Op, cache_dir: str | None):
    """(exit status or error text, seconds, stdout) of one CLI call."""
    argv = list(op.argv) + ["--format", "json"]
    if cache_dir is not None:
        argv += ["--cache-dir", cache_dir]
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught library error fails the op only
        code = f"raised {type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, out.getvalue()


def fill_cache(cli, round_ops, cache_dir: str) -> tuple[float, float]:
    """Run the round against cache_dir; returns raw and scaled seconds."""
    raw = scaled = 0.0
    reference = reference_time()
    for _, op in round_ops:
        code, seconds, _ = run_op(cli, op, cache_dir)
        if code != 0:
            raise SetupError(f"cache fill failed on {op.key}: {code}")
        after = reference_time()
        raw += seconds
        scaled += seconds * host_scale(reference, after)
        reference = after
    return raw, scaled


def setup_probe(args) -> int:
    """Child process: do a run's set-up, then report how long the fill
    took, raw and scaled, and a reference timing."""
    cli = import_cli()
    run_rounds = ops.rounds(args.workload, args.seed, args.smoke)
    raw = scaled = 0.0
    if args.fill:
        raw, scaled = fill_cache(cli, run_rounds[0], args.fill)
    print(json.dumps({"fill_raw": raw, "fill_scaled": scaled,
                      "reference": reference_time()}))
    return 0


def measure_setup(args) -> tuple[list[float], str | None]:
    """Set up in fresh processes; returns the scaled times and the warm
    cache."""
    times, cache_dir = [], None
    for _ in range(1 if args.smoke else SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        if ops.repeats_round(args.workload):
            if cache_dir is not None:
                shutil.rmtree(cache_dir)
            cache_dir = tempfile.mkdtemp(prefix="warm-", dir=OUT_DIR)
            cmd += ["--fill", cache_dir]
        before = reference_time()
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout)
        rest = seconds - probe["fill_raw"]
        times.append(rest * host_scale(before, probe["reference"])
                     + probe["fill_scaled"])
    return times, cache_dir


def run_rounds(args, cli, gate, warm_dir, tracer):
    """Execute rounds until the time is used; returns the run's record.

    Scaled operation times are kept per class, separately for traced
    rounds; raw round times are kept for the summary.
    """
    planned = ops.rounds(args.workload, args.seed, args.smoke)
    available = None if ops.repeats_round(args.workload) else len(planned)
    min_rounds = MIN_ROUNDS + (1 if tracer else 0)
    samples = {False: defaultdict(list), True: defaultdict(list)}
    round_walls = {False: [], True: []}
    scales: dict[str, float] = {}
    failures, attempted = [], 0
    started = time.perf_counter()
    reference = reference_time()
    references = [reference]
    k = 0
    while available is None or k < available:
        done = round_walls[False] + round_walls[True]
        elapsed = time.perf_counter() - started
        if (len(done) >= min_rounds
                and elapsed + statistics.median(done) > args.seconds):
            break
        round_ops = planned[0] if available is None else planned[k]
        tracing = tracer is not None and k % 2 == 1
        cache_dir = warm_dir
        if args.workload == "fields_cold":
            cache_dir = tempfile.mkdtemp(prefix="cold-", dir=OUT_DIR)
        if tracing:
            tracer.install()
        wall = 0.0
        try:
            for slot, op in round_ops:
                label = f"{k}:{op.key}"
                if tracing:
                    tracer.label(label)
                code, seconds, stdout = run_op(cli, op, cache_dir)
                after = reference_time()
                scales[label] = host_scale(reference, after)
                samples[tracing][slot].append(seconds * scales[label])
                reference = after
                references.append(after)
                wall += seconds
                attempted += 1
                if tracing:
                    tracer.counts["cli.stdout_bytes"] += len(stdout.encode())
                problems = gate.problems(op, code, stdout)
                if problems:
                    failures.append((op.key, problems))
                del stdout
                gc.collect()  # each op starts on a clean heap, as a CLI run
        finally:
            if tracing:
                tracer.uninstall()
            if cache_dir is not warm_dir:
                shutil.rmtree(cache_dir)
        round_walls[tracing].append(wall)
        k += 1
    return {"samples": samples, "round_walls": round_walls,
            "scales": scales, "reference_s": statistics.median(references),
            "failures": failures, "attempted": attempted,
            "digest": ops.digest(planned[:k])}


def round_time(samples: dict[int, list[float]]) -> float:
    """A round's time: the sum over classes of the median scaled time of
    the class's operations (equal-cost draws, so pairings do not matter)."""
    return sum(statistics.median(times) for times in samples.values())


def layer_metrics(tracer, record) -> dict[str, tuple[float, str]]:
    """Per traced round: scaled self times, counts and ratios."""
    n = len(record["round_walls"][True])
    selfs = tracer.self_times(record["scales"])
    out: dict[str, tuple[float, str]] = {}
    for name, span_names in spans.TIME_METRICS.items():
        out[name] = (sum(selfs.get(s, 0.0) for s in span_names) / n, "s")
    for name in spans.COUNT_METRICS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        out[name] = (tracer.counts[name] / n, unit)
    for name, (num, den) in spans.RATIO_METRICS.items():
        total = tracer.counts[den]
        out[name] = (tracer.counts[num] / total if total else 0.0, "ratio")
    wall = sum(sum(times) for times in record["samples"][True].values())
    out["trace.wall_s"] = (wall / n, "s")
    out["trace.overhead_share"] = (
        round_time(record["samples"][True])
        / round_time(record["samples"][False]) - 1, "ratio")
    out["trace.unattributed_share"] = ((wall - sum(selfs.values())) / wall,
                                       "ratio")
    out["trace.missing_targets"] = (len(tracer.missing), "count")
    out["trace.hook_errors"] = (tracer.counts["trace.hook_errors"], "count")
    out["trace.spans"] = (len(tracer.spans) / n, "count")
    return out


def provenance(args, record) -> dict:
    """What produced the result: inputs, interpreter, host and sources."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cyheights")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "cpus": os.cpu_count(),
            "git_sha": _git_sha(), "src_sha256": digest.hexdigest()[:16],
            "ops_sha256": record["digest"]}


def _git_sha() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=ops.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operations, for the benchmark's own test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--fill", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        cli = import_cli()
        gate = Gate()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # One CPU for this process and its set-up probes, so the reference
    # timings see the same core and the same neighbours as the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = spans.Tracer() if args.trace else None
    warm_dir = None
    try:
        setup_times, warm_dir = measure_setup(args)
        record = run_rounds(args, cli, gate, warm_dir, tracer)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if warm_dir is not None:
            shutil.rmtree(warm_dir)

    info = provenance(args, record)
    print("provenance " + json.dumps(info, sort_keys=True))
    for key, problems in record["failures"]:
        print(f"FAILED {key}: {'; '.join(problems)}")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (round_time(record["samples"][False]), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, record)
        if tracer.missing:
            print("missing trace targets: " + ", ".join(tracer.missing))
        path = os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl")
        tracer.write(path, info)
    attempted, failed = record["attempted"], len(record["failures"])
    walls = record["round_walls"][False] + record["round_walls"][True]
    print("raw round times " + " ".join(f"{w:.3f}" for w in walls)
          + f"; median reference {record['reference_s'] * 1000:.1f} ms"
          + f" (nominal {REFERENCE_S * 1000:.1f} ms)")
    print(f"rounds {len(walls)}, operations {attempted}, fail_share "
          f"{failed}/{attempted} = {failed / attempted:.3f} (ratio)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
