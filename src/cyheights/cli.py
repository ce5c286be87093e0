"""Command-line front end.

Commands answer single-instance queries (height, zeta, stickelberger,
kummer) or sweep a prime range (survey).  Primary output goes to stdout
in the requested format; anything diagnostic, including timings, goes to
stderr, so re-running a command is byte-identical on stdout.

Exit codes: 0 all requested checks passed, 1 a computed value disagreed
with a theorem prediction, 2 invalid input, 3 a size budget was
exceeded, 4 an internal check failed (a bug, not a verdict).
Every record and verdict comes from the library (variety_report,
zeta_report, stickelberger_check, variety_survey, artin_survey,
kummer_report); a command adds its name, formats the record and parses
only the options it reads, besides --format and the inert --cache-dir.
stickelberger writes row i as vectors[i] with verdicts[keys[i]], survey
height|artin row p as the record of p mod m.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import cache
from itertools import compress
from operator import add

from . import fermat, kummer
from .errors import BudgetError, InputError
from .finite_field import (DEFAULT_TABLE_BUDGET, _check_sieve, _least_prime,
                           _primes_in)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


# --- output helpers ---


def _emit_json(payload: dict) -> None:
    """One line with sorted keys; without indent the C encoder runs.
    Payloads are fresh trees, so the circular-reference check is off."""
    sys.stdout.write(json.dumps(payload, sort_keys=True,
                                check_circular=False) + "\n")


def _emit_csv(schema: str, fieldnames: list[str], rows: list[dict]) -> None:
    import csv  # here, so that a run that writes no csv never loads it

    sys.stdout.write(f"# schema=cyheights.{schema}\n")
    writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)


@contextmanager
def _int_digits_unlimited():
    """Lift the interpreter's limit on decimal digits in int-to-str
    conversion while a command runs, restoring it on exit.

    Printed integers outgrow the default limit of 4300 digits: the P(T)
    coefficients of `zeta` at (p, m, r) = (13, 6, 4), and q = p^f in
    `height` at (10^12 + 39, 367, 1).  The limit stays in force for
    library callers.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters without the limit
        yield
        return
    saved = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _diag(msg: str) -> None:
    sys.stderr.write(msg + "\n")


# --- height ---


def _cmd_height(args) -> int:
    report = fermat.variety_report(args.p, args.m, args.r,
                                   budget=args.alpha_budget)
    payload = {"command": "height", **report}
    if not args.full:
        for key in ("slopes", "hodge", "fully_rigged"):
            del payload[key]
    agree = payload["agree"]
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        fields = ["p", "m", "r", "f", "q", "height",
                  "slope_deficient_count", "predicted_height", "agree"]
        _emit_csv("height/v1", fields, [{k: payload[k] for k in fields}])
    else:
        print(f"Fermat variety m={payload['m']} r={payload['r']} over "
              f"GF({payload['p']}^{payload['f']}): height {payload['height']}")
        print(f"slope-deficient eigenvalues: "
              f"{payload['slope_deficient_count']} of "
              f"{payload['alpha_count']}")
        if payload["predicted_height"] is None:
            print("no closed-form prediction applies (needs m = r + 2, r >= 2)")
        else:
            print(f"predicted height: {payload['predicted_height']}   "
                  f"agree: {'yes' if agree else 'NO'}")
        if args.full:
            print(f"Newton slopes: "
                  + " ".join(f"{s}x{mult}" for s, mult in payload["slopes"]))
            print(f"Hodge numbers: {payload['hodge']}")
            print(f"fully rigged: {payload['fully_rigged']}")
    return EXIT_OK if agree in (None, True) else EXIT_MISMATCH


# --- zeta ---


def _cmd_zeta(args) -> int:
    report = fermat.zeta_report(args.p, args.m, args.r, args.check,
                                alpha_budget=args.alpha_budget,
                                table_budget=args.table_budget,
                                point_budget=args.point_budget)
    payload = {"command": "zeta", **report}
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        fields = ["p", "m", "r", "s", "zeta_count", "brute_force_count",
                  "match"]
        rows = [{"p": report["p"], "m": report["m"], "r": report["r"], **c}
                for c in report["checks"]]
        _emit_csv("zeta-checks/v1", fields, rows)
    else:
        poles = " ".join(f"(1-q^{i}T)" for i in report["pole_q_powers"])
        print(f"Z(T) = P(T)^{report['sign_exponent']} / [{poles}],  "
              f"q = {report['q']}, deg P = {report['degree']}")
        print(f"P(T) coefficients: {report['poly_coeffs']}")
        for c in report["checks"]:
            flag = "match" if c["match"] else "MISMATCH"
            print(f"N_{c['s']}: zeta {c['zeta_count']} vs brute force "
                  f"{c['brute_force_count']}  [{flag}]")
    return EXIT_OK if report["all_match"] else EXIT_MISMATCH


# --- stickelberger ---


def _cmd_stickelberger(args) -> int:
    record = fermat.stickelberger_check(args.p, args.m, args.r,
                                        alpha_budget=args.alpha_budget,
                                        table_budget=args.table_budget)
    vectors, keys, verdicts = (record["vectors"], record["keys"],
                               record["verdicts"])
    if args.format == "json":
        sys.stdout.write(_stickelberger_json(record))
    elif args.format == "csv":
        fields = ["alpha", "exponent", "valuation", "equal", "error"]
        rows = [{**verdicts[key], "alpha": " ".join(map(str, alpha))}
                for alpha, key in zip(vectors, keys)]
        _emit_csv("stickelberger/v1", fields, rows)
    else:
        print(f"(p={record['p']}, m={record['m']}, r={record['r']}): "
              f"{record['equal_count']}/{record['total']} Jacobi-sum "
              f"valuations equal their Stickelberger exponents")
        mismatched = {i for i, verdict in enumerate(verdicts)
                      if not verdict["equal"]}
        for alpha, key in compress(zip(vectors, keys),
                                   map(mismatched.__contains__, keys)):
            verdict = verdicts[key]
            print(f"  MISMATCH alpha={alpha}: exponent "
                  f"{verdict['exponent']}, valuation {verdict['valuation']}")
    return EXIT_OK if record["all_equal"] else EXIT_MISMATCH


def _stickelberger_json(record: dict) -> str:
    """The JSON line for stickelberger_check's record: the document
    {"command": "stickelberger", **header, "rows": rows} that json.dumps
    would write, row i being {"alpha": vectors[i], **verdicts[keys[i]]},
    made with no dict and no Python step per row.  Each verdict is
    encoded once, and each key reads the fragment at its index; an alpha
    of r + 2 ints prints as its JSON list through one %-format.  The rows
    are joined in C."""
    fragments = [json.dumps(verdict, sort_keys=True)[1:]
                 for verdict in record["verdicts"]]
    form = '{"alpha": [' + ", ".join(["%d"] * (record["r"] + 2)) + "], "
    body = ", ".join(map(add, map(form.__mod__, record["vectors"]),
                         map(fragments.__getitem__, record["keys"])))
    header = {k: v for k, v in record.items()
              if k not in ("vectors", "keys", "verdicts")}
    head, _, end = json.dumps(
        {"command": "stickelberger", **header, "rows": []}, sort_keys=True,
        check_circular=False).partition('"rows": []')
    return f'{head}"rows": [{body}]{end}\n'


# --- survey ---


def _kummer_row(p: int) -> dict:
    report = kummer._report_at_prime(p, 0, 1)  # the sieve proved p prime
    return {"p": p, "height": report["quotient_height"],
            "predicted_height": report["predicted_height"],
            "agree": report["agree"]}


_SURVEY_KINDS = {
    "height": (fermat.variety_survey, "survey-height/v1",
               ["p", "f", "height", "predicted_height", "agree"]),
    "artin": (fermat.artin_survey, "survey-artin/v1",
              ["p", "additive_type", "fully_rigged"]),
    "kummer": (None, "survey-kummer/v1",
               ["p", "height", "predicted_height", "agree"]),
}


def _worker_count(jobs: int, tasks: int) -> int:
    """Survey processes, capped: a fork pool starts every worker at once."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _kummer_rows(lo: int, hi: int, jobs: int) -> tuple[list[dict], int]:
    """One row per prime of [max(lo, 5), hi), and the _worker_count
    processes that made them.  The sieve's budget, then a prime over the
    point-count budget, uncounted, raise before the window is sieved."""
    lo = max(lo, 5)
    _check_sieve(lo, hi)
    over = _least_prime(max(lo, kummer.DEFAULT_PRIME_BUDGET + 1), hi)
    if over is not None:
        kummer.check_prime_budget(over)
    primes = _primes_in(lo, hi)
    if not primes:
        raise InputError("empty prime range")
    workers = _worker_count(jobs, len(primes))
    if workers == 1:
        return list(map(_kummer_row, primes)), 1
    # Imported here, so no other call loads it or multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_kummer_row, primes, chunksize=-(
            -len(primes) // (4 * workers)))), workers


def _cmd_survey(args) -> int:
    """One row per prime of [p_min, p_max) prime to m.  A height or artin
    row is its class's record from one library call, with its own p."""
    survey, schema, fields = _SURVEY_KINDS[args.kind]
    started = time.monotonic()
    if args.kind == "kummer":
        rows, workers = _kummer_rows(args.p_min, args.p_max, args.jobs)
    else:
        primes, reports = survey(args.m, args.r, args.p_min, args.p_max,
                                 budget=args.alpha_budget)
        row_of_class = {c: {k: report[k] for k in fields[1:]}
                        for c, report in reports.items()}
        rows, workers = [{**row_of_class[p % args.m], "p": p}
                         for p in primes], 1
    _diag(f"survey {args.kind}: {len(rows)} rows in "
          f"{time.monotonic() - started:.2f}s with {workers} worker(s)")

    payload = {"command": "survey", "kind": args.kind,
               "m": args.m, "r": args.r, "rows": rows}
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(schema, fields, rows)
    else:
        print(f"survey {args.kind}" +
              (f" m={args.m} r={args.r}" if args.kind != "kummer" else "") +
              f" for primes in [{args.p_min}, {args.p_max})")
        for row in rows:
            print("  " + "  ".join(f"{k}={row[k]}" for k in fields))
    bad = [row for row in rows if row.get("agree") is False]
    return EXIT_MISMATCH if bad else EXIT_OK


# --- kummer ---


def _cmd_kummer(args) -> int:
    payload = {"command": "kummer",
               **kummer.kummer_report(args.p, args.a, args.b)}
    predicted, agree = payload["predicted_height"], payload["agree"]
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        fields = ["p", "a", "b", "points", "trace", "p_rank", "abelian_dim",
                  "curve_formal_height", "quotient_height",
                  "predicted_height", "agree"]
        _emit_csv("kummer/v1", fields, [{k: payload[k] for k in fields}])
    else:
        print(f"E: y^2 = x^3 + {payload['a']}x + {payload['b']} over "
              f"GF({args.p}): #E = {payload['points']}, "
              f"a_p = {payload['trace']}, p-rank {payload['p_rank']}")
        print(f"formal-group height of E: {payload['curve_formal_height']}")
        print(f"height of the E^3 Kummer quotient: "
              f"{payload['quotient_height']}")
        if predicted is not None:
            print(f"predicted (p mod 3 = {args.p % 3}): {predicted}   "
                  f"agree: {'yes' if agree else 'NO'}")
    return EXIT_OK if agree in (None, True) else EXIT_MISMATCH


# --- parser and dispatch ---


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["text", "json", "csv"],
                     default="text", help="output format (default: text)")
    sub.add_argument("--cache-dir",
                     help="ignored; every field is walked afresh")


def _add_alpha_budget(sub: argparse.ArgumentParser, bounds: str) -> None:
    sub.add_argument("--alpha-budget", type=int,
                     default=fermat.DEFAULT_ALPHA_BUDGET, help=f"max {bounds}")


def _add_table_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--table-budget", type=int, default=DEFAULT_TABLE_BUDGET,
                     help="max elements q of a field; a character pass "
                          "holds q log items of 1 to 8 bytes (1 for "
                          "m <= 16), a point count a q-entry list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyheights",
        description="Arithmetic invariants of Fermat and Kummer Calabi-Yau "
                    "varieties in positive characteristic, exactly.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("height", help="formal-group height by slope counting")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--full", action="store_true",
                     help="include slopes, Hodge numbers and the "
                          "algebraic-cycle predicate in the report")
    _add_alpha_budget(sub, "slope-profile DP transitions, bounded before "
                           "the DP runs")
    _add_common(sub)

    sub = subs.add_parser("zeta", help="zeta function and point-count checks")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--check", type=_parse_s_list, default=[],
                     help="comma-separated extension degrees s to verify "
                          "against convolution point counts")
    sub.add_argument("--point-budget", type=int,
                     default=fermat.DEFAULT_POINT_BUDGET,
                     help="max field subtractions per point count, "
                          "(r+1)(m+1)(Q-1)/m with Q = q^s")
    _add_alpha_budget(sub, "exponent vectors |A|, the degree of P(T)")
    _add_table_budget(sub)
    _add_common(sub)

    sub = subs.add_parser("stickelberger",
                          help="compare Jacobi-sum valuations with "
                               "Stickelberger exponents")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    _add_alpha_budget(sub, "exponent vectors |A|, the row count")
    _add_table_budget(sub)
    _add_common(sub)

    survey = subs.add_parser("survey", help="sweep a range of primes")
    kinds = survey.add_subparsers(dest="kind", required=True)
    for kind in sorted(_SURVEY_KINDS):
        sub = kinds.add_parser(kind, help=f"one {kind} row per prime")
        if kind == "kummer":
            sub.set_defaults(m=None, r=None)
            sub.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                             help="worker processes, capped at the rows and "
                                  "the CPU count (default: CPU count)")
        else:
            sub.add_argument("--m", type=int, required=True)
            sub.add_argument("--r", type=int, required=True)
            _add_alpha_budget(sub, "slope-profile DP transitions per "
                                   "profile")
        sub.add_argument("--p-min", type=int, default=2)
        sub.add_argument("--p-max", type=int, required=True)
        _add_common(sub)

    sub = subs.add_parser("kummer", help="elliptic-curve and Kummer heights")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--a", type=int, default=0)
    sub.add_argument("--b", type=int, default=1)
    _add_common(sub)

    return parser


def _parse_s_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad s-list {text!r}") from exc
    if any(s < 1 for s in values):
        raise argparse.ArgumentTypeError("s values must be >= 1")
    return values


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: main runs many times in a test
    or benchmark process, and each build takes milliseconds."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for name in ("jobs", "alpha_budget", "table_budget", "point_budget"):
        if getattr(args, name, 1) < 1:
            _diag(f"error: --{name.replace('_', '-')} must be positive")
            return EXIT_INVALID
    started = time.monotonic()
    try:
        with _int_digits_unlimited():
            # looked up at each call, so a replaced _cmd_* function runs
            code = globals()[f"_cmd_{args.command}"](args)
    except InputError as exc:
        _diag(f"error: {exc}")
        return EXIT_INVALID
    except BudgetError as exc:
        _diag(f"error: {exc}")
        return EXIT_BUDGET
    except Exception as exc:  # InternalCheckError or an uncaught bug
        _diag(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    _diag(f"{args.command} finished in {time.monotonic() - started:.2f}s")
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
