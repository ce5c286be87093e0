"""Command-line front end.

Commands answer single-instance queries (height, zeta, stickelberger,
kummer) or sweep a prime range (survey).  Primary output goes to stdout
in the requested format; anything diagnostic, including timings, goes to
stderr, so re-running a command is byte-identical on stdout.

Exit codes: 0 all requested checks passed, 1 a computed value disagreed
with a theorem prediction, 2 invalid input, 3 a size budget was
exceeded, 4 an internal check failed (a bug, not a verdict).
Every record and verdict comes from the library (variety_report,
zeta_report, stickelberger_check, kummer_report); a command adds its
name, formats the record and parses only the options it reads, besides
--format and the inert --cache-dir.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from itertools import compress
from math import gcd, isqrt

from . import fermat, kummer
from .errors import BudgetError, InputError
from .finite_field import DEFAULT_TABLE_BUDGET

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


# --- output helpers ---


def _emit_json(payload: dict) -> None:
    """One line with sorted keys; without indent the C encoder runs."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _emit_csv(schema: str, fieldnames: list[str], rows: list[dict]) -> None:
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
    if args.format == "json":
        _emit_json({"command": "stickelberger", **record})
    elif args.format == "csv":
        fields = ["alpha", "exponent", "valuation", "equal", "error"]
        rows = [{**row, "alpha": " ".join(map(str, row["alpha"]))}
                for row in record["rows"]]
        _emit_csv("stickelberger/v1", fields, rows)
    else:
        print(f"(p={record['p']}, m={record['m']}, r={record['r']}): "
              f"{record['equal_count']}/{record['total']} Jacobi-sum "
              f"valuations equal their Stickelberger exponents")
        for row in record["rows"]:
            if not row["equal"]:
                print(f"  MISMATCH alpha={tuple(row['alpha'])}: exponent "
                      f"{row['exponent']}, valuation {row['valuation']}")
    return EXIT_OK if record["all_equal"] else EXIT_MISMATCH


# --- survey ---


def _primes_in(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), sieved over that window alone by the primes
    up to isqrt(hi - 1).  Its two byte tables, hi - lo + isqrt(hi) bytes,
    are checked against DEFAULT_TABLE_BUDGET before either is allocated."""
    lo, root = max(lo, 2), isqrt(max(hi - 1, 0))
    size = max(hi - lo, 0) + root + 1
    if size > DEFAULT_TABLE_BUDGET:
        raise BudgetError(f"table-size budget exceeded: sieving [{lo}, {hi}) "
                          f"takes {size} bytes > {DEFAULT_TABLE_BUDGET}")
    base, window = bytearray([1]) * (root + 1), bytearray([1]) * (hi - lo)
    for n in range(2, root + 1):
        if base[n]:  # no smaller prime divides n
            base[n * n::n] = bytes(len(range(n * n, root + 1, n)))
            start = max(n * n, -(-lo // n) * n)
            window[start - lo::n] = bytes(len(range(start, hi, n)))
    return list(compress(range(lo, hi), window))


def _height_row(task: tuple[int, int, int, int]) -> dict:
    p, m, r, budget = task
    report = fermat.variety_report(p, m, r, budget=budget)
    return {k: report[k]
            for k in ("p", "f", "height", "predicted_height", "agree")}


def _artin_row(task: tuple[int, int, int, int]) -> dict:
    p, m, r, budget = task
    cmp = fermat.artin_comparison(p, m, r, budget=budget)
    return {"p": p, "additive_type": cmp.additive_type,
            "fully_rigged": cmp.fully_rigged}


def _kummer_row(task: tuple[int]) -> dict:
    report = kummer.kummer_report(task[0])
    return {"p": report["p"], "height": report["quotient_height"],
            "predicted_height": report["predicted_height"],
            "agree": report["agree"]}


_SURVEY_KINDS = {
    "height": (_height_row, "survey-height/v1",
               ["p", "f", "height", "predicted_height", "agree"]),
    "artin": (_artin_row, "survey-artin/v1",
              ["p", "additive_type", "fully_rigged"]),
    "kummer": (_kummer_row, "survey-kummer/v1",
               ["p", "height", "predicted_height", "agree"]),
}


def _worker_count(jobs: int, tasks: int) -> int:
    """Survey processes, capped: a fork pool starts every worker at once."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _cmd_survey(args) -> int:
    worker, schema, fields = _SURVEY_KINDS[args.kind]
    if args.kind == "kummer":
        primes = _primes_in(max(args.p_min, 5), args.p_max)
        for p in primes:  # raise on the first prime over budget, uncounted
            kummer.check_prime_budget(p)
        tasks = [(p,) for p in primes]
    else:
        tasks = [(p, args.m, args.r, args.alpha_budget)
                 for p in _primes_in(args.p_min, args.p_max)
                 if gcd(p, args.m) == 1]
    if not tasks:
        raise InputError("empty prime range")

    started = time.monotonic()
    workers = _worker_count(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(worker, tasks))
    else:
        rows = [worker(t) for t in tasks]
    rows.sort(key=lambda row: row["p"])
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
                          "or a point count holds a q-entry table")


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
    _add_alpha_budget(sub, "multiset-walk heads")
    _add_common(sub)
    sub.set_defaults(run=_cmd_height)

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
                          "(r+1)(d+1)(Q-1)/d with Q = q^s and "
                          "d = gcd(m, Q-1)")
    _add_alpha_budget(sub, "exponent vectors |A|, the degree of P(T)")
    _add_table_budget(sub)
    _add_common(sub)
    sub.set_defaults(run=_cmd_zeta)

    sub = subs.add_parser("stickelberger",
                          help="compare Jacobi-sum valuations with "
                               "Stickelberger exponents")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    _add_alpha_budget(sub, "exponent vectors |A|, the row count")
    _add_table_budget(sub)
    _add_common(sub)
    sub.set_defaults(run=_cmd_stickelberger)

    survey = subs.add_parser("survey", help="sweep a range of primes")
    kinds = survey.add_subparsers(dest="kind", required=True)
    for kind in sorted(_SURVEY_KINDS):
        sub = kinds.add_parser(kind, help=f"one {kind} row per prime")
        if kind == "kummer":
            sub.set_defaults(m=None, r=None)
        else:
            sub.add_argument("--m", type=int, required=True)
            sub.add_argument("--r", type=int, required=True)
            _add_alpha_budget(sub, "multiset-walk heads per prime")
        sub.add_argument("--p-min", type=int, default=2)
        sub.add_argument("--p-max", type=int, required=True)
        sub.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                         help="worker processes, capped at the prime and "
                              "CPU counts (default: CPU count)")
        _add_common(sub)
        sub.set_defaults(run=_cmd_survey)

    sub = subs.add_parser("kummer", help="elliptic-curve and Kummer heights")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--a", type=int, default=0)
    sub.add_argument("--b", type=int, default=1)
    _add_common(sub)
    sub.set_defaults(run=_cmd_kummer)

    return parser


def _parse_s_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad s-list {text!r}") from exc
    if any(s < 1 for s in values):
        raise argparse.ArgumentTypeError("s values must be >= 1")
    return values


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("jobs", "alpha_budget", "table_budget", "point_budget"):
        if getattr(args, name, 1) < 1:
            _diag(f"error: --{name.replace('_', '-')} must be positive")
            return EXIT_INVALID
    started = time.monotonic()
    try:
        with _int_digits_unlimited():
            code = args.run(args)
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
