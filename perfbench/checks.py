"""Correctness gate for one benchmark operation.

Each operation must exit 0 and its JSON must pass the checks the paper's
statements give (predictions agree, zeta point counts match brute force,
Stickelberger valuations equal exponents, Hodge numbers and slopes are
consistent).  Its mathematical answers must also equal the ones recorded
in answers.json, which record_answers.py wrote from the code the
benchmark was defined on.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from ops import Op

ANSWERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "answers.json")


def alpha_count(m: int, r: int) -> int:
    """Number of exponent vectors, ((m-1)^(r+2) + (-1)^r (m-1)) / m."""
    return ((m - 1) ** (r + 2) + (-1) ** r * (m - 1)) // m


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def answers(op: Op, doc: dict) -> dict:
    """The mathematical content of an operation's JSON output."""
    cmd = op.command
    if cmd == "height":
        out = {k: doc[k] for k in ("height", "slope_deficient_count",
                                   "predicted_height")}
        if "--full" in op.argv:
            out.update({k: doc[k]
                        for k in ("slopes", "hodge", "fully_rigged")})
        return out
    if cmd == "kummer":
        return {k: doc[k] for k in ("points", "trace", "p_rank",
                                    "quotient_height")}
    if cmd == "survey kummer":
        return {"rows": [[row["p"], row["height"]] for row in doc["rows"]]}
    if cmd == "zeta":
        return {"degree": doc["degree"],
                "poly_sha256": _sha(doc["poly_coeffs"]),
                "counts": [[c["s"], c["zeta_count"]] for c in doc["checks"]]}
    if cmd == "stickelberger":
        return {"total": doc["total"], "equal_count": doc["equal_count"],
                "valuations_sha256": _sha([row["valuation"]
                                           for row in doc["rows"]])}
    raise ValueError(f"no answer extractor for {cmd!r}")


def invariant_problems(op: Op, doc: dict) -> list[str]:
    """The paper's checks that fail on an operation's JSON output."""
    args = dict(zip(op.argv[1::2], op.argv[2::2]))
    problems = []
    cmd = op.command
    if cmd in ("height", "kummer") and doc.get("agree") is False:
        problems.append("prediction disagrees")
    if cmd == "survey kummer":
        if not doc["rows"]:
            problems.append("survey returned no rows")
        if any(row.get("agree") is False for row in doc["rows"]):
            problems.append("a survey row disagrees with its prediction")
    if cmd in ("height", "zeta", "stickelberger"):
        m, r = int(args["--m"]), int(args["--r"])
        count = alpha_count(m, r)
    if cmd == "height":
        if doc["alpha_count"] != count:
            problems.append("alpha_count differs from the closed form")
        if "--full" in op.argv:
            if sum(doc["hodge"]) != count:
                problems.append("Hodge numbers do not sum to alpha_count")
            slopes = {Fraction(s): mult for s, mult in doc["slopes"]}
            if sum(slopes.values()) != count:
                problems.append(
                    "slope multiplicities do not sum to alpha_count")
            if slopes != {r - s: mult for s, mult in slopes.items()}:
                problems.append("slopes are not symmetric under s -> r - s")
    if cmd == "zeta":
        wanted = [int(s) for s in args["--check"].split(",")]
        if [c["s"] for c in doc["checks"]] != wanted:
            problems.append("point-count checks missing")
        if not doc["all_match"] or not all(c["match"] for c in doc["checks"]):
            problems.append("zeta point count differs from brute force")
        if doc["degree"] != count:
            problems.append("zeta degree differs from alpha_count")
    if cmd == "stickelberger":
        if not doc["all_equal"] or doc["equal_count"] != doc["total"]:
            problems.append(
                "a valuation differs from its Stickelberger exponent")
        if doc["total"] != count:
            problems.append("row count differs from alpha_count")
        if doc["precision_failures"]:
            problems.append("p-adic precision failures")
    return problems


class Gate:
    """Checks operations against the invariants and the recorded answers."""

    def __init__(self):
        with open(ANSWERS_PATH, encoding="utf-8") as fh:
            self.recorded = json.load(fh)["answers"]

    def problems(self, op: Op, code, stdout: str) -> list[str]:
        """Why the operation failed; an empty list means it passed."""
        if code != 0:
            return [f"exit status {code}"]
        try:
            doc = json.loads(stdout)
            problems = invariant_problems(op, doc)
            got = answers(op, doc)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed JSON output: {exc!r}"]
        expected = self.recorded.get(op.key)
        if expected is None:
            problems.append("no recorded answer for this operation")
        elif got != expected:
            problems.append("answer differs from the recorded answer")
        return problems
