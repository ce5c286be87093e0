"""Workload definitions: the CLI operations each benchmark round runs.

A workload is a list of classes.  Each class is a pool of CLI operations
of one command and (m, r) shape, with primes chosen so the costs stay
close.  A round takes one operation from every class.  The seed shuffles
every pool and the order of the operations inside each round.  A run that
completes all its rounds runs every pooled operation once, so different
seeds run the same work in a different arrangement.

For ``heights``, ``zeta`` and ``fields_cold`` the pools are consumed
without replacement: no operation repeats within a run, so an in-process
memo inside the library could never turn a repeated query into a free
one.  ``fields_cold`` further keeps every (p, f) field distinct within a
run, and each of its rounds starts from an empty cache directory.
``fields_warm`` repeats one fixed round, in a seed-chosen order, against
a cache that a separate process filled during set-up: repeated reads are
its point.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

WORKLOADS = ("heights", "zeta", "fields_cold", "fields_warm")


@dataclass(frozen=True)
class Op:
    """One CLI invocation, without the output-format and cache flags."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        if self.argv[0] == "survey":
            return "survey " + self.argv[1]
        return self.argv[0]


def _op(*parts) -> Op:
    return Op(tuple(str(x) for x in parts))


def _height(p, m, r, *extra):
    return _op("height", "--p", p, "--m", m, "--r", r, *extra)


def _zeta(p, m, r, checks="1"):
    return _op("zeta", "--p", p, "--m", m, "--r", r, "--check", checks)


def _stick(p, m, r):
    return _op("stickelberger", "--p", p, "--m", m, "--r", r)


def _survey_kummer(lo, hi):
    return _op("survey", "kummer", "--p-min", lo, "--p-max", hi, "--jobs", 1)


# Slope enumeration at m = 8, r = 6 costs the same for every prime in one
# residue class mod 8 (the work depends only on <p> in (Z/8)^*), so each
# class is a pool of its own.  The --full op, the Kummer point count near
# 10^5 and the 200-wide survey window are the smaller ops of a round.
_HEIGHTS = [
    [_height(p, 8, 6) for p in (17, 41, 73, 89, 97)],
    [_height(p, 8, 6) for p in (3, 11, 19, 43, 59)],
    [_height(p, 8, 6) for p in (5, 13, 29, 37, 53)],
    [_height(p, 8, 6) for p in (7, 23, 31, 47, 71)],
    [_height(p, 7, 5, "--full") for p in (3, 17, 31, 59, 73)],
    [_op("kummer", "--p", p)
     for p in (100003, 100019, 100043, 100049, 100057)],
    [_survey_kummer(lo, lo + 200) for lo in range(10000, 11000, 200)],
]

# Zeta assembly dominates the (6,3) and (8,2) classes; the brute-force
# point count dominates the curves (m, 1) at q near 1000.
_ZETA = [
    [_zeta(p, 6, 3) for p in (5, 7, 13, 19, 31)],
    [_zeta(p, 8, 2) for p in (3, 5, 7, 17, 41)],
    [_zeta(p, 3, 1) for p in (1009, 1021, 1033, 1039, 1051)],
    [_zeta(p, 4, 1) for p in (1009, 1013, 1021, 1033, 1049)],
]

# Large fields built anew, each round in an empty cache: odd p
# with f = 1 near 10^5, odd p with f = 2 and q from 10^4 to 3.9*10^4 (the
# multi-digit subtraction path) and p = 2 (the XOR path) with a different
# f in every round.  Field build and two-variable sums share the time.
_FIELDS_COLD = [
    [_stick(p, 7, 1) for p in (100003, 100129, 100213, 100297, 100493,
                               100549, 100591, 100703)],
    [_stick(p, 3, 3) for p in (131, 137, 149, 167, 173, 179, 191, 197)],
    [_stick(p, 8, 1) for p in (101, 103, 107, 109, 127, 139, 151, 157)],
    [_stick(2, m, r) for m, r in ((7, 3), (15, 2), (31, 1), (9, 3), (17, 1),
                                  (11, 2), (23, 1), (13, 1))],
]

# Many exponent vectors with large phi(m) over small fields: the cached
# path reads the Jacobi table, fills Galois orbits and computes
# valuations, for little field-table work.  The round is fixed; the seed
# orders it.
_FIELDS_WARM = [
    [_stick(2, 73, 1)],
    [_stick(2, 63, 1)],
    [_stick(7, 57, 1)],
    [_stick(5, 31, 1)],
    [_stick(3, 11, 2)],
]

# Tiny variants for the smoke test: same commands, desk-scale sizes.
_SMOKE = {
    "heights": [[_height(p, 5, 3) for p in (11, 2)],
                [_height(p, 4, 2, "--full") for p in (5, 3)],
                [_op("kummer", "--p", p) for p in (101, 103)],
                [_survey_kummer(lo, lo + 30) for lo in (100, 130)]],
    "zeta": [[_zeta(p, 3, 1, "1,2") for p in (7, 13)],
             [_zeta(p, 4, 2) for p in (5, 13)]],
    "fields_cold": [[_stick(p, 5, 1) for p in (11, 31)],
                    [_stick(p, 3, 2) for p in (5, 17)],
                    [_stick(2, m, 1) for m in (5, 7)]],
    "fields_warm": [[_stick(p, 5, 2) for p in (2, 3)],
                    [_stick(p, 4, 2) for p in (3, 5)]],
}

_FULL = {"heights": _HEIGHTS, "zeta": _ZETA,
         "fields_cold": _FIELDS_COLD, "fields_warm": _FIELDS_WARM}


def classes(workload: str, smoke: bool = False) -> list[list[Op]]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return (_SMOKE if smoke else _FULL)[workload]


def all_ops() -> list[Op]:
    """Every operation any workload can run, smoke sizes included."""
    seen: dict[str, Op] = {}
    for table in (_FULL, _SMOKE):
        for pools in table.values():
            for pool in pools:
                for op in pool:
                    seen.setdefault(op.key, op)
    return list(seen.values())


def repeats_round(workload: str) -> bool:
    return workload == "fields_warm"


def rounds(workload: str, seed: int,
           smoke: bool = False) -> list[list[tuple[int, Op]]]:
    """The run's rounds as (class index, operation) pairs, in order.

    The run may stop before the last round.  A workload that repeats its
    round returns it once; the caller reuses it.
    """
    rng = random.Random(f"{workload}:{seed}")
    pools = [list(pool) for pool in classes(workload, smoke)]
    for pool in pools:
        rng.shuffle(pool)
    count = 1 if repeats_round(workload) else min(len(p) for p in pools)
    out = []
    for k in range(count):
        round_ops = [(c, pool[k]) for c, pool in enumerate(pools)]
        rng.shuffle(round_ops)
        out.append(round_ops)
    if workload == "fields_cold":
        _check_fresh_fields([op for ops in out for _, op in ops])
    return out


def order_mod(p: int, m: int) -> int:
    """Least f >= 1 with p^f = 1 mod m, i.e. GF(p^f) is the field of (p, m)."""
    f, x = 1, p % m
    while x != 1:
        x, f = (x * p) % m, f + 1
    return f


def _field_of(op: Op) -> tuple[int, int]:
    args = dict(zip(op.argv[1::2], op.argv[2::2]))
    p, m = int(args["--p"]), int(args["--m"])
    return p, order_mod(p, m)


def _check_fresh_fields(run_ops: list[Op]) -> None:
    fields = [_field_of(op) for op in run_ops]
    if len(set(fields)) != len(fields):
        raise ValueError("fields_cold repeats a (p, f) field within a run")


def digest(run_rounds: list[list[tuple[int, Op]]]) -> str:
    """sha256 of the generated operation list, for provenance."""
    payload = json.dumps([[op.key for _, op in ops] for ops in run_rounds])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
