"""Outside-in tracing: wrap the library's public entry points from here.

Each target is the attribute a caller looks up (``cyheights.fermat.
build_field`` is what ``zeta_fermat`` calls), so replacing it records
every call without touching the package.  Per-element methods such as
``CycInt.__mul__`` stay unwrapped, so their time lands in the self time
of the span that called them.  A target that no longer exists is
reported as missing and the run goes on without it.

Spans live in memory as (id, parent, name, start, end, operation) and
are written out as JSON lines when the run ends.  Counts marked computed
come from input sizes, not from observing the work.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from math import gcd

from checks import alpha_count
from ops import order_mod

# span name -> attribute path; "Class.method" targets patch the class.
SPANS = {
    "cli": "cyheights.cli.main",
    "fermat.exponent_vectors": "cyheights.fermat.exponent_vectors",
    "fermat.slope_count": "cyheights.fermat.slope_deficient_count",
    "fermat.newton_slopes": "cyheights.fermat.newton_slopes",
    "fermat.hodge": "cyheights.fermat.hodge_numbers_fermat",
    "fermat.zeta_assembly": "cyheights.fermat.zeta_fermat",
    "fermat.brute_force": "cyheights.fermat.brute_force_point_count",
    "fermat.point_count_zeta": "cyheights.fermat.point_count_from_zeta",
    "fermat.stickelberger_check": "cyheights.fermat.stickelberger_check",
    "fermat.stickelberger_exponent":
        "cyheights.fermat.stickelberger_exponent",
    "cyclotomic.modulus_squared": "cyheights.fermat.modulus_squared",
    "finite_field.build": "cyheights.fermat.build_field",
    "character_sums.character": "cyheights.fermat.Character",
    "character_sums.two_variable":
        "cyheights.character_sums.Character.two_variable_sum",
    "character_sums.jacobi_sum": "cyheights.character_sums.jacobi_sum",
    "character_sums.jacobi_table": "cyheights.fermat.jacobi_sum_table",
    "character_sums.cache_load": "cyheights.cli.JacobiCache",
    "character_sums.cache_save": "cyheights.character_sums.JacobiCache.save",
    "character_sums.cache_get": "cyheights.character_sums.JacobiCache.get",
    "padic.context": "cyheights.fermat.ValuationOracle",
    "padic.valuation": "cyheights.padic.ValuationOracle.valuation",
    "kummer.count_points": "cyheights.kummer.ec_count_points",
}

# Layer time metrics: each is the self time of the listed spans.
TIME_METRICS = {
    "fermat.exponent_vectors_s": ["fermat.exponent_vectors"],
    "fermat.slope_count_s": ["fermat.slope_count"],
    "fermat.newton_slopes_s": ["fermat.newton_slopes"],
    "fermat.hodge_s": ["fermat.hodge"],
    "fermat.zeta_assembly_s": ["fermat.zeta_assembly"],
    "fermat.brute_force_s": ["fermat.brute_force"],
    "fermat.point_count_zeta_s": ["fermat.point_count_zeta"],
    "fermat.stickelberger_check_s": ["fermat.stickelberger_check"],
    "fermat.stickelberger_exponent_s": ["fermat.stickelberger_exponent"],
    "cyclotomic.modulus_squared_s": ["cyclotomic.modulus_squared"],
    "finite_field.build_s": ["finite_field.build"],
    "character_sums.character_s": ["character_sums.character"],
    "character_sums.two_variable_s": ["character_sums.two_variable"],
    "character_sums.jacobi_sum_s": ["character_sums.jacobi_sum"],
    "character_sums.jacobi_table_s": ["character_sums.jacobi_table",
                                      "character_sums.cache_get"],
    "character_sums.cache_load_s": ["character_sums.cache_load"],
    "character_sums.cache_save_s": ["character_sums.cache_save"],
    "padic.context_s": ["padic.context"],
    "padic.valuation_s": ["padic.valuation"],
    "kummer.count_points_s": ["kummer.count_points"],
    "cli.self_s": ["cli"],
}

COUNT_METRICS = (
    "fermat.alphas_enumerated",        # computed: alpha_count per enumeration
    "fermat.brute_force_candidates",   # computed: (Q^(r+2)-1)/(Q-1), Q = q^s
    "cyclotomic.modulus_squared_calls",
    "cyclotomic.zeta_mul_adds",        # computed: |A|(|A|+1)/2 * phi(m)^2
    "finite_field.builds",
    "finite_field.table_entries",
    "finite_field.table_bytes",        # computed: containers + boxed ints
    "character_sums.two_variable_calls",
    "character_sums.jacobi_evals",
    "padic.valuations",
    "padic.precision_doublings",
    "kummer.points_swept",             # computed: p per point count
    "cli.stdout_bytes",
)

RATIO_METRICS = {
    # name: (numerator count, denominator count)
    "character_sums.two_variable_memo_ratio":
        ("two_variable_memo_hits", "character_sums.two_variable_calls"),
    "character_sums.orbit_eval_ratio":
        ("character_sums.jacobi_evals", "jacobi_vectors_requested"),
    "character_sums.cache_hit_ratio": ("cache_hits", "cache_gets"),
}

_BOXED_INT_BYTES = sys.getsizeof(1 << 20)


def _resolve(path: str):
    """(owner, attribute name, current value) for a dotted target path."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        owner = obj
        for name in parts[split:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(path)


def _phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _table_bytes(table) -> int:
    size = sys.getsizeof(table)
    if isinstance(table, (tuple, list)):
        size += len(table) * _BOXED_INT_BYTES
    return size


class Tracer:
    """Records spans and counts while installed; a no-op otherwise."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = [0]
        self._patches: list[tuple] = []
        self._label = ""

    # --- installation ---

    def install(self) -> None:
        self.missing = []
        for name, path in SPANS.items():
            try:
                owner, attr, original = _resolve(path)
            except (ImportError, AttributeError):
                self.missing.append(path)
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def label(self, text: str) -> None:
        """Tag the spans that follow, e.g. with the round and operation."""
        self._label = text

    # --- recording ---

    def _wrap(self, name: str, original):
        method = name.replace(".", "_")
        before = getattr(self, "_before_" + method, None)
        observe = getattr(self, "_observe_" + method, None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            token = self._hook(before, args, kwargs) if before else None
            span_id = len(spans) + 1
            parent = stack[-1]
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id - 1] = (span_id, parent, name, start, end,
                                      self._label)
            if observe is not None:
                self._hook(observe, (result, token) + args, kwargs)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _hook(self, hook, args, kwargs):
        """Run a counting hook; a changed signature costs a count, never
        the run."""
        try:
            return hook(*args, **kwargs)
        except (TypeError, AttributeError, IndexError, KeyError, ValueError):
            self.counts["trace.hook_errors"] += 1
            return None

    # Hooks take the wrapped call's arguments; observers first get the
    # result and the token their before-hook returned.

    def _observe_fermat_exponent_vectors(self, result, _, m, r, **__):
        self.counts["fermat.alphas_enumerated"] += alpha_count(m, r)

    def _observe_fermat_brute_force(self, result, _, p, m, r, s, **__):
        big_q = p ** (order_mod(p, m) * s)
        self.counts["fermat.brute_force_candidates"] += (
            (big_q ** (r + 2) - 1) // (big_q - 1))

    def _observe_fermat_zeta_assembly(self, result, _, p, m, r, **__):
        a = alpha_count(m, r)
        self.counts["cyclotomic.zeta_mul_adds"] += (a * (a + 1) // 2
                                                    * _phi(m) ** 2)

    def _observe_cyclotomic_modulus_squared(self, *_, **__):
        self.counts["cyclotomic.modulus_squared_calls"] += 1

    def _observe_finite_field_build(self, field, *_, **__):
        self.counts["finite_field.builds"] += 1
        self.counts["finite_field.table_entries"] += (len(field.exp)
                                                      + len(field.dlog))
        self.counts["finite_field.table_bytes"] += (_table_bytes(field.exp)
                                                    + _table_bytes(field.dlog))

    def _before_character_sums_two_variable(self, chi, s, b):
        key = (s % chi.m, b % chi.m)
        return key in chi._two_var_cache

    def _observe_character_sums_two_variable(self, result, memo_hit, *_):
        self.counts["character_sums.two_variable_calls"] += 1
        self.counts["two_variable_memo_hits"] += bool(memo_hit)

    def _observe_character_sums_jacobi_sum(self, *_, **__):
        self.counts["character_sums.jacobi_evals"] += 1

    def _observe_character_sums_jacobi_table(self, result, *_, **__):
        self.counts["jacobi_vectors_requested"] += len(result)

    def _observe_character_sums_cache_get(self, result, *_, **__):
        self.counts["cache_gets"] += 1
        self.counts["cache_hits"] += result is not None

    def _before_padic_valuation(self, oracle, *_):
        return oracle.context.k

    def _observe_padic_valuation(self, result, k_before, oracle, *_):
        self.counts["padic.valuations"] += 1
        k = oracle.context.k
        while k > k_before:
            k_before *= 2
            self.counts["padic.precision_doublings"] += 1

    def _observe_kummer_count_points(self, result, _, curve, **__):
        self.counts["kummer.points_swept"] += curve.p

    # --- results ---

    def self_times(self, scales: dict[str, float]) -> dict[str, float]:
        """Self time per span name: duration minus direct children's, each
        multiplied by the scale of the operation the span belongs to."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[1]:
                child_time[span[1]] += span[4] - span[3]
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span is not None:
                out[span[2]] += ((span[4] - span[3] - child_time[span[0]])
                                 * scales.get(span[5], 1.0))
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                if span is None:
                    continue
                span_id, parent, name, start, end, label = span
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end, "op": label}) + "\n")
