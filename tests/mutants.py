"""Mutation gate: every mutant is a fault that the named tests must catch.

Run from anywhere, with pytest installed:

    python tests/mutants.py

Each mutant is one exact-text replacement in one file.  The harness
copies src/, tests/, perfbench/ (whose operations test_padic.py reads)
and README.md (whose commands test_cli.py runs) into a temporary
directory, checks that the old text occurs there exactly once, applies
the replacement and runs ``pytest -x -q`` on the mutant's test files.
The mutant is killed when a test fails (pytest exit status 1); a mutant
that pytest cannot even collect is broken, not killed.  The named test files must pass on the
unmutated copy first.  The run exits 1 if the clean run fails, if any
mutant's text no longer matches exactly once, or if any mutant
survives or is broken.

The file name keeps pytest from collecting this module.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, old text, new text, test files)
MUTANTS = [
    ("doubling slope + 2*A", "src/cyheights/kummer.py",
     "slope = (3 * x1 * x1 + A)", "slope = (3 * x1 * x1 + 2 * A)",
     ["test_kummer.py"]),
    ("twist test flipped", "src/cyheights/kummer.py",
     "if legendre(c, p) < 0:", "if legendre(c, p) > 0:",
     ["test_kummer.py"]),
    ("Hasse interval one short", "src/cyheights/kummer.py",
     "lo, hi = p + 1 - r, p + 1 + r", "lo, hi = p + 1 - r, p + r",
     ["test_kummer.py"]),
    ("Hasse bound loosened to 5p", "src/cyheights/kummer.py",
     "trace * trace > 4 * p", "trace * trace > 5 * p",
     ["test_kummer.py"]),
    ("Miller-Rabin without base 41", "src/cyheights/finite_field.py",
     "29, 31, 37, 41)", "29, 31, 37)",
     ["test_finite_field.py"]),
    ("Miller-Rabin base prefix one short", "src/cyheights/finite_field.py",
     "(1373653, 2)", "(1373653, 1)",
     ["test_finite_field.py"]),
    ("giant step w*P without the + P", "src/cyheights/kummer.py",
     "step = _ec_add(_ec_add(Q, Q, A, p), P, A, p)",
     "step = _ec_add(Q, Q, A, p)",
     ["test_kummer.py"]),
    ("giant walk start offset with the sign of y flipped",
     "src/cyheights/kummer.py",
     "offset = offset[0], -offset[1] % p", "offset = offset[0], offset[1]",
     ["test_kummer.py"]),
    ("giant walk one step short", "src/cyheights/kummer.py",
     "for n in range(lo + s, hi + s + 1, w):",
     "for n in range(lo + s, hi + s + 1 - w, w):",
     ["test_kummer.py"]),
    ("sextic symbol not conjugated", "src/cyheights/kummer.py",
     "pow(4 * b, (p - 1) // 6 * 5, p)", "pow(4 * b, (p - 1) // 6, p)",
     ["test_kummer.py"]),
    ("pi not made primary", "src/cyheights/kummer.py",
     "while u % 3 != 2 or v % 3:", "while False:",
     ["test_kummer.py"]),
    ("p = 2 mod 3 count is p", "src/cyheights/kummer.py",
     "if p % 3 == 2:\n        return p + 1\n",
     "if p % 3 == 2:\n        return p\n",
     ["test_kummer.py"]),
    ("CM check on E dropped", "src/cyheights/kummer.py",
     "if not _kills(n, points[1], p):", "if False:",
     ["test_kummer.py"]),
    ("CM check on the twist dropped", "src/cyheights/kummer.py",
     "if not _kills(2 * p + 2 - n, points[-1], p):", "if False:",
     ["test_kummer.py"]),
    ("floor Barrett magic", "src/cyheights/finite_field.py",
     "magic = -(-(1 << shift) // n)", "magic = (1 << shift) // n",
     ["test_finite_field.py"]),
    ("Barrett magic floored in the shared helper, ring tests alone",
     "src/cyheights/finite_field.py",
     "magic = -(-(1 << shift) // n)", "magic = (1 << shift) // n",
     ["test_ring.py"]),
    ("digit width one bit short", "src/cyheights/finite_field.py",
     "return (top * magic).bit_length(), shift, magic",
     "return (top * magic).bit_length() - 1, shift, magic",
     ["test_ring.py"]),
    ("Ben-Or's gcd test dropped", "src/cyheights/finite_field.py",
     "if not ring.coprime(packed, ring._reduce(h + (p - 1) * x)):",
     "if False:",
     ["test_ring.py"]),
    ("Teichmuller stabilisation check disabled", "src/cyheights/padic.py",
     "if ring.pow(z, q) != z:", "if False:",
     ["test_padic.py"]),
    ("e(-1) forced to 0", "src/cyheights/character_sums.py",
     "minus_one = self.minus_one_exp = e[field.neg(1)]",
     "minus_one = self.minus_one_exp = 0",
     ["test_characters.py"]),
    ("p-adic precision f*r + 1", "src/cyheights/padic.py",
     "return f * r + 2", "return f * r + 1",
     ["test_padic.py", "test_fermat.py"]),
    ("budget >=", "src/cyheights/errors.py",
     "if count > budget:", "if count >= budget:",
     ["test_fermat.py"]),
    ("build_field table guard disabled", "src/cyheights/finite_field.py",
     "check_budget(q, table_budget,", "(q, table_budget,",
     ["test_finite_field.py"]),
    ("Kummer prime guard disabled", "src/cyheights/kummer.py",
     "check_budget(p, DEFAULT_PRIME_BUDGET,", "(p, DEFAULT_PRIME_BUDGET,",
     ["test_kummer.py"]),
    ("sieve table guard disabled", "src/cyheights/finite_field.py",
     "check_budget(size, DEFAULT_TABLE_BUDGET,",
     "(size, DEFAULT_TABLE_BUDGET,",
     ["test_cli.py"]),
    ("m - 2 in _fully_rigged", "src/cyheights/fermat.py",
     "return m - 1 in subgroup", "return m - 2 in subgroup",
     ["test_fermat.py"]),
    ("row exponent over alpha[1:]", "src/cyheights/fermat.py",
     "sum(map(w.__getitem__, alpha)) // m - f",
     "sum(map(w.__getitem__, alpha[1:])) // m - f",
     ["test_fermat.py"]),
    ("|j|^2 check dropped", "src/cyheights/fermat.py",
     "if modulus_squared(orbit[0]) != q_to_r:", "if False:",
     ["test_fermat.py"]),
    ("orbit membership check dropped", "src/cyheights/fermat.py",
     "if j not in members:", "if False:",
     ["test_fermat.py"]),
    ("orbit recorded as the evaluated sum alone",
     "src/cyheights/character_sums.py",
     "table.orbits.append(list(dict.fromkeys(images)))",
     "table.orbits.append([j])",
     ["test_characters.py", "test_fermat.py"]),
    ("sigma_p check dropped from jacobi_sum_table",
     "src/cyheights/character_sums.py",
     "if j.galois(p % m) != j:", "if False:",
     ["test_characters.py"]),
    ("HNF entry b left unreduced", "src/cyheights/kummer.py",
     "return (a, b % c), (0, c)", "return (a, b), (0, c)",
     ["test_kummer.py"]),
    ("span check on the first entry dropped", "src/cyheights/kummer.py",
     "s, rem = divmod(u, a)\n        if rem:",
     "s, rem = divmod(u, a)\n        if False:",
     ["test_kummer.py"]),
    ("span check on the second entry dropped", "src/cyheights/kummer.py",
     "t, rem = divmod(v - s * b, c)\n        if rem:",
     "t, rem = divmod(v - s * b, c)\n        if False:",
     ["test_kummer.py"]),
    ("span check on the reach dropped", "src/cyheights/kummer.py",
     "if identity != ((1, 0), (0, 1)):", "if False:",
     ["test_kummer.py"]),
    ("prime-field sum with the sign flipped", "src/cyheights/finite_field.py",
     "return (a + sign * b) % p", "return (a - sign * b) % p",
     ["test_finite_field.py", "test_fermat.py"]),
    ("stickelberger outcomes keyed by the exponent alone",
     "src/cyheights/fermat.py",
     "(exp, val), len(outcomes))", "(exp, exp), len(outcomes))",
     ["test_cli.py"]),
    ("one stickelberger fragment reused for every verdict",
     "src/cyheights/cli.py",
     'for verdict in record["verdicts"]]',
     'for verdict in record["verdicts"][:1]] * len(record["verdicts"])',
     ["test_cli.py"]),
    ("stickelberger rows read with the next vector's index",
     "src/cyheights/cli.py",
     'map(fragments.__getitem__, record["keys"])',
     'map(fragments.__getitem__, [*record["keys"][1:], '
     'record["keys"][0]])',
     ["test_cli.py"]),
    ("equal_count counts multisets, not vectors", "src/cyheights/fermat.py",
     "equal_count += weights[key] * (exp == val)",
     "equal_count += exp == val",
     ["test_fermat.py", "test_cli.py"]),
    ("CycInt hash stored from id(self)", "src/cyheights/cyclotomic.py",
     "h = self._hash = hash((self.m, self.coeffs))",
     "h = self._hash = id(self)",
     ["test_cyclotomic.py", "test_fermat.py"]),
    ("powers of zeta_hat one short", "src/cyheights/padic.py",
     "for _ in range(degree(m) - 1):", "for _ in range(degree(m) - 2):",
     ["test_padic.py"]),
    ("orbits filled without sigma_t", "src/cyheights/character_sums.py",
     "[j.galois(coset[0]) for coset in cosets[1:]]",
     "[j for coset in cosets[1:]]",
     ["test_characters.py", "test_fermat.py"]),
    ("shifted coset index in the Jacobi table",
     "src/cyheights/character_sums.py",
     "for s in coset:", "for s in cosets[k - 1]:",
     ["test_characters.py", "test_fermat.py"]),
    ("coset arithmetic without the t factor",
     "src/cyheights/character_sums.py",
     "orbit[coset_of[coset[0] * t % m]]", "orbit[coset_of[coset[0]]]",
     ["test_characters.py", "test_fermat.py"]),
    ("multiset key digit one bit short", "src/cyheights/fermat.py",
     "b = (r + 2).bit_length()", "b = (r + 2).bit_length() - 1",
     ["test_fermat.py"]),
    ("_has_full_order without x^(q-1) = 1", "src/cyheights/finite_field.py",
     " and ring.pow(a, n) == 1", "",
     ["test_finite_field.py"]),
    ("shifted coset index in the point count", "src/cyheights/fermat.py",
     "slot[x] = 1 + k % m", "slot[x] = 1 + (k + 1) % m",
     ["test_fermat.py"]),
    ("oracle imports from a layer it checks", "tests/oracles.py",
     "from cyheights.errors import", "from cyheights.fermat import",
     ["test_oracles.py"]),
    ("lift one round short", "src/cyheights/padic.py",
     "q**(-(-(k - 1) // f))", "q**((k - 1) // f)",
     ["test_padic.py"]),
    ("slope bound without the step of w", "src/cyheights/fermat.py",
     "step = gcd(*(wa - w[0] for wa in w)) or 1", "step = 1",
     ["test_fermat.py"]),
    ("merge scale p**span + 1", "src/cyheights/finite_field.py",
     "p**span, spread(sum(", "p**span + 1, spread(sum(",
     ["test_finite_field.py"]),
    ("images read one cell off", "src/cyheights/finite_field.py",
     "first_image = cell * (n - f)", "first_image = cell * (n - f - 1)",
     ["test_finite_field.py"]),
    ("y - 1 rule reads e one place early", "src/cyheights/character_sums.py",
     "before[p - 2::p] = e[2 * p - 1::p]",
     "before[p - 2::p] = e[2 * p - 2::p]",
     ["test_characters.py"]),
    ("y - 1 rule read as y - 2", "src/cyheights/character_sums.py",
     "before = e[1:-1]", "before = e[:-2]",
     ["test_characters.py"]),
    ("Kronecker digit width one byte short", "src/cyheights/cyclotomic.py",
     "w = bound.bit_length() // 8 + 1", "w = bound.bit_length() // 8",
     ["test_cyclotomic.py"]),
    ("_reduce without the x^m fold", "src/cyheights/cyclotomic.py",
     "buf[e - m] += buf[e]", "pass",
     ["test_cyclotomic.py"]),
    ("padic_valuation without % pk", "src/cyheights/padic.py",
     "image = [sum(map(mul, z.coeffs, column)) % pk",
     "image = [sum(map(mul, z.coeffs, column))",
     ["test_padic.py"]),
    ("sieve from the first multiple of n at or above lo",
     "src/cyheights/finite_field.py",
     "start = max(n * n, -(-lo // n) * n)", "start = -(-lo // n) * n",
     ["test_cli.py"]),
    ("slope symmetry check dropped", "src/cyheights/fermat.py",
     "if any(exponents.get(f * r - e) != n for e, n in exponents.items()):",
     "if False:",
     ["test_fermat.py"]),
    ("Newton-above-Hodge check dropped", "src/cyheights/fermat.py",
     "if y < f * (hodge_y + level * (x - hodge_x)):", "if False:",
     ["test_fermat.py"]),
    ("polygon end-point check dropped", "src/cyheights/fermat.py",
     "if (x, y) != (sum(hodge), f * sum(k * h for k, h in enumerate(hodge))):",
     "if False:",
     ["test_fermat.py"]),
    ("height bound h^(r-1,1) + 1 check dropped", "src/cyheights/fermat.py",
     "if cy_height not in (None, INFINITE) and cy_height > hodge[1] + 1:",
     "if False:",
     ["test_fermat.py"]),
    ("slope digit one byte too narrow", "src/cyheights/fermat.py",
     "bit_length()  # no digit exceeds",
     "bit_length() - 8  # no digit exceeds",
     ["test_fermat.py"]),
    ("slope lane step J(a) forced to 0", "src/cyheights/fermat.py",
     "(a - inverse * w[a] // g) % m // n * span", "0 * span",
     ["test_fermat.py"]),
    ("slope lane fold dropped", "src/cyheights/fermat.py",
     "state = (acc & lanes) + (acc >> top)", "state = acc",
     ["test_fermat.py"]),
    ("slopes read from lane 0, not the lane of s = 0",
     "src/cyheights/fermat.py",
     "(-inverse * total // g) % m // n * span + u", "u",
     ["test_fermat.py"]),
    ("_slope_budget_check disabled", "src/cyheights/fermat.py",
     "if (r + 2) * (m - 1) > budget:", "if False:",
     ["test_fermat.py"]),
    ("first list left uncut", "src/cyheights/finite_field.py",
     "del block[length:]", "pass",
     ["test_finite_field.py", "test_characters.py"]),
    ("kernel multiplier never advanced", "src/cyheights/finite_field.py",
     "state = [acc >> (first_image + cell * i) & ones for i in range(f)]",
     "pass",
     ["test_finite_field.py"]),
    ("walk closing check dropped", "src/cyheights/finite_field.py",
     "if ring.mul(ring.pack(_poly_from_enc(block[-1], p)), g) != 1:",
     "if False:",
     ["test_fermat.py"]),
    ("expansion recurrence off by one", "src/cyheights/fermat.py",
     "(k - i) * d[i]", "(k - i + 1) * d[i]",
     ["test_fermat.py"]),
    ("point count without the factor m", "src/cyheights/fermat.py",
     "conv[i] + m * sum(", "conv[i] + sum(",
     ["test_fermat.py"]),
    ("orbit-multiplicity check dropped", "src/cyheights/fermat.py",
     "if any(multiplicity[beta] != mult for beta in orbit):", "if False:",
     ["test_fermat.py"]),
    ("weights summed again at every orbit member", "src/cyheights/fermat.py",
     "if a not in w:", "if True:",
     ["test_fermat.py"]),
    ("one slope pass per subgroup asked for, repeats included",
     "src/cyheights/fermat.py",
     "if key not in passes:", "if True:",
     ["test_fermat.py"]),
    ("passes keyed by |<p>| instead of <p>", "src/cyheights/fermat.py",
     "keys = [frozenset(subgroup) for", "keys = [len(subgroup) for",
     ["test_cli.py"]),
    ("budget unchecked after the first subgroup", "src/cyheights/fermat.py",
     "for subgroup in subgroups:\n        bound = _transition_bound(",
     "for subgroup in subgroups if not passes else ():\n"
     "        bound = _transition_bound(",
     ["test_cli.py"]),
    ("E's fold multiplies N_i' by N_i in place of D",
     "src/cyheights/fermat.py",
     "_schoolbook_product(derivative, d)",
     "_schoolbook_product(derivative, norm)",
     ["test_fermat.py"]),
    ("norm in Z[T] check dropped", "src/cyheights/fermat.py",
     "if not c.is_rational_integer():", "if False:",
     ["test_fermat.py"]),
    ("CM check keeps the 3-torsion", "src/cyheights/kummer.py",
     "if c and (c + 3 * b) % p:", "if c:",
     ["test_kummer.py"]),
    ("neg with the wrong sign", "src/cyheights/finite_field.py",
     "return self._combine(0, a, -1)", "return self._combine(0, a, 1)",
     ["test_characters.py", "test_finite_field.py"]),
    ("generator scan from p^2", "src/cyheights/finite_field.py",
     "range(p if f > 1 else 1, q)", "range(p * p if f > 1 else 1, q)",
     ["test_finite_field.py"]),
    ("twist mapping removed", "src/cyheights/kummer.py",
     "multiples = {2 * p + 2 - n for n in multiples}", "pass",
     ["test_kummer.py"]),
    ("2-torsion baby exit dropped", "src/cyheights/kummer.py",
     "Q[0] in babies or Q[1] == 0:", "Q[0] in babies:",
     ["test_kummer.py"]),
]


def _pytest(tree: Path, files: list[str]) -> tuple[int, str]:
    """pytest -x on the given test files of the tree: the exit status and
    the first line that names a failed test."""
    # No .pyc in the copy: one keyed on mtime and size could outlive a
    # mutation of equal length made within the same second.
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q",
               "-p", "no:cacheprovider", *files]
    run = subprocess.run(command, cwd=tree / "tests", env=env,
                         capture_output=True, text=True)
    failed = [line for line in run.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    return run.returncode, failed[0] if failed else ""


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "README.md", tree)
        files = sorted({f for *_, tests in MUTANTS for f in tests})
        status, failed = _pytest(tree, files)
        if status:
            print(f"clean copy fails its tests ({failed}); no mutant judged")
            return 1
        for name, path, old, new, tests in MUTANTS:
            target = tree / path
            source = target.read_text()
            found = source.count(old)
            if found != 1:
                print(f"STALE     {name}: old text found {found} times")
                failures.append(name)
                continue
            started = time.monotonic()
            target.write_text(source.replace(old, new))
            try:
                status, failed = _pytest(tree, tests)
            finally:
                target.write_text(source)
            # pytest exits 1 when tests fail, 2-4 when it could not run them
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, "BROKEN")
            print(f"{verdict:9} {name} ({time.monotonic() - started:.1f} s)"
                  f"\n          {failed}", flush=True)
            if status != 1:
                failures.append(name)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
