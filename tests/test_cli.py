import concurrent.futures
import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
from math import gcd, isqrt
from pathlib import Path

import pytest

from cyheights import character_sums, cli, fermat, finite_field, kummer
from cyheights.cli import main
from cyheights.cyclotomic import CycInt
from cyheights.errors import BudgetError, InputError, InternalCheckError
from cyheights.finite_field import DEFAULT_TABLE_BUDGET


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_height_text(capsys):
    code, out, err = run(capsys, "height", "--p", "11", "--m", "5", "--r", "3")
    assert code == 0
    assert "height 1" in out
    assert "agree: yes" in out


def test_height_json_is_single_document(capsys):
    code, out, _ = run(capsys, "height", "--p", "2", "--m", "5", "--r", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["height"] == "inf"
    assert payload["agree"] is True
    assert payload["alpha_count"] == 204


def test_height_rejects_composite_prime(capsys):
    code, out, err = run(capsys, "height", "--p", "10", "--m", "5", "--r", "3")
    assert code == 2
    assert out == ""
    assert "prime" in err


def test_zeta_with_checks(capsys):
    code, out, _ = run(capsys, "zeta", "--p", "7", "--m", "3", "--r", "1",
                       "--check", "1,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["poly_coeffs"] == [1, 1, 7]
    assert all(c["match"] for c in payload["checks"])


def test_zeta_rejects_common_factor(capsys):
    code, _, err = run(capsys, "zeta", "--p", "5", "--m", "5", "--r", "3")
    assert code == 2
    assert "gcd" in err


def test_zeta_budget_exhaustion_names_budget(capsys):
    code, _, err = run(capsys, "zeta", "--p", "7", "--m", "3", "--r", "1",
                       "--check", "2", "--point-budget", "100")
    assert code == 3
    assert "budget" in err


def test_stickelberger_text_and_exit(capsys):
    code, out, _ = run(capsys, "stickelberger", "--p", "3", "--m", "4",
                       "--r", "2")
    assert code == 0
    assert "21/21" in out


# sha256 of stdout, recorded before the record moved into the library
_STICKELBERGER_STDOUT = {
    ((3, 4, 2), "text"):
        "b39e174751024caa2283d99ae919c6b9c2bee1d29ef3d34562d0c1b5672faec5",
    ((3, 4, 2), "json"):
        "cab594af00ea378f22c05583ffa482bed8ba99e13bbbb684f9be0f409a3555fb",
    ((3, 4, 2), "csv"):
        "afa949cdc7da090a8c89f89c99993b73f81eca6a090b38cc1e9632687d54c6dd",
    ((13, 3, 1), "text"):
        "f44efe0e0b3e6007296f8aaef7d43ca68c598184744d4473c5af98f336bea947",
    ((13, 3, 1), "json"):
        "5d10fc4e30ab7555c312bedccb302f8c0ed02ea6830577795b92e378bcc0fa4e",
    ((13, 3, 1), "csv"):
        "368850abe74206a35837cf30007b5c8521364c99a9de53d25979a2777430bbaa",
    ((2, 7, 3), "text"):
        "0e653d339839bfab98be9c922598ba76fc1a00f0cd17e087cb5b5e5278a3b6df",
    ((2, 7, 3), "json"):
        "dc79ab3ad5ab328f1b8e2ab23144f0b66a4af431cf88127f4340cf24a7c9da42",
    ((2, 7, 3), "csv"):
        "ebf3d7196bad234c8db60cb02934b05cae1c3fc94e2d526461f31f091de2a05a",
}


@pytest.mark.parametrize("instance,fmt", sorted(_STICKELBERGER_STDOUT))
def test_stickelberger_stdout_bytes_are_pinned(capsys, instance, fmt):
    p, m, r = map(str, instance)
    code, out, _ = run(capsys, "stickelberger", "--p", p, "--m", m,
                       "--r", r, "--format", fmt)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == _STICKELBERGER_STDOUT[instance, fmt])


def test_stickelberger_reports_a_mismatch_in_every_format(capsys,
                                                          monkeypatch):
    # one multiset of (3, 4, 2) given exponent 3 in place of 2: its six
    # orderings are mismatches, the other 15 rows stay equal
    real = fermat._multiset_exponent

    def skewed(m, subgroup):
        exponent = real(m, subgroup)
        return lambda alpha: exponent(alpha) + (alpha == (1, 1, 3, 3))

    monkeypatch.setattr(fermat, "_multiset_exponent", skewed)
    argv = ["stickelberger", "--p", "3", "--m", "4", "--r", "2"]
    skew = [(1, 1, 3, 3), (1, 3, 1, 3), (1, 3, 3, 1),
            (3, 1, 1, 3), (3, 1, 3, 1), (3, 3, 1, 1)]

    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_MISMATCH
    assert out.splitlines() == [
        "(p=3, m=4, r=2): 15/21 Jacobi-sum valuations equal their "
        "Stickelberger exponents"] + [
        f"  MISMATCH alpha={alpha}: exponent 3, valuation 2"
        for alpha in skew]

    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == cli.EXIT_MISMATCH
    payload = json.loads(out)
    assert (payload["total"], payload["equal_count"],
            payload["all_equal"]) == (21, 15, False)
    assert [row for row in payload["rows"] if not row["equal"]] == [
        {"alpha": list(alpha), "exponent": 3, "valuation": 2,
         "equal": False, "error": None} for alpha in skew]

    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == cli.EXIT_MISMATCH
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert len(rows) == 21
    assert [row for row in rows if row["equal"] == "False"] == [
        {"alpha": " ".join(map(str, alpha)), "exponent": "3",
         "valuation": "2", "equal": "False", "error": ""}
        for alpha in skew]


def _corrupt_verdicts(verdicts):
    """Verdicts no valid run prints: a mismatch (valuation above its
    exponent), the same numbers with equal true, and equal the int 1
    with the numbers of a true verdict."""
    first, second, *_, last = verdicts
    first.update(valuation=first["exponent"] + 1, equal=False)
    second.update(exponent=first["exponent"], valuation=first["valuation"],
                  equal=True)
    last.update(exponent=second["exponent"], valuation=second["valuation"],
                equal=1)


def _record_from_verdicts(record):
    """The JSON document of a stickelberger_check record, less its
    command: the header with one row per vector, each vector paired with
    the verdict of its key."""
    header = {k: v for k, v in record.items()
              if k not in ("vectors", "keys", "verdicts")}
    return {**header, "rows": [
        {"alpha": alpha, **record["verdicts"][key]}
        for alpha, key in zip(record["vectors"], record["keys"])]}


# the fields_warm round, the p = 2 class of fields_cold, an r = 3 shape
# with f = 2
_JSON_SHAPES = [
    (2, 73, 1), (2, 63, 1), (7, 57, 1), (5, 31, 1), (3, 11, 2),
    (2, 7, 3), (2, 15, 2), (2, 31, 1), (2, 9, 3), (2, 17, 1),
    (2, 11, 2), (2, 23, 1), (2, 13, 1), (131, 3, 3)]


# the shapes above, and (2, 7, 3) with the verdicts of _corrupt_verdicts,
# which needs three
@pytest.mark.parametrize("shape, edit", [
    *[(shape, None) for shape in _JSON_SHAPES],
    ((2, 7, 3), _corrupt_verdicts)])
def test_stickelberger_json_is_what_json_dumps_writes(capsys, monkeypatch,
                                                      shape, edit):
    real, records = fermat.stickelberger_check, []

    def spy(*args, **kwargs):
        records.append(real(*args, **kwargs))
        if edit:
            edit(records[-1]["verdicts"])
        return records[-1]

    monkeypatch.setattr(fermat, "stickelberger_check", spy)
    p, m, r = map(str, shape)
    _, out, _ = run(capsys, "stickelberger", "--p", p, "--m", m, "--r", r,
                    "--format", "json")
    payload = {"command": "stickelberger",
               **_record_from_verdicts(records[0])}
    assert out == json.dumps(payload, sort_keys=True,
                             check_circular=False) + "\n"


@pytest.mark.parametrize("shape", [*_JSON_SHAPES, (3, 4, 2)])
def test_stickelberger_record_has_one_verdict_per_multiset(shape):
    # at most one verdict per multiset: one per distinct (exponent,
    # valuation) outcome, each used by some vector
    m, r = shape[1:]
    record = fermat.stickelberger_check(*shape)
    vectors, keys, verdicts = (record["vectors"], record["keys"],
                               record["verdicts"])
    outcomes = {(v["exponent"], v["valuation"]) for v in verdicts}
    assert len(outcomes) == len(verdicts)
    assert set(keys) == set(range(len(verdicts)))
    assert len(verdicts) <= len(fermat.exponent_multisets(m, r))
    assert (record["total"] == len(vectors) == len(keys)
            == fermat.alpha_count(m, r))
    assert record["equal_count"] == sum(verdicts[k]["equal"] for k in keys)
    assert record["all_equal"] == (record["equal_count"] == record["total"])


@pytest.mark.parametrize("shape", [*_JSON_SHAPES, (3, 4, 2)])
def test_stickelberger_record_survives_a_json_round_trip(shape):
    record = fermat.stickelberger_check(*shape)
    loaded = json.loads(json.dumps(record))
    assert [loaded["verdicts"][k] for k in loaded["keys"]] == [
        record["verdicts"][k] for k in record["keys"]]


def test_stickelberger_command_calls_stickelberger_check_once(
        capsys, monkeypatch):
    real, calls = fermat.stickelberger_check, []
    monkeypatch.setattr(fermat, "stickelberger_check",
                        lambda *args, **kwargs: calls.append(args)
                        or real(*args, **kwargs))
    for (p, m, r), fmt in sorted(_STICKELBERGER_STDOUT):
        calls.clear()
        code, out, _ = run(capsys, "stickelberger", "--p", str(p),
                           "--m", str(m), "--r", str(r), "--format", fmt)
        assert code == 0
        assert calls == [(p, m, r)]
        assert (hashlib.sha256(out.encode()).hexdigest()
                == _STICKELBERGER_STDOUT[(p, m, r), fmt])


def test_stickelberger_csv_schema(capsys):
    code, out, _ = run(capsys, "stickelberger", "--p", "3", "--m", "4",
                       "--r", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema=cyheights.stickelberger/v1"
    assert lines[1] == "alpha,exponent,valuation,equal,error"
    assert len(lines) == 23


def test_survey_height_matches_congruence(capsys):
    code, out, _ = run(capsys, "survey", "height", "--m", "5", "--r", "3",
                       "--p-max", "100", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    finite = sorted(row["p"] for row in rows if row["height"] != "inf")
    assert finite == [11, 31, 41, 61, 71]
    assert all(row["agree"] for row in rows)


def test_survey_kummer_rows_prove_no_prime_again(capsys, monkeypatch):
    # the window is sieved, a proof for every row
    proofs = []
    real = kummer.is_prime
    monkeypatch.setattr(kummer, "is_prime",
                        lambda n: proofs.append(n) or real(n))
    argv = ["survey", "kummer", "--p-min", "900", "--p-max", "1300",
            "--jobs", "1", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    rows = json.loads(out)["rows"]
    assert (code, len(rows), proofs) == (0, 57, [])
    assert rows == [{k: report[k] for k in ("p", "predicted_height",
                                             "agree")}
                    | {"height": report["quotient_height"]}
                    for report in map(kummer.kummer_report,
                                      finite_field._primes_in(900, 1300))]
    assert len(proofs) == 57
    # direct calls still prove p, and refuse a composite
    for call in (kummer.kummer_report, lambda p: kummer.ec_count_points(
            p, 0, 1)):
        with pytest.raises(InputError, match="prime"):
            call(1001)  # 7 * 11 * 13
    assert run(capsys, "kummer", "--p", "1001")[0] == cli.EXIT_INVALID
    assert proofs[57:] == [1001] * 3


def test_survey_artin_exhibits_counterexample(capsys):
    code, out, _ = run(capsys, "survey", "artin", "--m", "8", "--r", "6",
                       "--p-max", "20", "--format", "json")
    assert code == 0
    rows = {row["p"]: row for row in json.loads(out)["rows"]}
    assert rows[3]["additive_type"] is True
    assert rows[3]["fully_rigged"] is False
    assert rows[17]["additive_type"] is False


def test_survey_kummer_pattern(capsys):
    code, out, _ = run(capsys, "survey", "kummer", "--p-max", "50",
                       "--format", "json", "--jobs", "1")
    assert code == 0
    rows = json.loads(out)["rows"]
    for row in rows:
        assert (row["height"] == "inf") == (row["p"] % 3 == 2)
        assert row["agree"] is True


def test_survey_requires_parameters(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "height", "--p-max", "40"])
    assert exc.value.code == 2
    assert "--m" in capsys.readouterr().err


def test_survey_empty_range(capsys):
    code, _, err = run(capsys, "survey", "kummer", "--p-max", "5")
    assert code == 2
    assert "empty" in err


def test_survey_with_m_0_has_no_prime_to_m(capsys):
    # gcd(p, 0) = p, so no prime is prime to 0
    code, out, _ = run(capsys, "survey", "height", "--m", "0", "--r", "1",
                       "--p-max", "50")
    assert code == 2
    assert out == ""


def test_survey_csv_headers(capsys):
    code, out, _ = run(capsys, "survey", "kummer", "--p-max", "20",
                       "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "# schema=cyheights.survey-kummer/v1"
    assert lines[1] == "p,height,predicted_height,agree"


@pytest.mark.parametrize("argv,lines", [
    (["zeta", "--p", "7", "--m", "3", "--r", "1", "--check", "1,2"],
     ["# schema=cyheights.zeta-checks/v1",
      "p,m,r,s,zeta_count,brute_force_count,match",
      "7,3,1,1,9,9,True", "7,3,1,2,63,63,True"]),
    (["kummer", "--p", "7"],
     ["# schema=cyheights.kummer/v1",
      "p,a,b,points,trace,p_rank,abelian_dim,curve_formal_height,"
      "quotient_height,predicted_height,agree",
      "7,0,1,12,-4,1,3,1,1,1,True"])])
def test_zeta_and_kummer_csv_schemas(capsys, argv, lines):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines() == lines


def test_height_text_without_a_prediction(capsys):
    # m = 4, r = 1: the closed form needs m = r + 2
    code, out, _ = run(capsys, "height", "--p", "5", "--m", "4", "--r", "1")
    assert code == 0
    assert out.splitlines()[-1] == (
        "no closed-form prediction applies (needs m = r + 2, r >= 2)")


@pytest.mark.parametrize("checks,message", [("1,x", "bad s-list '1,x'"),
                                            ("0", "s values must be >= 1")])
def test_zeta_rejects_a_bad_check_list(capsys, checks, message):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--p", "7", "--m", "3", "--r", "1", "--check", checks])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --check: {message}" in captured.err


@pytest.mark.parametrize("kind", [["kummer"]], ids=["kummer"])
def test_survey_parallel_matches_serial(capsys, monkeypatch, kind):
    # 76 rows below 400, in 8 chunks of at most 10
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["survey", *kind, "--p-max", "400", "--format", "json"]
    code1, serial, _ = run(capsys, *argv, "--jobs", "1")
    code2, parallel, err = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert "with 2 worker(s)" in err
    assert serial == parallel


@pytest.mark.parametrize("argv,code", [
    (["height", "--m", "100", "--r", "98"], cli.EXIT_BUDGET),
    (["artin", "--m", "5", "--r", "3"], cli.EXIT_INVALID),
    (["kummer", "--p-min", "999900", "--jobs", "4"], cli.EXIT_BUDGET)],
    ids=["height", "artin", "kummer"])
def test_survey_fails_before_the_pool_starts(capsys, monkeypatch, argv, code):
    # an (m, r) error fails every row, so the report of the least prime
    # raises it, and a kummer prime over budget raises before any row; a
    # sieve or a pool run first would work through every prime of the
    # window
    def never(*_, **__):
        raise AssertionError("window sieved or worker pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
    for module in (finite_field, fermat, cli):
        monkeypatch.setattr(module, "_primes_in", never)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert run(capsys, "survey", *argv,
               "--p-max", "16000000")[:2] == (code, "")


def test_serial_calls_never_load_the_pool():
    # a fresh interpreter, since this one may hold concurrent.futures
    # from other tests; --jobs 2 still starts 2 workers (above)
    script = """
import sys
from cyheights.cli import main
for argv in (["height", "--p", "11", "--m", "5", "--r", "3",
              "--format", "json"],
             ["survey", "kummer", "--p-max", "500", "--jobs", "1"]):
    assert main(argv) == 0
print(sorted(name for name in sys.modules
             if name.partition(".")[0] in ("concurrent", "multiprocessing")))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_importing_the_cli_does_not_load_csv():
    # a fresh interpreter, since this one has written csv in other tests
    script = "import sys, cyheights.cli; print('csv' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_kummer_command(capsys):
    code, out, _ = run(capsys, "kummer", "--p", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 12
    assert payload["quotient_height"] == 1
    assert payload["agree"] is True

    code, out, _ = run(capsys, "kummer", "--p", "5")
    assert code == 0
    assert "inf" in out

    code, _, err = run(capsys, "kummer", "--p", "4")
    assert code == 2



@pytest.mark.parametrize("argv", [
    ["height", "--p", "11", "--m", "5", "--r", "3", "--full"],
    ["zeta", "--p", "7", "--m", "3", "--r", "1", "--check", "1"],
    ["stickelberger", "--p", "3", "--m", "4", "--r", "2"],
    ["kummer", "--p", "7"],
    ["survey", "kummer", "--p-max", "20", "--jobs", "1"],
])
def test_json_is_one_line_with_sorted_keys(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"

def test_reruns_are_byte_identical(capsys):
    args = ["zeta", "--p", "3", "--m", "4", "--r", "2", "--check", "1",
            "--format", "json"]
    code1, first, _ = run(capsys, *args)
    code2, second, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert first == second
    payload = json.loads(first)
    assert payload["degree"] == 21 and len(payload["poly_coeffs"]) == 22
    assert payload["checks"][0]["match"] is True


@pytest.mark.parametrize("argv", [
    ["zeta", "--p", "3", "--m", "4", "--r", "2", "--check", "1"],
    ["stickelberger", "--p", "13", "--m", "3", "--r", "1"],
    ["height", "--p", "11", "--m", "5", "--r", "3"],
    ["survey", "kummer", "--p-max", "20", "--jobs", "1"],
    ["kummer", "--p", "7"]])
def test_cache_dir_is_ignored(capsys, tmp_path, monkeypatch, argv):
    # --cache-dir stays parseable until the benchmark stops passing it;
    # nothing reads or writes it, and CYHEIGHTS_CACHE_DIR is not read either
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, flagged, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert (code, flagged) == (0, plain)
    monkeypatch.setenv("CYHEIGHTS_CACHE_DIR", str(tmp_path))
    code, from_env, _ = run(capsys, *argv)
    assert (code, from_env) == (0, plain)
    assert list(tmp_path.iterdir()) == []


_READS = [
    (["height", "--p", "11", "--m", "5", "--r", "3"], {"--alpha-budget"}),
    (["zeta", "--p", "7", "--m", "3", "--r", "1", "--check", "1"],
     {"--alpha-budget", "--table-budget"}),
    (["stickelberger", "--p", "3", "--m", "4", "--r", "2"],
     {"--alpha-budget", "--table-budget"}),
    (["survey", "kummer", "--p-max", "20"], {"--jobs"}),
    (["kummer", "--p", "7"], set()),
]


@pytest.mark.parametrize("flag,value", [("--jobs", "1"),
                                        ("--alpha-budget", "1000"),
                                        ("--table-budget", "1000")])
@pytest.mark.parametrize("argv,reads", _READS,
                         ids=[argv[0] for argv, _ in _READS])
def test_each_command_parses_only_the_flags_it_reads(capsys, argv, reads,
                                                     flag, value):
    if flag in reads:
        code, out, _ = run(capsys, *argv, flag, value)
        assert code == 0 and out
    else:  # argparse rejects an unknown option with status 2
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in \
            capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--m", "--r"])
def test_survey_kummer_rejects_the_variety_parameters(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "kummer", "--p-max", "20", "--jobs", "1", flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_diagnostics_go_to_stderr_only(capsys):
    code, out, err = run(capsys, "height", "--p", "11", "--m", "5",
                         "--r", "3", "--format", "json")
    json.loads(out)  # stdout parses as one document
    assert "finished" in err


def test_jobs_validation(capsys):
    code, _, err = run(capsys, "survey", "kummer", "--p-max", "30",
                       "--jobs", "0")
    assert code == 2


def test_budget_flags_must_be_positive(capsys):
    code, _, err = run(capsys, "height", "--p", "11", "--m", "5", "--r", "3",
                       "--alpha-budget", "0")
    assert code == 2
    assert "positive" in err


def test_height_full_report(capsys):
    code, out, _ = run(capsys, "height", "--p", "11", "--m", "5", "--r", "3",
                       "--full", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["slopes"] == [["0", 1], ["1", 101], ["2", 101], ["3", 1]]
    assert payload["hodge"] == [1, 101, 101, 1]
    assert payload["fully_rigged"] is None  # r odd: predicate undefined


@pytest.mark.parametrize("p,height", [("3", "inf"), ("11", 1)])
def test_height_beyond_the_vector_count(capsys, p, height):
    # |A| = 348678441 exponent vectors, enumerated as 24310 multisets
    code, out, _ = run(capsys, "height", "--p", p, "--m", "10", "--r", "8",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_count"] == 348678441
    assert payload["height"] == payload["predicted_height"] == height


def test_height_alpha_budget_bounds_transitions(capsys):
    # (11, 5, 3): 204 exponent vectors; the slope and the Hodge-level pass
    # both run over <11> = {1}, with spread 3 and one state per value of
    # sum w: after k steps at most 1, 4, 7, 10 and 13 states, so
    # (1 + 4 + 7 + 10) x 4 + 13 = 101 transitions each
    args = ["height", "--p", "11", "--m", "5", "--r", "3", "--alpha-budget"]
    code, out, err = run(capsys, *args, "201")
    assert code == 3
    assert out == ""
    assert "more than 201 DP transitions" in err
    code, _, _ = run(capsys, *args, "202")
    assert code == 0


@pytest.mark.parametrize("kind,m,r,rows", [("height", "5", "3", 5),
                                           ("artin", "4", "2", 5)])
def test_survey_alpha_budget_bounds_every_row(capsys, kind, m, r, rows):
    # the most transitions are at p = 1 mod m, not at the first prime:
    # 101 + 101 at (5, 3), where p = 2 takes 65 + 101, and 34 + 34 at
    # (4, 2), where p = 3 takes 28 + 34
    transitions = {"5": 202, "4": 68}[m]
    args = ["survey", kind, "--m", m, "--r", r, "--p-max", "14",
            "--format", "json", "--alpha-budget"]
    code, out, err = run(capsys, *args, str(transitions - 1))
    assert code == 3
    assert out == ""
    assert f"more than {transitions - 1} DP transitions" in err
    code, out, _ = run(capsys, *args, str(transitions))
    assert code == 0
    assert len(json.loads(out)["rows"]) == rows


@pytest.mark.parametrize("exc", [InternalCheckError("forced"),
                                 IndexError("forced")])
def test_internal_errors_exit_4(capsys, monkeypatch, exc):
    def broken(args):
        raise exc
    monkeypatch.setattr(cli, "_cmd_zeta", broken)
    code, out, err = run(capsys, "zeta", "--p", "7", "--m", "3", "--r", "1")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == f"internal error: {type(exc).__name__}: forced\n"


def test_a_walk_that_does_not_close_exits_4(capsys, monkeypatch,
                                            walk_breakers):
    # GF(31) with m = 3: a broken kernel, or broken images of the powers
    for break_walk in walk_breakers.values():
        with monkeypatch.context() as patch:
            break_walk(patch)
            code, out, err = run(capsys, "stickelberger", "--p", "31",
                                 "--m", "3", "--r", "1")
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert "generator order" in err


def test_a_sum_frobenius_moves_exits_4(capsys, monkeypatch):
    real = character_sums.jacobi_sum
    monkeypatch.setattr(character_sums, "jacobi_sum",
                        lambda alpha, chi: real(alpha, chi)
                        * CycInt.root_of_unity(chi.m))
    code, out, err = run(capsys, "stickelberger", "--p", "2", "--m", "7",
                         "--r", "1")
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert "sigma_p" in err


@pytest.mark.parametrize("lo,hi", [(0, 3), (2, 100), (5, 5), (90, 80),
                                   (999000, 1001000),
                                   (10**9, 10**9 + 2000)])
def test_primes_in_matches_trial_division(lo, hi):
    assert finite_field._primes_in(lo, hi) == [
        p for p in range(max(lo, 2), hi)
        if all(p % d for d in range(2, isqrt(p) + 1))]


# Each size is rejected before the work named beside it, which the test
# refuses: building <p> of (Z/m)^*, the exact |A|, or the power sums
# behind N_s.
@pytest.mark.parametrize("argv,refused,message", [
    ("height --p 2 --m 1000000007 --r 1", "frobenius_subgroup",
     "more than 1000000 DP transitions"),
    ("zeta --p 3 --m 1000000007 --r 1", "frobenius_subgroup",
     "|A| = more than 1000000"),
    ("stickelberger --p 3 --m 1000000007 --r 1", "frobenius_subgroup",
     "|A| = more than 1000000"),
    ("height --p 3 --m 1000001 --r 999999", "frobenius_subgroup",
     "more than 1000000 DP transitions"),
    ("zeta --p 3 --m 5 --r 2000000", "alpha_count",
     "|A| = more than 1000000"),
    ("zeta --p 3 --m 5 --r 1000000000", "alpha_count",
     "|A| = more than 1000000"),
    ("zeta --p 7 --m 3 --r 1 --check 200000", "eigenvalue_power_sums",
     "more than 100000000 field subtractions"),
])
def test_hostile_sizes_exit_3_before_derived_work(capsys, monkeypatch, argv,
                                                  refused, message):
    def refuse(*_, **__):
        raise AssertionError(f"{refused} ran before the budget check")

    monkeypatch.setattr(fermat, refused, refuse, raising=False)
    if refused == "frobenius_subgroup":
        monkeypatch.setattr(finite_field, refused, refuse)
    code, out, err = run(capsys, *argv.split())
    assert code == 3
    assert out == ""
    assert message in err


@pytest.mark.parametrize("p,m,r,height", [(5, 12, 10, "inf"),
                                          (29, 14, 12, 1),
                                          (3, 14, 12, "inf")])
def test_heights_in_dimension_10_to_12(capsys, deadline, p, m, r, height):
    # the multiset walk took 0.4 s at (5, 12, 10) and exceeded the default
    # budget in its own unit; the transition bound, summed over the two
    # passes, is 7992 + 6282 = 14274 at (5, 12, 10) and 12494 + 12494 =
    # 24988 at (29, 14, 12)
    code, out, _ = run(capsys, "height", "--p", str(p), "--m", str(m),
                       "--r", str(r), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["height"] == payload["predicted_height"] == height


@pytest.mark.parametrize("m,r,p_max,passes", [(5, 3, 100, 3),
                                              (652, 1, 20000, 20)])
def test_survey_runs_one_slope_pass_per_subgroup(capsys, monkeypatch, m, r,
                                                 p_max, passes):
    # a row depends on p only through <p>: below 100 the 4 classes mod 5
    # give <p> = {1}, {1, 4} and (Z/5)^*, below 20000 the 324 classes
    # mod 652 give 20 subgroups, {1} among them; the level pass is the
    # exponent pass of {1}
    calls = []
    real = fermat._exponent_histogram
    monkeypatch.setattr(fermat, "_exponent_histogram",
                        lambda *args: calls.append(args) or real(*args))
    code, out, _ = run(capsys, "survey", "height", "--m", str(m), "--r",
                       str(r), "--p-max", str(p_max), "--format", "json")
    assert code == 0
    primes = [row["p"] for row in json.loads(out)["rows"]]
    subgroups = {frozenset(finite_field.frobenius_subgroup(p, m))
                 for p in primes}
    assert len(calls) == len(subgroups | {frozenset({1})}) == passes


@pytest.mark.parametrize("kind,m,r", [
    ("height", 5, 3), ("height", 8, 6), ("artin", 8, 6), ("height", 12, 10),
    ("artin", 12, 10), ("height", 24, 22), ("artin", 24, 22),
    ("height", 7, 1)])
def test_survey_rows_are_the_library_records_at_every_prime(capsys, kind, m,
                                                            r):
    # (Z/8)^* and (Z/24)^* are not cyclic, so classes whose <p> have one
    # size differ; each class's record is variety_report at its least
    # prime, and each row the record of its own prime
    primes = [p for p in range(2, 150)
              if finite_field.is_prime(p) and gcd(p, m) == 1]
    survey = fermat.variety_survey if kind == "height" else fermat.artin_survey
    least = {}
    for p in primes:
        least.setdefault(p % m, p)
    report = (fermat.variety_report if kind == "height"
              else fermat.artin_comparison)
    assert survey(m, r, 2, 150) == (
        primes, {c: report(p, m, r) for c, p in least.items()})
    code, out, _ = run(capsys, "survey", kind, "--m", str(m), "--r", str(r),
                       "--p-max", "150", "--format", "json")
    assert code == 0
    fields = {"height": ("p", "f", "height", "predicted_height", "agree"),
              "artin": ("p", "additive_type", "fully_rigged")}[kind]
    records = [{"p": p, **report(p, m, r)} for p in primes]
    assert json.loads(out)["rows"] == [
        {k: record[k] for k in fields} for record in records]


@pytest.mark.parametrize("kind", ["height", "artin"])
def test_survey_height_and_artin_take_no_jobs(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        main(["survey", kind, "--m", "8", "--r", "6", "--p-max", "50",
              "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_height_at_a_prime_near_1e18(capsys, deadline):
    # trial division would take 5e8 steps to prove 10^18 + 3 prime
    code, out, _ = run(capsys, "height", "--p", "1000000000000000003",
                       "--m", "5", "--r", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["q"] == (10**18 + 3) ** 4


def test_kummer_at_a_prime_near_1e18_hits_the_point_budget(capsys, deadline):
    code, out, err = run(capsys, "kummer", "--p", "1000000000000000003")
    assert code == 3
    assert out == ""
    assert "point-count budget exceeded" in err


@pytest.mark.parametrize("lo,hi", [(2, DEFAULT_TABLE_BUDGET),
                                   (10**6, 10**6 + DEFAULT_TABLE_BUDGET),
                                   (10**20, 10**20 + 10)])
def test_primes_in_bounds_its_tables_before_allocating(lo, hi):
    # the window, hi - lo bytes, and the base sieve, isqrt(hi) bytes
    with pytest.raises(BudgetError, match="table-size budget exceeded"):
        finite_field._primes_in(lo, hi)


@pytest.mark.parametrize("kind", ["height", "kummer"])
def test_survey_window_over_the_table_budget_exits_3(capsys, kind):
    options = ["--m", "5", "--r", "3"] if kind == "height" else ["--jobs", "1"]
    code, out, err = run(capsys, "survey", kind, *options,
                         "--p-max", "100000000000")
    assert (code, out) == (cli.EXIT_BUDGET, "")
    assert "table-size budget exceeded" in err


def test_survey_kummer_fails_on_the_prime_budget_before_counting(
        capsys, monkeypatch):
    # 1000003 is the first prime above kummer.DEFAULT_PRIME_BUDGET; the
    # eight primes below it in the range are never counted
    calls = []
    real = kummer.ec_count_points

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kummer, "ec_count_points", counting)
    code, out, err = run(capsys, "survey", "kummer", "--p-min", "999900",
                         "--p-max", "1000100", "--jobs", "1")
    assert (code, out, calls) == (cli.EXIT_BUDGET, "", [])
    assert "point-count budget exceeded: p = 1000003 > 1000000" in err


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._worker_count(10**6, 3) == 2
    assert cli._worker_count(10**9, 1) == 1
    assert cli._worker_count(1, 50) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._worker_count(10**6, 3) == 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(8, 10) == 1


def test_zeta_writes_coefficients_beyond_the_digit_limit(capsys):
    # P(T) at (13, 6, 4) has coefficients of about 5800 decimal digits,
    # beyond the interpreter's default int-to-str limit of 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, "zeta", "--p", "13", "--m", "6", "--r", "4",
                       "--check", "1", "--format", "json")
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    payload = json.loads(out, parse_int=str)
    assert int(payload["degree"]) == 2605
    assert max(len(c.lstrip("-")) for c in payload["poly_coeffs"]) > 4300
    check = payload["checks"][0]
    assert int(check["zeta_count"]) == int(check["brute_force_count"]) == 87570
    assert payload["all_match"] is True

    code, out, _ = run(capsys, "zeta", "--p", "13", "--m", "6", "--r", "4",
                       "--format", "text")
    assert code == 0
    assert "P(T) coefficients: [1, -56629, " in out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_height_writes_q_beyond_the_digit_limit(capsys, fmt):
    # q = p^366 with p = 10^12 + 39 has 4393 decimal digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "height", "--p", "1000000000039",
                         "--m", "367", "--r", "1", "--format", fmt)
    assert code == 0, err
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    if fmt == "json":
        assert len(json.loads(out, parse_int=str)["q"]) == 4393
    else:
        assert len(out.splitlines()[2].split(",")[4]) == 4393


def test_zeta_reports_a_corrupted_coefficient_as_mismatch(capsys,
                                                         monkeypatch):
    real = fermat.zeta_fermat

    def off_by_one(*args, **kwargs):
        zeta = real(*args, **kwargs)
        zeta["poly_coeffs"][1] += 1
        return zeta

    monkeypatch.setattr(fermat, "zeta_fermat", off_by_one)
    code, out, _ = run(capsys, "zeta", "--p", "7", "--m", "3", "--r", "1",
                       "--check", "1")
    assert code == cli.EXIT_MISMATCH == 1
    assert "N_1: zeta 10 vs brute force 9  [MISMATCH]" in out


@pytest.mark.parametrize("p,m,r,checks", [(7, 3, 1, (1, 2)),
                                           (3, 4, 2, (1,))])
def test_zeta_report_is_the_zeta_payload(capsys, p, m, r, checks):
    report = fermat.zeta_report(p, m, r, checks)
    code, out, _ = run(capsys, "zeta", "--p", str(p), "--m", str(m),
                       "--r", str(r), "--check", ",".join(map(str, checks)),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("command") == "zeta"
    assert report == payload
    zeta = fermat.zeta_fermat(p, m, r)
    counts = [(fermat.point_count_from_zeta(zeta, s),
               fermat.brute_force_point_count(p, m, r, s)) for s in checks]
    assert report["checks"] == [
        {"s": s, "zeta_count": n_zeta, "brute_force_count": n_brute,
         "match": n_zeta == n_brute}
        for s, (n_zeta, n_brute) in zip(checks, counts)]
    assert report["all_match"] is True


@pytest.mark.parametrize("command", ["zeta", "stickelberger"])
@pytest.mark.parametrize("p,m,r", [("7", "3", "1"), ("5", "4", "2")])
def test_alpha_budget_counts_exponent_vectors(capsys, command, p, m, r):
    # |A| is deg P and the row count: 2 at (7, 3, 1), whose multiset walk
    # visits 3 heads, and 21 at (5, 4, 2), which has 10 heads
    count = fermat.alpha_count(int(m), int(r))
    args = [command, "--p", p, "--m", m, "--r", r, "--alpha-budget"]
    code, out, err = run(capsys, *args, str(count - 1))
    assert code == 3
    assert out == ""
    assert f"|A| = {count}" in err
    code, _, _ = run(capsys, *args, str(count))
    assert code == 0


def test_inexact_valuation_exits_4(capsys, monkeypatch):
    # every valuation at (3, 4, 2) is 2, invisible at precision 1; the
    # working precision is exact by the |j|^2 = q^r check, so this can
    # only be a fault
    monkeypatch.setattr(fermat, "default_precision", lambda f, r: 1)
    code, out, err = run(capsys, "stickelberger", "--p", "3", "--m", "4",
                         "--r", "2")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "ord_P" in err


def _readme_commands():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("cyheights ")]


def test_readme_commands_run(capsys):
    commands = _readme_commands()
    assert len(commands) == 11
    for argv in commands:
        if argv[:2] == ["survey", "kummer"]:
            argv += ["--jobs", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out
