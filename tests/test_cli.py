import csv
import dataclasses
import hashlib
import json
import shlex
import sys
from pathlib import Path

import pytest

from cyheights import cli, fermat, finite_field, kummer
from cyheights.cli import main
from cyheights.errors import BudgetError, InternalCheckError
from cyheights.finite_field import DEFAULT_TABLE_BUDGET, is_prime


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
                       "--p-max", "100", "--format", "json", "--jobs", "1")
    assert code == 0
    rows = json.loads(out)["rows"]
    finite = sorted(row["p"] for row in rows if row["height"] != "inf")
    assert finite == [11, 31, 41, 61, 71]
    assert all(row["agree"] for row in rows)


def test_survey_artin_exhibits_counterexample(capsys):
    code, out, _ = run(capsys, "survey", "artin", "--m", "8", "--r", "6",
                       "--p-max", "20", "--format", "json", "--jobs", "1")
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


def test_survey_csv_headers(capsys):
    code, out, _ = run(capsys, "survey", "kummer", "--p-max", "20",
                       "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "# schema=cyheights.survey-kummer/v1"
    assert lines[1] == "p,height,predicted_height,agree"


def test_survey_parallel_matches_serial(capsys):
    code1, serial, _ = run(capsys, "survey", "kummer", "--p-max", "60",
                           "--format", "json", "--jobs", "1")
    code2, parallel, _ = run(capsys, "survey", "kummer", "--p-max", "60",
                             "--format", "json", "--jobs", "2")
    assert code1 == code2 == 0
    assert serial == parallel


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


def test_height_alpha_budget_bounds_multisets(capsys):
    # (5, 3): 204 exponent vectors, C(7, 4) = 35 multisets
    args = ["height", "--p", "11", "--m", "5", "--r", "3", "--alpha-budget"]
    code, out, err = run(capsys, *args, "34")
    assert code == 3
    assert out == ""
    assert "budget" in err
    code, _, _ = run(capsys, *args, "35")
    assert code == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("kind,m,r,rows", [("height", "5", "3", 5),
                                           ("artin", "4", "2", 5)])
def test_survey_alpha_budget_bounds_every_row(capsys, jobs, kind, m, r, rows):
    # C(7, 4) = 35 multisets at (5, 3) and C(5, 3) = 10 at (4, 2)
    heads = {"5": 35, "4": 10}[m]
    args = ["survey", kind, "--m", m, "--r", r, "--p-max", "14",
            "--jobs", jobs, "--format", "json", "--alpha-budget"]
    code, out, err = run(capsys, *args, str(heads - 1))
    assert code == 3
    assert out == ""
    assert f"{heads} multisets > {heads - 1}" in err
    code, out, _ = run(capsys, *args, str(heads))
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


def test_a_walk_that_does_not_close_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(finite_field, "_multiplier", lambda *_: lambda x: 2)
    code, out, err = run(capsys, "stickelberger", "--p", "7", "--m", "3",
                         "--r", "1")
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert "generator order" in err


@pytest.mark.parametrize("lo,hi", [(0, 3), (2, 100), (5, 5), (90, 80),
                                   (999000, 1001000),
                                   (10**9, 10**9 + 2000)])
def test_primes_in_matches_trial_division(lo, hi):
    assert cli._primes_in(lo, hi) == [p for p in range(max(lo, 2), hi)
                                      if is_prime(p)]


@pytest.mark.parametrize("lo,hi", [(2, DEFAULT_TABLE_BUDGET),
                                   (10**6, 10**6 + DEFAULT_TABLE_BUDGET),
                                   (10**20, 10**20 + 10)])
def test_primes_in_bounds_its_tables_before_allocating(lo, hi):
    # the window, hi - lo bytes, and the base sieve, isqrt(hi) bytes
    with pytest.raises(BudgetError, match="table-size budget exceeded"):
        cli._primes_in(lo, hi)


@pytest.mark.parametrize("kind", ["height", "kummer"])
def test_survey_window_over_the_table_budget_exits_3(capsys, kind):
    variety = ["--m", "5", "--r", "3"] if kind == "height" else []
    code, out, err = run(capsys, "survey", kind, *variety,
                         "--p-max", "100000000000", "--jobs", "1")
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
        coeffs = list(zeta.poly_coeffs)
        coeffs[1] += 1
        return dataclasses.replace(zeta, poly_coeffs=tuple(coeffs))

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
    assert len(commands) == 8
    for argv in commands:
        if argv[0] == "survey":
            argv += ["--jobs", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out
