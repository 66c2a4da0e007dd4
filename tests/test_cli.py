"""Command-line contracts: parsing, formats, exit codes, determinism."""

import csv
import io
import json
from fractions import Fraction

import pytest

from distribq.cli import format_rational, main, parse_case, parse_rational, parse_triple
from distribq.identity import BinOp, CaseId, Triple


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_rational_examples():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("7") == 7
    assert parse_rational("0/9") == 0


@pytest.mark.parametrize("text", ["1/0", "1.5", "a", "1 /2", "+3", "3/-2", ""])
def test_parse_rational_rejects_malformed_text(text):
    from distribq.cli import _UsageError

    with pytest.raises(_UsageError):
        parse_rational(text)


def test_parse_triple_and_case():
    assert parse_triple("6,4,-3") == Triple.of(6, 4, -3)
    assert parse_case("12") == CaseId(BinOp.SUB, BinOp.MUL)
    assert parse_case("sub/mul") == CaseId(BinOp.SUB, BinOp.MUL)
    assert parse_case("L2") == CaseId(BinOp.MUL, BinOp.SUB)


def test_check_exit_codes_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--outer", "sub", "--inner", "mul",
        "--triple", "6,4,-3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "HOLDS"
    assert doc["lhs"] == doc["rhs"] == "18/1"
    assert doc["case"] == {"label": "12", "number": 12, "outer": "sub", "inner": "mul"}

    code, _, _ = run_cli(capsys, "check", "--outer", "add", "--inner", "add",
                         "--triple", "1,5,7")
    assert code == 1

    code, out, _ = run_cli(capsys, "check", "--outer", "add", "--inner", "div",
                           "--triple", "1,1,-1", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "UNDEFINED"
    assert doc["undefined_site"] == "inner of rhs"


def test_check_csv_has_fixed_header(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--outer", "sub", "--inner", "mul",
        "--triple", "6,4,-3", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["case", "outer", "inner", "r1", "r2", "r3",
                       "verdict", "lhs", "rhs", "undefined_site"]
    assert rows[1][:7] == ["12", "sub", "mul", "6/1", "4/1", "-3/1", "HOLDS"]


def test_classify_lists_all_sixteen_cases(capsys):
    code, out, _ = run_cli(capsys, "classify", "--triple", "0,2,3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 16
    verdicts = {r["case"]["label"]: r["verdict"] for r in doc["results"]}
    assert verdicts["1"] == "HOLDS"
    assert verdicts["7"] == "UNDEFINED"
    assert verdicts["L1"] == "HOLDS"


def test_member_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "member", "--case", "12", "--triple", "2,5,1")
    assert code == 0 and "true" in out
    code, out, _ = run_cli(capsys, "member", "--case", "12", "--triple", "2,5,2")
    assert code == 1 and "false" in out
    code, _, _ = run_cli(capsys, "member", "--case", "sub/mul", "--triple", "2,5,1")
    assert code == 0


def test_generate_success_and_constraint_error(capsys):
    code, out, _ = run_cli(capsys, "generate", "--case", "12", "--family", "4",
                           "--params", "delta=2")
    assert code == 0
    assert out.strip() == "6/1,4/1,-3/1"

    code, _, err = run_cli(capsys, "generate", "--case", "12", "--family", "4",
                           "--params", "delta=1")
    assert code == 3
    assert "delta" in err

    code, _, err = run_cli(capsys, "generate", "--case", "12", "--family", "4",
                           "--params", "bogus=1")
    assert code == 2


def test_generate_printed_form_variant(capsys):
    code, out, _ = run_cli(capsys, "generate", "--case", "14", "--family", "3",
                           "--params", "e=1,f=3,printed_form=1")
    assert code == 0
    assert out.strip() == "1/1,1/3,1/3"


def test_solve_outputs(capsys):
    code, out, _ = run_cli(capsys, "solve", "--case", "13", "--r1", "3", "--r3", "-1")
    assert code == 0 and out.strip() == "r2 = 1/1"
    code, out, _ = run_cli(capsys, "solve", "--case", "12", "--r1", "2", "--r3", "1")
    assert code == 0 and out.strip() == "ALL"
    code, out, _ = run_cli(capsys, "solve", "--case", "12", "--r1", "4", "--r3", "2")
    assert code == 0 and out.strip() == "NONE"
    code, _, err = run_cli(capsys, "solve", "--case", "11", "--r1", "1", "--r3", "1")
    assert code == 3
    code, _, err = run_cli(capsys, "solve", "--case", "13", "--r1", "1", "--r3", "0")
    assert code == 3


def test_diophantine_output(capsys):
    code, out, _ = run_cli(capsys, "diophantine", "--p", "1", "--q", "1", "--t", "1")
    assert code == 0
    assert out.strip() == "base=(1, 0) step=(1, -1)"
    code, out, _ = run_cli(capsys, "diophantine", "--p", "2", "--q", "4", "--t", "3")
    assert code == 0 and out.strip() == "empty"


def test_construct12_modes(capsys):
    code, out, _ = run_cli(capsys, "construct12", "--n1", "3", "--n2", "2",
                           "--delta", "2")
    assert code == 0 and out.strip() == "6/1,4/1,-3/1"

    code, out, _ = run_cli(capsys, "construct12", "--n1", "3", "--n2", "2",
                           "--delta", "1")
    assert code == 0 and out.strip() == "NONE"

    code, out, _ = run_cli(capsys, "construct12", "--n1", "3", "--n2", "2",
                           "--delta", "1", "--allow-degenerate")
    assert code == 0 and out.strip() == "3/1,2/1,0/1"

    code, out, _ = run_cli(capsys, "construct12", "--n1", "3", "--n2", "2",
                           "--list", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [entry["delta"] for entry in doc["results"]] == [2, 3, 4]

    code, _, _ = run_cli(capsys, "construct12", "--n1", "3", "--n2", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "construct12", "--n1", "4", "--n2", "2",
                         "--delta", "2")
    assert code == 3


def test_family5_cli(capsys):
    code, out, _ = run_cli(capsys, "family5", "--a", "3", "--f", "1", "--k", "0",
                           "--sign", "+")
    assert code == 0 and out.strip() == "3/1,1/1,-1/1"
    code, _, err = run_cli(capsys, "family5", "--a", "2", "--f", "1", "--k", "1",
                           "--sign=+")
    assert code == 3 and "c must be nonzero" in err


def test_search_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "search", "--case", "L1", "--num-bound", "1",
                           "--den-bound", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 27
    assert doc["triples"][0] == ["-1/1", "-1/1", "-1/1"]

    code, out, _ = run_cli(capsys, "search", "--case", "9", "--num-bound", "2",
                           "--den-bound", "1", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r1", "r2", "r3"]
    assert all(row[0] == "0/1" for row in rows[1:])


def test_verify_exit_code_and_gap_listing(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "1", "--num-bound", "3",
                           "--den-bound", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["missing_count"] == 0 and doc["spurious_count"] == 0
    assert doc["exact"] is True

    code, out, _ = run_cli(capsys, "verify", "--case", "12", "--num-bound", "6",
                           "--den-bound", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert ["2/1", "5/1", "1/1"] in doc["coverage_gap"]


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "check", "--outer", "mul", "--inner", "add",
                           "--triple", "1,2,3", "--format", "json",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["verdict"] == "HOLDS"


def test_overlong_triple_component_is_a_usage_error(capsys):
    # int() refuses strings longer than sys.get_int_max_str_digits() (4300).
    code, out, err = run_cli(capsys, "check", "--outer", "add", "--inner", "add",
                             "--triple", "1,2," + "7" * 4301)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "too long" in err


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_unprintable_result_is_a_domain_error(capsys, fmt):
    # The components print, but lhs = rhs = A*A has 6,000 digits, more than
    # str() converts (sys.get_int_max_str_digits() is 4300).
    a = "7" * 3000
    code, out, err = run_cli(capsys, "check", "--outer", "mul", "--inner", "mul",
                             "--triple", f"1,{a},{a}", "--format", fmt)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "digits" in err


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_unprintable_integer_result_is_a_domain_error(capsys, fmt):
    # p and t have 4,300 digits, the most int() parses, but y0 = t - p*x0
    # has 4,301, more than str() converts.
    n = "9" * 4300
    code, out, err = run_cli(capsys, "diophantine", "--p", n, "--q", "1",
                             f"--t=-{n}", "--format", fmt)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "digits" in err


@pytest.mark.parametrize("words, joined", [
    (["solve", "--case", "12", "--r1", "7/3", "--r3", "-5/2"],
     ["solve", "--case", "12", "--r1", "7/3", "--r3=-5/2"]),
    (["solve", "--case", "add/div", "--r1", "-3/4", "--r3", "2/5"],
     ["solve", "--case", "add/div", "--r1=-3/4", "--r3", "2/5"]),
    (["check", "--outer", "add", "--inner", "add", "--triple", "-1,2,3"],
     ["check", "--outer", "add", "--inner", "add", "--triple=-1,2,3"]),
    (["family5", "--a", "4", "--f", "1", "--k", "1", "--sign", "-"],
     ["family5", "--a", "4", "--f", "1", "--k", "1", "--sign=-"]),
])
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_negative_value_may_follow_its_option_as_a_separate_word(capsys, words, joined, fmt):
    spaced = run_cli(capsys, *words, "--format", fmt)
    assert spaced == run_cli(capsys, *joined, "--format", fmt)
    assert spaced[0] in (0, 1) and spaced[2] == ""


def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "no-such-directory" / "out.json"
    code, out, err = run_cli(capsys, "check", "--outer", "mul", "--inner", "add",
                             "--triple", "1,2,3", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write") and str(target) in err
    assert not target.exists()


def test_every_printed_rational_reparses(capsys):
    _, out, _ = run_cli(capsys, "search", "--case", "12", "--num-bound", "3",
                        "--den-bound", "2", "--format", "json")
    doc = json.loads(out)
    for triple in doc["triples"]:
        for text in triple:
            q = parse_rational(text)
            assert format_rational(q) == text


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "check", "--outer", "pow", "--inner", "add",
                   "--triple", "1,2,3")[0] == 2
    assert run_cli(capsys, "check", "--outer", "add", "--inner", "add",
                   "--triple", "1,2")[0] == 2
    assert run_cli(capsys, "member", "--case", "99", "--triple", "1,2,3")[0] == 2
    assert run_cli(capsys, "member", "--case", "pow/add", "--triple", "1,2,3")[0] == 2
    assert run_cli(capsys, "check", "--outer", "add", "--inner", "add",
                   "--triple", "1,2,1/0")[0] == 2
    assert run_cli(capsys, "search", "--case", "1", "--num-bound", "0",
                   "--den-bound", "1")[0] == 2
    assert run_cli(capsys, "search", "--case", "1", "--num-bound", "-1",
                   "--den-bound", "1")[0] == 2
    for case, family, params, names in [
        ("12", "4", "delta=x", "parameter delta:"),
        ("14", "3", "e=1,f=3,printed_form=maybe", "parameter printed_form:"),
        ("13", "5", "a=4,f=1,k=1,sign=0", "parameter sign:"),
        ("12", "4", "delta", "parameter 'delta'"),
    ]:
        code, out, err = run_cli(capsys, "generate", "--case", case, "--family", family,
                                 "--params", params)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and names in err


def test_search_output_is_identical_across_job_counts(capsys):
    runs = []
    for jobs in ("1", "8"):
        _, out, _ = run_cli(capsys, "search", "--case", "12", "--num-bound", "5",
                            "--den-bound", "2", "--jobs", jobs)
        runs.append(out)
    assert runs[0] == runs[1]
