"""Command-line surface: outputs, exit codes, report schema round trips."""

import contextlib
import io
import itertools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_forge import g2
from poisson_forge.cli import main
from poisson_forge.expr import MAX_PRODUCTS, ProductBudget
from poisson_forge.parse import parse_expr
from poisson_forge.report import REPORT_SCHEMA, Report, ReportItem
from poisson_forge.suites import run_suites

# `poisson-forge verify all` as the reference implementation printed it;
# refactors must reproduce it byte for byte.
GOLDEN_VERIFY_ALL = Path(__file__).parent / "data" / "verify_all.txt"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# Single digits, so every integer is at most 9, and at most one "^", on an
# atom in the expressions built from the grammar.  The token soup has at
# most 7 tokens besides the "^": its costliest string is then about
# (x4*x4)^9, whose normal form has 1.5 MB of text and takes about 2 s.
DIGITS = list("0123456789")
ATOMS = DIGITS + [*(f"x{i}" for i in range(1, 7)), *(f"X{i}" for i in range(1, 7)),
                  "alpha", "y", "x7"]
TOKENS = ATOMS + list("+-*/()") + [" "]
GRAMMAR = st.recursive(
    st.sampled_from(ATOMS).map(lambda atom: [atom]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(
            lambda t: [*t[0], t[1], *t[2]]),
        inner.map(lambda t: ["(", *t, ")"]),
        inner.map(lambda t: ["-", *t]),
        st.tuples(st.sampled_from(DIGITS), st.sampled_from(DIGITS)).map(
            lambda t: [t[0], "/", t[1]])),
    max_leaves=4)


@st.composite
def hostile_expressions(draw):
    """An expression of the grammar with at most one token inserted or
    deleted, or a soup of tokens."""
    if draw(st.booleans()):
        tokens = draw(GRAMMAR)
        atoms = [k for k, token in enumerate(tokens) if token in ATOMS]
        if draw(st.booleans()):
            k = draw(st.sampled_from(atoms)) + 1
            tokens[k:k] = ["^", *draw(st.sampled_from([[], ["-"]])),
                           draw(st.sampled_from(DIGITS))]
        edit = draw(st.sampled_from(["none", "none", "insert", "delete"]))
        k = draw(st.integers(0, len(tokens) - 1))
        if edit == "insert":
            tokens.insert(k, draw(st.sampled_from(TOKENS)))
        elif edit == "delete":
            del tokens[k]
    else:
        tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=7))
        if draw(st.booleans()):
            tokens.insert(draw(st.integers(0, len(tokens))), "^")
    text = ""
    for token in tokens:
        if text[-1:].isdigit() and token[0].isdigit():
            text += " "  # whitespace is insignificant: "9 9" is two integers
        text += token
    return text


class TestCommands:
    def test_verify_casimir_passes(self):
        code, text = run_cli("verify", "casimir")
        assert code == 0
        assert text.count("[ok  ]") == 12
        assert "overall: PASS" in text

    def test_nf_known_value(self):
        code, text = run_cli("nf", "X3^2", "--alpha", "a")
        assert code == 0
        assert text.strip() == "2*alpha + 3*x1*x4 + x2*x5 - 2*x1*x3*x5"

    def test_nf_numeric_parameters(self):
        code, text = run_cli("nf", "X3^2", "--alpha", "5/2", "--beta", "0")
        assert code == 0
        assert text.strip() == "5 + 3*x1*x4 + x2*x5 - 2*x1*x3*x5"

    def test_bracket_known_value(self):
        code, text = run_cli("bracket", "X2", "X1")
        assert code == 0
        assert text.strip() == "-3*X1*X2"

    def test_bracket_with_algebra_file(self, tmp_path):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({
            "variables": ["a", "b"], "brackets": {"1,2": "a*b"},
            "sigma": {"2,1": "-1"}}))
        code, text = run_cli("bracket", "a", "b", "--algebra", str(path))
        assert code == 0 and text.strip() == "a*b"

    def test_eta_output(self):
        code, text = run_cli("eta")
        assert code == 0
        assert text.splitlines() == [
            "eta2: undefined", "eta3: 2", "eta4: 6", "eta5: 2", "eta6: 6"]

    def test_chain_dump(self):
        code, text = run_cli("chain")
        assert code == 0
        lines = dict(line.split(" = ", 1) for line in text.splitlines())
        assert lines["X[1,6]"] == "X1 - 1/2*X5*X6^-1"
        assert lines["X[5,6]"] == "X5"
        assert lines["T6"] == "X6"
        assert "^-1" in lines["T1"]  # fraction form with cleared denominator

    def test_decompose(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "rank": 2, "lambda": [[0, 1], [-1, 0]],
            "images": {"t1": "t1*t2", "t2": "0"}}))
        code, text = run_cli("decompose", "--file", str(path))
        assert code == 0
        assert "gamma = -t2" in text
        assert "theta(t1) = 0" in text

    def test_decompose_json_format(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "rank": 2, "lambda": [[0, 1], [-1, 0]],
            "images": {"t1": "3*t1", "t2": "0"}}))
        code, text = run_cli("decompose", "--file", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(text)
        assert payload["gamma"] == "0"
        assert payload["theta"]["t1"] == "3"


class TestExitCodes:
    def test_parse_error_is_usage_error(self):
        code, _ = run_cli("bracket", "X1 +", "X2")
        assert code == 2

    def test_unknown_identifier(self):
        code, _ = run_cli("bracket", "X9", "X1")
        assert code == 2

    def test_missing_file(self):
        code, _ = run_cli("decompose", "--file", "/nonexistent.json")
        assert code == 2

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"rank": 2}))
        code, _ = run_cli("decompose", "--file", str(path))
        assert code == 2

    def test_unknown_suite(self):
        code, _ = run_cli("verify", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("text", [
        "1/0",
        "(" * 3000 + "x1" + ")" * 3000,
        "(" + "-" * 3000 + "x1)",
        "x1^99999999999999999999",
        "x1^" + "9" * 5000,
        "9" * 5000 + "*x1",
        "1/" + "9" * 5000,
        "(x1+x2+x5+x6)^80",
    ], ids=["zero-denominator", "nested-parentheses", "nested-minus", "huge-exponent",
            "exponent-over-digit-limit", "integer-over-digit-limit",
            "denominator-over-digit-limit", "products-over-budget"])
    def test_hostile_expression_is_usage_error(self, text, capsys):
        code, _ = run_cli("nf", text)
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("left, right", [
        ("(X1+X2+X5+X6)^60", "X3"),
        ("(X1+X2+X5+X6)^12", "(X1+X2+X5+X6)^12"),
    ], ids=["parse-over-budget", "bracket-over-budget"])
    def test_hostile_bracket_is_usage_error(self, left, right, capsys):
        # the second pair parses, but its 455 x 455 term pairs are too many
        code, _ = run_cli("bracket", left, right)
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: input needs more than 150000 term-pair products")

    def test_algebra_file_is_charged_one_budget(self, tmp_path, capsys):
        # each entry parses in 109620 products, under the budget on its
        # own; the file as a whole is over it at the second entry
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({
            "variables": ["X1", "X2", "X3", "X4"],
            "brackets": {f"1,{j}": "(X1+X2+X3+X4)^27" for j in (2, 3, 4)},
            "sigma": {}}))
        code, _ = run_cli("bracket", "X1", "X2", "--algebra", str(path))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: input needs more than 150000 term-pair products")

    def test_bracket_command_is_charged_one_budget(self, tmp_path, capsys):
        # the file, the operands and the bracket each stay under the
        # budget, and so does any two of them; all three are over it
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({
            "variables": ["X1", "X2", "X3", "X4"],
            "brackets": {f"1,{j}": "(X1+X2+X3+X4)^18" for j in (2, 3)},
            "sigma": {}}))
        left = ("(X1+X2+X3+X4)^12 + (X1+X2+X3+X4)^18"
                " - (X1+X2+X3+X4)^18")
        file_part, left_part, bracket_part = (ProductBudget() for _ in range(3))
        alg = g2.load_algebra(path, file_part)
        f = parse_expr(left, alg.context, budget=left_part)
        walks = Fraction(sum(len(v.terms) for v in alg.structure.table.values()),
                         sum(len(v.terms) for v in
                             g2.builtin_algebra().structure.table.values()))
        bracket_part.charge(f, alg.context.var("X3"), walks=walks)
        parts = [file_part.spent, left_part.spent, bracket_part.spent]
        assert max(a + b for a, b in itertools.combinations(parts, 2)) \
            <= MAX_PRODUCTS < sum(parts)
        code, _ = run_cli("bracket", left, "X3", "--algebra", str(path))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: input needs more than 150000 term-pair products")

    def test_algebra_file_size_is_bounded(self, tmp_path, capsys):
        # no products, but 19900 entries of 200 exponents each would
        # store 3980000 of them (94 MB)
        rank = 200
        path = tmp_path / "rank200.json"
        path.write_text(json.dumps({
            "variables": [f"X{i}" for i in range(1, rank + 1)],
            "brackets": {f"{i},{j}": "X1" for i in range(1, rank + 1)
                         for j in range(i + 1, rank + 1)},
            "sigma": {}}))
        start = time.perf_counter()
        code, _ = run_cli("bracket", "X1", "X2", "--algebra", str(path))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: algebra definition stores more than 1000000 exponent entries")
        assert time.perf_counter() - start < 1

    def test_bracket_is_charged_for_the_table_it_walks(self, tmp_path, capsys):
        # 1395 x 100 term pairs are under the budget at the built-in
        # table's size, but each pair walks 4950 entries here; charged by
        # pairs alone this bracket ran for about a minute
        rank = 100
        path = tmp_path / "rank100.json"
        path.write_text(json.dumps({
            "variables": [f"X{i}" for i in range(1, rank + 1)],
            "brackets": {f"{i},{j}": f"X{i}*X{j}" for i in range(1, rank + 1)
                         for j in range(i + 1, rank + 1)},
            "sigma": {}}))
        every = "+".join(f"X{i}" for i in range(1, rank + 1))
        first = "+".join(f"X{i}" for i in range(1, 16))
        start = time.perf_counter()
        code, _ = run_cli("bracket", f"({every})*({first})", every,
                          "--algebra", str(path))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: input needs more than 150000 term-pair products")
        assert time.perf_counter() - start < 3

    def test_runaway_normal_form_is_usage_error(self, capsys):
        # x3^27*x4^27 passes MAX_TERMS terms after about 1.8 s; without the
        # limit it took over 800 MB
        from poisson_forge.quotient import MAX_TERMS
        code, _ = run_cli("nf", "(x3*x4*x3*x4*x3*x4)^9")
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: normal form needs more than {MAX_TERMS} terms")

    @pytest.mark.parametrize("argv", [["nf", "-x1"], ["bracket", "-X1", "X2"]],
                             ids=["nf", "bracket"])
    def test_expression_with_leading_minus(self, argv, capsys):
        # argparse reads -x1 as an option; the error says what to do
        code, _ = run_cli(*argv)
        first = capsys.readouterr().err.splitlines()[0]
        assert code == 2
        assert first.startswith("error:")
        assert "put '--' before an expression that starts with '-'" in first
        assert run_cli(argv[0], "--", *argv[1:]) == (0, "-x1\n" if argv[0] == "nf"
                                                      else "-3*X1*X2\n")

    @settings(max_examples=150)
    @given(hostile_expressions())
    def test_any_expression_exits_cleanly(self, text):
        # "--" ends the options, so text that starts with "-" reaches the
        # expression parser instead of argparse
        for argv in (["nf", "--", text], ["bracket", "--", text, "X1"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, _ = run_cli(*argv)
            assert code in (0, 2), argv
            if code == 2:
                assert err.getvalue().startswith("error:"), argv

    @pytest.mark.parametrize("argv, spec", [
        (["decompose", "--file"], {"rank": 1, "lambda": [[0]], "images": ["t1"]}),
        (["decompose", "--file"], {"rank": 2, "lambda": 5,
                                   "images": {"t1": "t1", "t2": "0"}}),
        (["bracket", "a", "b", "--algebra"],
         {"variables": ["a", "b"], "brackets": [], "sigma": {}}),
        (["bracket", "a", "b", "--algebra"],
         {"variables": ["a", "b"], "brackets": {}, "sigma": {"2,1": "1/0"}}),
        (["decompose", "--file"], {"rank": 2, "lambda": [[0, "1/0"], [-1, 0]],
                                   "images": {"t1": "t1", "t2": "0"}}),
        (["decompose", "--file"], {"rank": 2, "lambda": [[0, 1], [-1, 0]],
                                   "images": {"t1": "t1", "t2": "0", "t3": "1"}}),
        (["bracket", "X1", "X2", "--algebra"],
         {"variables": [[1]], "brackets": {}, "sigma": {}}),
        (["bracket", "X1", "X2", "--algebra"],
         {"variables": [1, 2], "brackets": {}, "sigma": {}}),
        (["bracket", "X1", "X2", "--algebra"], b"\xff\xfe{}"),
        (["decompose", "--file"], b"\xff\xfe{}"),
    ], ids=["images-list", "lambda-scalar", "brackets-list", "sigma-zero-denominator",
            "lambda-zero-denominator", "image-not-a-generator", "variables-nested",
            "variables-integers", "algebra-not-utf8", "spec-not-utf8"])
    def test_malformed_file_is_usage_error(self, argv, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        if isinstance(spec, bytes):
            path.write_bytes(spec)
        else:
            path.write_text(json.dumps(spec))
        code, _ = run_cli(*argv, str(path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "many"), ("--alpha", "1/0"), ("--beta", "1/0"),
        ("--alpha", "1e100000000"),
    ], ids=["alpha-many", "alpha-zero-denominator", "beta-zero-denominator",
            "alpha-exponent"])
    def test_bad_parameter_value(self, flag, value, capsys):
        code, _ = run_cli("nf", "x1", flag, value)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {flag} expects 'symbolic' or a rational")
        assert "Traceback" not in err

    def test_unprintable_coefficient_is_usage_error(self, capsys):
        code, _ = run_cli("nf", "2^15000")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: coefficient too large to print: over"
                              f" {sys.get_int_max_str_digits()} digits")

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        # exit 2 is for bad input only; a fault in the program must surface
        from poisson_forge import cli

        def broken(args, out):
            raise ValueError("internal fault")
        monkeypatch.setattr(cli, "_cmd_eta", broken)
        with pytest.raises(ValueError, match="internal fault"):
            run_cli("eta")

    def test_failing_report_exits_one(self):
        from poisson_forge.cli import _emit_reports
        bad = Report("demo", [ReportItem("broken", "fail", "x1")])
        out = io.StringIO()
        assert _emit_reports([bad], "text", out) == 1
        assert "residue: x1" in out.getvalue()


class TestReports:
    def test_schema_roundtrip(self):
        report = run_suites(["casimir"])[0]
        payload = report.to_dict()
        jsonschema.validate(payload, REPORT_SCHEMA)
        again = Report.from_dict(payload)
        assert [(i.label, i.status) for i in again.items] \
            == [(i.label, i.status) for i in report.items]

    def test_text_and_json_agree(self):
        code_t, text = run_cli("verify", "grading")
        code_j, blob = run_cli("verify", "grading", "--format", "json")
        assert code_t == code_j == 0
        payload = json.loads(blob)
        assert payload["ok"] is True
        passes = sum(1 for item in payload["suites"][0]["items"]
                     if item["status"] == "pass")
        assert passes == text.count("[ok  ]")

    def test_verify_all_matches_golden_text(self):
        code, text = run_cli("verify", "all")
        assert code == 0
        assert text.encode("utf-8") == GOLDEN_VERIFY_ALL.read_bytes()

    def test_deterministic_text_output(self):
        _, first = run_cli("verify", "torus", "--seed", "7")
        _, second = run_cli("verify", "torus", "--seed", "7")
        assert first == second

    def test_other_seed_also_passes(self):
        code, _ = run_cli("verify", "torus", "--seed", "99")
        assert code == 0

    def test_reports_follow_requested_order(self):
        reports = run_suites(["casimir", "grading", "pl2"])
        assert all(r.ok for r in reports)
        assert [r.suite for r in reports] == ["casimir", "grading", "pl2"]

    def test_items_sorted_by_label(self):
        report = run_suites(["casimir"])[0]
        labels = [item.label for item in report.items]
        assert labels == sorted(labels)
