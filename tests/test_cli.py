"""Command-line surface: outputs, exit codes, report schema round trips."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_forge import expr, g2
from poisson_forge.cli import main
from poisson_forge.expr import MAX_INPUT_CHARS, MAX_PRODUCTS, ProductBudget
from poisson_forge.parse import parse_expr
from poisson_forge.report import REPORT_SCHEMA, CheckItem, Report
from poisson_forge.suites import SUITE_NAMES, run_suites
from poisson_forge.torus import TorusStructure

# `poisson-forge verify all` as the reference implementation printed it;
# refactors must reproduce it byte for byte.
GOLDEN_VERIFY_ALL = Path(__file__).parent / "data" / "verify_all.txt"
# `poisson-forge verify all --format json` as printed before the JSON was
# built from one check record, every "seconds" set to 0.
GOLDEN_VERIFY_ALL_JSON = Path(__file__).parent / "data" / "verify_all.json"
# `poisson-forge chain` as printed when every FractionElement operation
# cancelled its denominators at once.
GOLDEN_CHAIN = Path(__file__).parent / "data" / "chain.txt"


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


# JSON text of the values a hostile file may hold where the program wants
# another: booleans, decimals with and without an exponent, an integer
# past Python's 4300-digit limit on converting its text, arrays nested
# deeper than the decoder recurses, and strings, some of them names,
# index pairs or expressions.
JSON_STRINGS = st.one_of(
    st.sampled_from(["X1", "X2", "t1", "t2", "1,2", "2,1", "1,1", "2,3", "p/q",
                     "1/0", "2.5E-3"]),
    hostile_expressions(), st.text(max_size=6))
JSON_LEAVES = st.one_of(
    st.sampled_from(["null", "true", "false", "0", "1", "-1", "2", "0.5",
                     "1.0000000000000001", "1e2", "-0.0000001", "9" * 5000,
                     "[" * 5000 + "]" * 5000]),
    st.integers(-3, 3).map(str), JSON_STRINGS.map(json.dumps))


def object_text(fields):
    """The JSON text of an object from its keys and its values' JSON text."""
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


def json_objects(keys, values):
    return st.dictionaries(keys, values, max_size=4).map(object_text)


JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]"),
        json_objects(JSON_STRINGS, inner)),
    max_leaves=8)


def documents(required, optional):
    """A JSON object that holds every field of ``required`` and some of
    ``optional`` (name -> strategy for the JSON text of a well-formed
    value), each well formed or any JSON value, and now and then a key of
    its own."""
    def field(value):
        # well formed three times in four
        return st.integers(0, 3).flatmap(lambda k: value if k else JSON_VALUES)
    return st.fixed_dictionaries(
        {name: field(value) for name, value in required.items()},
        optional={**{name: field(value) for name, value in optional.items()},
                  "x": JSON_VALUES}).map(object_text)


def expression_table(keys, expressions):
    """A JSON object from ``keys`` to expressions, those given or hostile."""
    return json_objects(keys, st.one_of(st.sampled_from(expressions),
                                        hostile_expressions()).map(json.dumps))


ALGEBRA_FILES = documents({
    "variables": st.just('["X1", "X2", "X3"]'),
    "brackets": expression_table(st.sampled_from(["1,2", "1,3", "2,3", "2,1"]),
                                 ["X1*X2", "X3", "-2*X1*X3 + X2^2", "0"]),
}, {
    "invertible": st.sampled_from(['[]', '["X2"]']),
    "parameters": st.sampled_from(['[]', '["X3"]']),
    "weights": st.just("[[1, 0], [0, 1], [1, 1]]"),
    "casimirs": expression_table(st.sampled_from(["Omega1", "Omega2"]),
                                 ["X1*X2*X3", "X2^-1"]),
})
# The built-in algebra file with the sigma and delta blocks it held before
# both were read off its bracket table.
STALE_ALGEBRA = {
    **json.loads(
        (Path(g2.__file__).parent / "data" / "g2_algebra.json").read_text()),
    "sigma": {f"{i + 1},{j + 1}": str(g2.TORUS_MATRIX[i][j])
              for i in range(6) for j in range(i)},
    "delta": {"3,1": "-X2", "4,1": "-2*X3^2", "4,2": "-4*X3^3", "5,1": "-2*X3",
              "5,2": "-6*X3^2", "5,3": "-3*X4", "6,1": "-3*X5",
              "6,2": "9*X4 - 18*X3*X5", "6,3": "-6*X5^2", "6,4": "-4*X5^3"},
}

DECOMPOSE_SPECS = documents({
    "rank": st.sampled_from(["1", "2"]),
    "lambda": st.sampled_from(["[[0]]", "[[0, 1], [-1, 0]]", '[[0, "1/2"], ["-1/2", 0]]']),
    "images": expression_table(st.sampled_from(["t1", "t2"]),
                               ["t1", "t1*t2", "0", "2*t1^-1*t2", "t2^2"]),
}, {})


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
            "variables": ["a", "b"], "brackets": {"1,2": "a*b"}}))
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

    def test_chain_matches_golden_text(self):
        code, text = run_cli("chain")
        assert code == 0
        assert text.encode("utf-8") == GOLDEN_CHAIN.read_bytes()
        code, text = run_cli("chain", "--format", "json")
        assert code == 0
        golden = GOLDEN_CHAIN.read_text(encoding="utf-8")
        assert text == json.dumps({"chain": golden.splitlines()}, indent=2) + "\n"

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
        "x1*x2+" * 166_666 + "x1*x2",
        "x1^\u00b2", "\u0663*x1", "\uff11*x1",
    ], ids=["zero-denominator", "nested-parentheses", "nested-minus", "huge-exponent",
            "exponent-over-digit-limit", "integer-over-digit-limit",
            "denominator-over-digit-limit", "products-over-budget", "one-megabyte",
            "superscript-digit", "arabic-indic-digit", "fullwidth-digit"])
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
            "brackets": {f"1,{j}": "(X1+X2+X3+X4)^27" for j in (2, 3, 4)}}))
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
            "brackets": {f"1,{j}": "(X1+X2+X3+X4)^18" for j in (2, 3)}}))
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

    @pytest.mark.parametrize("entries", [1, 20], ids=["one-entry", "twenty-entries"])
    def test_algebra_file_text_is_bounded(self, entries, tmp_path, capsys):
        # a file of nearly 1 MB, as one entry or as twenty under
        # MAX_INPUT_CHARS each: the file's entries share one budget, so
        # neither form gets to tokenise, or to spend the product budget
        # (about 7 s and 110 MB for the one entry)
        pairs = list(itertools.combinations(range(1, 8), 2))[:entries]
        text = "X1*X2+" * (980_000 // entries // 6) + "X1"
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            "variables": [f"X{i}" for i in range(1, 8)],
            "brackets": {f"{i},{j}": text for i, j in pairs}}))
        assert path.stat().st_size <= g2.MAX_FILE_BYTES
        code, _ = run_cli("bracket", "X1", "X2", "--algebra", str(path))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: input is longer than {MAX_INPUT_CHARS} characters")

    def test_algebra_file_size_is_bounded(self, tmp_path, capsys):
        # no products, but 19900 entries of 200 exponents each would
        # store 3980000 of them (94 MB)
        rank = 200
        path = tmp_path / "rank200.json"
        path.write_text(json.dumps({
            "variables": [f"X{i}" for i in range(1, rank + 1)],
            "brackets": {f"{i},{j}": "X1" for i in range(1, rank + 1)
                         for j in range(i + 1, rank + 1)}}))
        start = time.perf_counter()
        code, _ = run_cli("bracket", "X1", "X2", "--algebra", str(path))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: algebra definition stores more than 1000000 exponent entries")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("argv", [["bracket", "X1", "X2", "--algebra"],
                                      ["decompose", "--file"]],
                             ids=["bracket", "decompose"])
    @pytest.mark.parametrize("source", ["endless", "nested"])
    def test_hostile_file_is_usage_error(self, argv, source, tmp_path, capsys):
        # an endless file is read to MAX_FILE_BYTES + 1 bytes only, and
        # 400 KB of "[" nest deeper than the JSON decoder recurses
        if source == "endless":
            path = Path("/dev/zero")
            if not path.exists():
                pytest.skip("this system has no /dev/zero")
            message = f"error: {path} is larger than {g2.MAX_FILE_BYTES} bytes"
        else:
            path = tmp_path / "nested.json"
            path.write_text("[" * 400_000)
            message = f"error: {path} nests JSON values too deeply"
        code, _ = run_cli(*argv, str(path))
        assert code == 2
        assert capsys.readouterr().err.startswith(message)

    def test_file_limit_is_inclusive(self, tmp_path, capsys):
        spec = json.dumps({"rank": 2, "lambda": [[0, 1], [-1, 0]],
                           "images": {"t1": "t1*t2", "t2": "0"}})
        path = tmp_path / "spec.json"
        path.write_text(spec.ljust(g2.MAX_FILE_BYTES))
        assert run_cli("decompose", "--file", str(path))[0] == 0
        path.write_text(spec.ljust(g2.MAX_FILE_BYTES + 1))
        assert run_cli("decompose", "--file", str(path))[0] == 2
        assert "is larger than" in capsys.readouterr().err

    def test_decompose_images_share_one_budget(self, tmp_path, capsys):
        # each image parses in 74256 products, under the budget on its
        # own; with a budget per image the forty of them ran 38 s in 316 MB
        rank = 40
        power = "(" + "+".join(f"t{i}" for i in range(1, 7)) + ")^12"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "rank": rank, "lambda": [[0] * rank for _ in range(rank)],
            "images": {f"t{i}": power for i in range(1, rank + 1)}}))
        start = time.perf_counter()
        code, _ = run_cli("decompose", "--file", str(path))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: input needs more than 150000 term-pair products")
        assert time.perf_counter() - start < 2

    def test_decompose_cost_follows_the_support_entries(self, tmp_path):
        # 2951 distinct central supports t_a*t_b over a rank-300 torus: with
        # a dense pairing per support, O(rank^2), the command took about
        # 12 s; summing the rows at the support's two nonzero entries, 2 s
        rank = 300
        lam = [[0] * rank for _ in range(rank)]
        lam[0][1], lam[1][0] = 1, -1
        theta = {f"t{i}": [] for i in range(1, rank + 1)}
        for a, b in list(itertools.combinations(range(3, rank + 1), 2))[::15]:
            theta[f"t{(7 * a + b) % rank + 1}"].append(f"t{a}*t{b}")
        images = {name: "+".join(f"{name}*{t}" for t in terms) or "0"
                  for name, terms in theta.items()}
        path = tmp_path / "rank300.json"
        path.write_text(json.dumps({"rank": rank, "lambda": lam, "images": images}))
        start = time.perf_counter()
        code, text = run_cli("decompose", "--file", str(path), "--format", "json")
        assert time.perf_counter() - start < 5
        assert code == 0
        payload = json.loads(text)
        assert payload["gamma"] == "0"
        ctx = TorusStructure.make(lam).context
        assert payload["theta"] == {
            name: str(parse_expr("+".join(terms) or "0", ctx))
            for name, terms in sorted(theta.items())}

    def test_bracket_is_charged_for_the_table_it_walks(self, tmp_path, capsys):
        # 1395 x 100 term pairs are under the budget at the built-in
        # table's size, but each pair walks 4950 entries here; charged by
        # pairs alone this bracket ran for about a minute
        rank = 100
        path = tmp_path / "rank100.json"
        path.write_text(json.dumps({
            "variables": [f"X{i}" for i in range(1, rank + 1)],
            "brackets": {f"{i},{j}": f"X{i}*X{j}" for i in range(1, rank + 1)
                         for j in range(i + 1, rank + 1)}}))
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

    @settings(max_examples=150)
    @given(st.one_of(ALGEBRA_FILES, DECOMPOSE_SPECS, JSON_VALUES))
    def test_any_json_file_exits_cleanly(self, text):
        # every document goes in both as an algebra file and as a spec
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(text, encoding="utf-8")
            for argv in (["bracket", "X1", "X2", "--algebra", str(path)],
                         ["decompose", "--file", str(path)]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code, _ = run_cli(*argv)
                assert code in (0, 2), argv
                if code == 2:
                    assert err.getvalue().startswith("error:"), argv
                    assert "Traceback" not in err.getvalue(), argv

    @pytest.mark.parametrize("argv, spec", [
        (["decompose", "--file"], {"rank": 1, "lambda": [[0]], "images": ["t1"]}),
        (["decompose", "--file"], {"rank": 2, "lambda": 5,
                                   "images": {"t1": "t1", "t2": "0"}}),
        (["bracket", "a", "b", "--algebra"],
         {"variables": ["a", "b"], "brackets": []}),
        (["decompose", "--file"], {"rank": 2, "lambda": [[0, "1/0"], [-1, 0]],
                                   "images": {"t1": "t1", "t2": "0"}}),
        (["decompose", "--file"], {"rank": 2, "lambda": [[0, 1], [-1, 0]],
                                   "images": {"t1": "t1", "t2": "0", "t3": "1"}}),
        (["bracket", "X1", "X2", "--algebra"],
         {"variables": [[1]], "brackets": {}}),
        (["bracket", "X1", "X2", "--algebra"],
         {"variables": [1, 2], "brackets": {}}),
        (["bracket", "X1", "X2", "--algebra"], b"\xff\xfe{}"),
        (["decompose", "--file"], b"\xff\xfe{}"),
        (["decompose", "--file"], {"rank": True, "lambda": [[0]],
                                   "images": {"t1": "t1"}}),
        (["bracket", "X1", "X2", "--algebra"],
         {"variables": ["X1", "X2"], "brackets": {},
          "weights": [[True, False], [0, 1]]}),
        (["decompose", "--file"], {"rank": 2, "lambda": [[0, 0], 5],
                                   "images": {"t1": "t1", "t2": "0"}}),
        (["decompose", "--file"], {"rank": 2, "lambda": [["0", "0"], "00"],
                                   "images": {"t1": "t1", "t2": "0"}}),
        # past Python's 4300-digit limit on converting an integer's text
        (["decompose", "--file"],
         b'{"rank": 2, "lambda": [[0, 1], [-1, 0]],'
         b' "images": {"t1": "t1*t2", "t2": "0"}, "x": ' + b"9" * 5000 + b"}"),
        (["bracket", "X1", "X2", "--algebra"],
         b'{"variables": ["X1", "X2"], "brackets": {}, "x": ' + b"9" * 5000 + b"}"),
    ], ids=["images-list", "lambda-scalar", "brackets-list",
            "lambda-zero-denominator", "image-not-a-generator", "variables-nested",
            "variables-integers", "algebra-not-utf8", "spec-not-utf8",
            "rank-boolean", "weights-boolean", "lambda-integer-row",
            "lambda-string-row", "spec-integer-over-digit-limit",
            "algebra-integer-over-digit-limit"])
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

    @pytest.mark.parametrize("argv, text, message", [
        (["decompose", "--file"],
         '{"rank": 2, "lambda": [[0, false], [0, 0]],'
         ' "images": {"t1": "t1", "t2": "0"}}',
         "expected a rational, got False"),
        (["decompose", "--file"],
         '{"rank": 2, "lambda": [[0, 1.0000000000000001], ["-1", 0]],'
         ' "images": {"t1": "t1", "t2": "0"}}',
         "lambda matrix must be antisymmetric"),
        (["decompose", "--file"],
         '{"rank": 2, "lambda": [[0, 1e2], [-100, 0]],'
         ' "images": {"t1": "t1", "t2": "0"}}',
         "expected a rational without an exponent, got '1E+2'"),
        (["decompose", "--file"],
         '{"rank": 2, "lambda": [[0, 1e16], [-1e16, 0]],'
         ' "images": {"t1": "t1", "t2": "0"}}',
         "expected a rational without an exponent, got '1E+16'"),
        (["decompose", "--file"],
         '{"rank": 2, "lambda": [[0, 1], [-1, 0]],'
         ' "images": {"t1": 1.5, "t2": "0"}}',
         "expected an expression string, got 1.5 (at position 0)"),
        (["decompose", "--file"],
         '{"rank": 2, "lambda": [[0, "\u0663"], ["-3", 0]],'
         ' "images": {"t1": "t1", "t2": "0"}}',
         "expected a rational, got '\u0663'"),
        (["bracket", "X1", "X2", "--algebra"],
         '{"variables": ["X1", "X2"], "brackets": {"\uff11,\uff12": "X1*X2"}}',
         "bad index pair '\uff11,\uff12'; expected 'i,j'"),
    ], ids=["lambda-false", "lambda-past-float-precision",
            "lambda-exponent", "lambda-large-exponent", "image-a-number",
            "lambda-arabic-indic-digit", "bracket-key-fullwidth-digits"])
    def test_json_number_is_read_exactly(self, argv, text, message, tmp_path,
                                         capsys):
        # a JSON decimal reaches expr.rational as written, not as a float,
        # and only the ASCII digits 0-9 make a number, as in the parser
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        code, _ = run_cli(*argv, str(path))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, document, what, field", [
        (["bracket", "X1", "X2", "--algebra"],
         {"variables": ["X1", "X2"], "brackets": {"1,2": "X1*X2"},
          "casimir": {"C": "X1^"}, "weight": 5, "sigma": {"2,1": "7"}},
         "algebra definition", "casimir"),
        (["bracket", "X1", "X2", "--algebra"], STALE_ALGEBRA,
         "algebra definition", "sigma"),
        (["decompose", "--file"],
         {"rank": 2, "lambda": [[0, 1], [-1, 0]],
          "images": {"t1": "t1*t2", "t2": "0"}, "x": 1},
         "decomposition spec", "x"),
    ], ids=["misspelt-fields", "sigma-and-delta-blocks", "spec-extra-key"])
    def test_unknown_field_is_refused(self, argv, document, what, field,
                                      tmp_path, capsys):
        # a misspelt optional field must not go unread
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        code, _ = run_cli(*argv, str(path))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {what} has an unknown field {field!r}; its fields are")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv, results", [
        (["nf", "X3^2"], 1),
        (["bracket", "X2", "X1"], 1),
        (["decompose", "--file", "SPEC"], 3),
    ], ids=["nf", "bracket", "decompose"])
    def test_each_result_is_rendered_once(self, argv, results, fmt, tmp_path,
                                          monkeypatch):
        # both views come from one rendering: printing an 18241-term
        # normal form takes about 0.14 s
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"rank": 2, "lambda": [[0, 1], [-1, 0]],
                                    "images": {"t1": "t1*t2", "t2": "t2"}}))
        rendered, format_poly = [], expr.format_poly

        def counted(p):
            rendered.append(p)
            return format_poly(p)
        monkeypatch.setattr(expr, "format_poly", counted)
        argv = [str(path) if arg == "SPEC" else arg for arg in argv]
        assert run_cli(*argv, "--format", fmt)[0] == 0
        assert len(rendered) == results

    def test_json_decimal_without_exponent_is_accepted(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"rank": 2, "lambda": [[0, 0.5], [-0.5, 0]],'
                        ' "images": {"t1": "t1", "t2": "0"}}')
        assert run_cli("decompose", "--file", str(path)) == (
            0, "gamma = 0\ntheta(t1) = 1\ntheta(t2) = 0\n")

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "many"), ("--alpha", "1/0"), ("--beta", "1/0"),
        ("--alpha", "1e100000000"), ("--alpha", "\u0663"), ("--alpha", "1_000"),
    ], ids=["alpha-many", "alpha-zero-denominator", "beta-zero-denominator",
            "alpha-exponent", "alpha-arabic-indic-digit", "alpha-underscore"])
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
        bad = Report("demo", [CheckItem("broken", False, "x1")])
        out = io.StringIO()
        assert _emit_reports([bad], "text", out) == 1
        assert "residue: x1" in out.getvalue()


class TestReports:
    def test_every_suite_matches_schema(self):
        code, blob = run_cli("verify", "all", "--format", "json")
        payload = json.loads(blob)
        assert code == 0
        assert [suite["suite"] for suite in payload["suites"]] == SUITE_NAMES
        for suite in payload["suites"]:
            jsonschema.validate(suite, REPORT_SCHEMA)

    def test_verify_all_json_matches_golden(self):
        code, blob = run_cli("verify", "all", "--format", "json")
        payload = json.loads(blob)
        for suite in payload["suites"]:
            assert suite["seconds"] >= 0
            suite["seconds"] = 0
        assert code == 0
        assert payload == json.loads(GOLDEN_VERIFY_ALL_JSON.read_text())

    def test_json_status_and_residue_follow_ok(self):
        report = Report("demo", [CheckItem("b", True, "unused"),
                                 CheckItem("a", False, "x1")])
        payload = report.to_dict()
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["ok"] is False
        assert payload["items"] == [
            {"label": "a", "status": "fail", "residue": "x1"},
            {"label": "b", "status": "pass", "residue": None}]

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

    def test_module_entry_point_matches_golden_text(self, tmp_path):
        # a checkout runs the command line as PYTHONPATH=src python -m poisson_forge
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "poisson_forge", "verify", "all"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, timeout=300)
        assert done.returncode == 0
        assert done.stdout == GOLDEN_VERIFY_ALL.read_bytes()

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
