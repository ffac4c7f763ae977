"""Expression grammar: parsing, printing, round trips, error positions."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from poisson_forge import expr
from poisson_forge.expr import (InvertibilityError, LaurentPoly, WorkLimitError,
                                format_poly)
from poisson_forge.parse import MAX_EXPONENT, ParseError, parse_expr
from tests.test_expr import CTX, QCTX, small_polys


@st.composite
def signed_summands(draw):
    """[(sign, p), ...]: summands drawn with repeats from a small pool, so
    that some of them cancel."""
    pool = draw(st.lists(small_polys(CTX, max_terms=2), min_size=1, max_size=3))
    return draw(st.lists(st.tuples(st.sampled_from("+-"), st.sampled_from(pool)),
                         min_size=1, max_size=8))


class TestParse:
    def test_bracket_value(self):
        assert parse_expr("-3*X1*X2", CTX) == CTX.monomial({"X1": 1, "X2": 1}, -3)

    def test_inverse_monomial(self):
        assert parse_expr("X5^-1", CTX) == CTX.monomial({"X5": -1})

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            parse_expr("X7", CTX)
        assert "X7" in str(err.value)
        assert err.value.position == 0

    def test_mask_violation(self):
        with pytest.raises(InvertibilityError):
            parse_expr("X1^-1", CTX)

    def test_rationals(self):
        assert parse_expr("3/2*X4", CTX) == CTX.monomial({"X4": 1}, "3/2")
        assert parse_expr("2^3", CTX) == CTX.scalar(8)
        assert parse_expr("-1/2", CTX) == CTX.scalar("-1/2")

    def test_parentheses_and_powers(self):
        assert parse_expr("(X1 + 1)^2", CTX) == parse_expr("X1^2 + 2*X1 + 1", CTX)
        assert parse_expr("(2*X5)^-1", CTX) == CTX.monomial({"X5": -1}, "1/2")

    def test_negation_binds_after_power(self):
        assert parse_expr("-X1^2", CTX) == -CTX.monomial({"X1": 2})

    def test_whitespace_insignificant(self):
        assert parse_expr(" X1 \t+\n2 ", CTX) == parse_expr("X1+2", CTX)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("X1 + * X2", CTX)
        assert err.value.position == 5

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("X1 X2", CTX)

    def test_division_is_not_an_operator(self):
        with pytest.raises(ParseError):
            parse_expr("X1/2", CTX)

    @pytest.mark.parametrize("text, position", [
        ("X1^\u00b2", 3), ("\u0663*X1", 0), ("\uff11*X1", 0)],
        ids=["superscript-two", "arabic-indic-three", "fullwidth-one"])
    def test_digits_are_ascii_only(self, text, position):
        # str.isdigit takes each of these; int() reads the last two as 3, 1
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_expr(text, CTX)
        assert err.value.position == position

    def test_exponent_bound(self):
        assert parse_expr(f"1^{MAX_EXPONENT}", CTX) == CTX.one()
        for text in (f"X1^{MAX_EXPONENT + 1}", f"X5^-{MAX_EXPONENT + 1}"):
            with pytest.raises(ParseError, match=f"exponent larger than {MAX_EXPONENT}"):
                parse_expr(text, CTX)

    def test_product_budget(self, monkeypatch):
        # (X1+X2)^3 is one, then 2, then 3 terms times 2 terms: 12 products
        monkeypatch.setattr(expr, "MAX_PRODUCTS", 12)
        assert parse_expr("(X1+X2)^3", CTX) == (CTX.var("X1") + CTX.var("X2")) ** 3
        with pytest.raises(WorkLimitError):
            parse_expr("(X1+X2)^3*X1", CTX)

    @given(st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
           st.integers(0, 2), st.integers(-2, 2), st.integers(-2, 2),
           st.integers(-6, 6))
    @example(Fraction(-2, 3), 1, 0, -1, 5)
    def test_one_term_power_is_the_repeated_product(self, c, e1, e5, e6, n):
        # X1 is not invertible, so only a base without it has a negative power
        base = CTX.monomial({"X1": 0 if n < 0 else e1, "X5": e5, "X6": e6}, c)
        factor = base.monomial_inverse() if n < 0 else base
        expected = CTX.one()
        for _ in range(abs(n)):
            expected = expected * factor
        base_text = f"({format_poly(base)})"
        base_budget, budget = expr.ProductBudget(), expr.ProductBudget()
        parse_expr(base_text, CTX, budget=base_budget)
        value = parse_expr(f"{base_text}^{n}", CTX, budget=budget)
        assert value == expected
        assert LaurentPoly(CTX, value.terms).terms == value.terms
        # charged as the |n| one-pair products of the repeated form
        assert budget.spent == base_budget.spent + abs(n)

    @given(signed_summands())
    @example([("+", CTX.var("X1")), ("-", CTX.var("X1")), ("+", CTX.var("X2"))])
    def test_sum_is_the_left_fold(self, summands):
        text = " ".join(f"{sign} ({format_poly(p)})" for sign, p in summands)
        expected = CTX.zero()
        for sign, p in summands:
            expected = expected + p if sign == "+" else expected - p
        # a leading "+" is not in the grammar
        value = parse_expr(text.removeprefix("+ "), CTX)
        assert value == expected
        assert all(type(c) is Fraction and c for c in value.terms.values())
        assert LaurentPoly(CTX, value.terms).terms == value.terms

    def test_sum_makes_no_polynomial_additions(self, monkeypatch):
        # one term dict for the whole sum, not a new polynomial per "+"
        calls = []

        def counted(name):
            original = getattr(LaurentPoly, name)

            def wrapper(self, other):
                calls.append(name)
                return original(self, other)
            return wrapper

        for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
            monkeypatch.setattr(LaurentPoly, name, counted(name))
        text = " + ".join(f"X1^{i}*X5^-1" for i in range(300)) + " - 2*X5^-1"
        value = parse_expr(text, CTX)
        assert calls == []
        expected = {(i, 0, 0, 0, -1, 0): Fraction(1) for i in range(1, 300)}
        assert value.terms == {**expected, (0, 0, 0, 0, -1, 0): Fraction(-1)}

    def test_aliases(self):
        assert parse_expr("X3^2", QCTX, aliases={f"X{i}": f"x{i}" for i in range(1, 7)}) \
            == QCTX.monomial({"x3": 2})


class TestFormat:
    def test_zero(self):
        assert format_poly(CTX.zero()) == "0"

    def test_known_order(self):
        p = parse_expr("x2*x5 - 2*x1*x3*x5 + 2*alpha + 3*x1*x4", QCTX)
        assert str(p) == "2*alpha + 3*x1*x4 + x2*x5 - 2*x1*x3*x5"

    def test_laurent_order(self):
        p = parse_expr("X5^3*X6^-2 + X2 - 3*X3*X5*X6^-1 + 3/2*X4*X6^-1", CTX)
        assert str(p) == "X2 + 3/2*X4*X6^-1 - 3*X3*X5*X6^-1 + X5^3*X6^-2"

    def test_leading_negative(self):
        assert str(parse_expr("-3*X1*X2", CTX)) == "-3*X1*X2"

    def test_unit_coefficients_suppressed(self):
        assert str(parse_expr("1*X1 - 1*X2", CTX)) == "X1 - X2"

    @given(small_polys(CTX))
    def test_parse_format_roundtrip(self, f):
        assert parse_expr(format_poly(f), CTX) == f

    @given(small_polys(QCTX, names=("x3", "x5", "alpha")))
    def test_roundtrip_with_parameters(self, f):
        assert parse_expr(format_poly(f), QCTX) == f
