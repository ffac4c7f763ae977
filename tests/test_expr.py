"""Laurent polynomial arithmetic: exactness, canonical form, calculus."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from poisson_forge.expr import (ContextMismatch, ExprError, InvertibilityError,
                                VarContext, divide_exact, rational)
from poisson_forge.parse import parse_expr

CTX = VarContext.make(["X1", "X2", "X3", "X4", "X5", "X6"],
                      invertible=["X5", "X6"])
QCTX = VarContext.make(["x1", "x2", "x3", "x4", "x5", "x6", "alpha", "beta"],
                       invertible=["x5", "x6"], parameters=["alpha", "beta"])
TCTX = VarContext.make(["T1", "T2", "T3", "T4", "T5", "T6"],
                       invertible=["T1", "T2", "T3", "T4", "T5", "T6"])


def small_polys(ctx, names=None, max_terms=4):
    names = names or ctx.names[:3]
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    exponents = st.integers(min_value=0, max_value=3)

    def build(termlist):
        p = ctx.zero()
        for coeff, exps in termlist:
            p = p + ctx.monomial(dict(zip(names, exps)), coeff)
        return p

    term = st.tuples(coeffs, st.tuples(*[exponents] * len(names)))
    return st.lists(term, max_size=max_terms).map(build)


class TestRational:
    @pytest.mark.parametrize("value, expected", [
        ("3", 3), ("-2/3", Fraction(-2, 3)), ("0.25", Fraction(1, 4)),
        (5, 5), (Fraction(1, 3), Fraction(1, 3)),
    ])
    def test_plain_forms_accepted(self, value, expected):
        assert rational(value) == expected

    @pytest.mark.parametrize("value", ["1e5", "2.5E-3", 1e16])
    def test_exponent_text_rejected(self, value):
        # the integer behind exponent text can be any size
        with pytest.raises(ExprError, match="without an exponent"):
            rational(value)


class TestContext:
    def test_unique_names_required(self):
        with pytest.raises(Exception):
            VarContext.make(["a", "a"])

    def test_parameter_never_invertible(self):
        with pytest.raises(Exception):
            VarContext.make(["a"], invertible=["a"], parameters=["a"])

    def test_mask_violation_at_construction(self):
        with pytest.raises(InvertibilityError):
            CTX.monomial({"X1": -1})


class TestArithmetic:
    def test_additive_inverse(self):
        x1 = CTX.var("X1")
        assert (x1 + (-x1)).is_zero()

    def test_sum_matches_rewrite_right_side(self):
        # (2a + 3 x1 x4) + (x2 x5 - 2 x1 x3 x5) assembles the x3^2 rewrite.
        lhs = (QCTX.monomial({"alpha": 1}, 2) + QCTX.monomial({"x1": 1, "x4": 1}, 3)
               + QCTX.monomial({"x2": 1, "x5": 1})
               + QCTX.monomial({"x1": 1, "x3": 1, "x5": 1}, -2))
        expected = parse_expr("2*alpha + 3*x1*x4 + x2*x5 - 2*x1*x3*x5", QCTX)
        assert lhs == expected

    def test_like_terms_collect(self):
        half = CTX.monomial({"X3": 2}, Fraction(1, 2))
        assert half + half == CTX.monomial({"X3": 2})

    def test_unit_relation(self):
        x5 = CTX.var("X5")
        assert x5 * CTX.var("X5", -1) == CTX.one()

    def test_omega1_monomial(self):
        product = TCTX.var("T1") * TCTX.var("T3") * TCTX.var("T5")
        assert product == TCTX.monomial({"T1": 1, "T3": 1, "T5": 1})

    def test_mask_violation_in_product(self):
        plain = VarContext.make(["X5"])
        with pytest.raises(InvertibilityError):
            plain.var("X5") * plain.monomial({"X5": -1})

    def test_no_zero_coefficients_stored(self):
        p = CTX.var("X1") - CTX.var("X1") + CTX.var("X2")
        assert list(p.terms.values()) == [Fraction(1)]

    @given(small_polys(CTX), small_polys(CTX), small_polys(CTX))
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            CTX.var("X1") + TCTX.var("T1")


class TestCalculus:
    def test_partial_product_of_distinct_variables(self):
        p = CTX.monomial({"X1": 1, "X3": 1, "X5": 1})
        assert p.partial("X3") == CTX.monomial({"X1": 1, "X5": 1})

    def test_partial_laurent_power_rule(self):
        p = CTX.monomial({"X6": -1})
        assert p.partial("X6") == CTX.monomial({"X6": -2}, -1)

    def test_partial_of_constant(self):
        assert CTX.scalar(7).partial("X1").is_zero()

    @given(small_polys(CTX), small_polys(CTX))
    def test_leibniz_rule(self, f, g):
        lhs = (f * g).partial("X2")
        rhs = f.partial("X2") * g + f * g.partial("X2")
        assert lhs == rhs


class TestSubstitute:
    def test_chain_image(self):
        image = parse_expr("x1 - 1/2*x5*x6^-1", QCTX)
        big = VarContext.make(["X1", "x1", "x5", "x6"], invertible=["x5", "x6"])
        x16 = big.var("X1").substitute(
            {"X1": parse_expr("x1 - 1/2*x5*x6^-1", big)})
        assert x16 == parse_expr("x1 - 1/2*x5*x6^-1", big)
        assert image == image.substitute({})

    def test_identity_substitution(self):
        f = parse_expr("X1*X3 + 2*X5^-1", CTX)
        assert f.substitute({}) == f

    def test_monomial_image_at_negative_exponent(self):
        f = CTX.monomial({"X6": -1})
        image = CTX.monomial({"X5": 1, "X6": 1})
        assert f.substitute({"X6": image}) == CTX.monomial({"X5": -1, "X6": -1})

    def test_non_monomial_image_at_negative_exponent_fails(self):
        f = CTX.monomial({"X6": -1})
        with pytest.raises(InvertibilityError):
            f.substitute({"X6": CTX.var("X1") + CTX.var("X2")})

    @given(small_polys(CTX), small_polys(CTX))
    def test_substitute_is_a_homomorphism(self, f, g):
        images = {"X1": parse_expr("X2 + 1", CTX), "X2": parse_expr("3*X3", CTX)}
        assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)


class TestDivision:
    def test_exact_division(self):
        f = parse_expr("X1*X3 + X2*X3", CTX)
        g = parse_expr("X1 + X2", CTX)
        assert divide_exact(f, g) == CTX.var("X3")

    def test_inexact_division(self):
        assert divide_exact(parse_expr("X1 + 1", CTX), CTX.var("X2")) is None

    def test_laurent_division(self):
        f = parse_expr("X5^-2 + X5^-1", CTX)
        g = parse_expr("X5^-1", CTX)
        assert divide_exact(f, g) == parse_expr("X5^-1 + 1", CTX)

    @given(small_polys(CTX), small_polys(CTX))
    def test_division_inverts_multiplication(self, f, g):
        if g.is_zero():
            return
        assert divide_exact(f * g, g) == f
