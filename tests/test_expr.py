"""Laurent polynomial arithmetic: exactness, canonical form, calculus."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from poisson_forge.expr import (ContextMismatch, ExprError, InvertibilityError,
                                LaurentPoly, VarContext, divide_exact, rational)
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


def schoolbook_product(f, g):
    """f * g one Fraction product per term pair, zero sums dropped."""
    terms = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            terms[m] = terms.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in terms.items() if c}


@st.composite
def laurent_pairs(draw):
    """(f, g) over CTX: denominators up to 12, X5 and X6 exponents of both
    signs; half the time g is f with the sign of its odd-X1 terms flipped,
    so that f * g = A^2 - B^2 and the cross terms cancel."""
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    monomial = st.tuples(st.integers(0, 2), st.integers(0, 1),
                         st.integers(-3, 3), st.integers(-3, 3))

    def poly():
        terms = draw(st.dictionaries(monomial, coeffs, max_size=4))
        return LaurentPoly(CTX, {(a, b, 0, 0, e5, e6): c
                                 for (a, b, e5, e6), c in terms.items()})

    f = poly()
    if draw(st.booleans()):
        return f, LaurentPoly(CTX, {m: -c if m[0] % 2 else c
                                    for m, c in f.terms.items()})
    return f, poly()


def assert_as_checked(result, expected_terms):
    """``result`` is what the checked constructor makes of its own terms
    (no zero coefficient, every monomial valid), every coefficient is a
    nonzero ``Fraction``, and it equals ``expected_terms`` run through the
    checked constructor."""
    ctx = result.context
    assert LaurentPoly(ctx, result.terms).terms == result.terms
    assert all(type(c) is Fraction and c for c in result.terms.values())
    assert result.terms == LaurentPoly(ctx, expected_terms).terms


@st.composite
def mixed_pairs(draw):
    """(f, g) over QCTX, which has non-invertible (x1..x4), invertible (x5,
    x6) and parameter (alpha, beta) positions, built by the checked
    constructor.  A third of the time g holds the negatives of some terms
    of f, so that f + g cancels them, and a third of the time g is f with
    the sign of its odd-x1 terms flipped, so that f * g = A^2 - B^2 and
    the cross terms cancel."""
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    monomial = st.tuples(*[st.integers(-1 if inv else 0, 1) for inv in QCTX.invertible])

    def poly():
        return LaurentPoly(QCTX, draw(st.dictionaries(monomial, coeffs, max_size=4)))

    f, g = poly(), poly()
    shape = draw(st.sampled_from(["free", "sum cancels", "product cancels"]))
    if shape == "sum cancels" and f.terms:
        flip = draw(st.sets(st.sampled_from(sorted(f.terms))))
        g = LaurentPoly(QCTX, {**g.terms, **{m: -f.terms[m] for m in flip}})
    elif shape == "product cancels":
        g = LaurentPoly(QCTX, {m: -c if m[0] % 2 else c for m, c in f.terms.items()})
    return f, g


def checked_sum(f, g, sign=1):
    terms = dict(f.terms)
    for m, c in g.terms.items():
        terms[m] = terms.get(m, 0) + sign * c
    return terms


def checked_partial(f, name):
    i = f.context.index(name)
    terms = {}
    for m, c in f.terms.items():
        dm = m[:i] + (m[i] - 1,) + m[i + 1:]
        terms[dm] = terms.get(dm, 0) + c * m[i]
    return terms


class TestRational:
    @pytest.mark.parametrize("value, expected", [
        ("3", 3), ("-2/3", Fraction(-2, 3)), ("0.25", Fraction(1, 4)),
        (5, 5), (Fraction(1, 3), Fraction(1, 3)),
        (Decimal("1.0000000000000001"), Fraction(10 ** 16 + 1, 10 ** 16)),
    ])
    def test_plain_forms_accepted(self, value, expected):
        assert rational(value) == expected

    @pytest.mark.parametrize("value", ["1e5", "2.5E-3", 1e16, Decimal("1e2")])
    def test_exponent_text_rejected(self, value):
        # the integer behind exponent text can be any size
        with pytest.raises(ExprError, match="without an exponent"):
            rational(value)

    @pytest.mark.parametrize("value", ["\u0663", "\uff11/2", "1_000", "1/1_0"])
    def test_digits_are_ascii_only(self, value):
        # Fraction alone reads these as 3, 1/2, 1000 and 1/10
        with pytest.raises(ExprError, match="^expected a rational, got"):
            rational(value)

    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_rejected(self, value):
        # JSON true and false load as bool, a subclass of int
        with pytest.raises(ExprError, match=f"^expected a rational, got {value}$"):
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
        assert x5 * CTX.monomial({"X5": -1}) == CTX.one()

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

    @given(laurent_pairs())
    @example((CTX.monomial({"X5": 1}) + CTX.monomial({"X6": -1}, Fraction(5, 12)),
              CTX.monomial({"X5": 1}) - CTX.monomial({"X6": -1}, Fraction(5, 12))))
    @example((CTX.monomial({"X1": 1, "X6": -2}, Fraction(7, 12)), CTX.zero()))
    def test_product_matches_schoolbook(self, pair):
        f, g = pair
        product = f * g
        assert product.terms == schoolbook_product(f, g)
        assert all(type(c) is Fraction for c in product.terms.values())

    @given(laurent_pairs(),
           st.one_of(st.integers(-50, 50),
                     st.fractions(min_value=-6, max_value=6, max_denominator=12),
                     st.sampled_from([0, Fraction(0)])))
    def test_scalar_product_matches_general_product(self, pair, s):
        f, _ = pair
        expected = f * CTX.scalar(s)
        for product in (f * s, s * f):
            assert product == expected
            assert all(type(c) is Fraction for c in product.terms.values())

    @given(laurent_pairs(), st.booleans(),
           st.fractions(min_value=-6, max_value=6, max_denominator=12)
           .filter(bool),
           st.tuples(st.integers(0, 2), st.integers(0, 1),
                     st.integers(-3, 3), st.integers(-3, 3)))
    def test_one_term_product_matches_schoolbook(self, pair, left, c, exps):
        f, _ = pair
        a, b, e5, e6 = exps
        one = LaurentPoly(CTX, {(a, b, 0, 0, e5, e6): c})
        g, h = (one, f) if left else (f, one)
        product = g * h
        assert product.terms == schoolbook_product(g, h)
        assert_as_checked(product, schoolbook_product(g, h))

    @pytest.mark.parametrize("f, g", [
        ("3/2*X1*X5^-2", "-2/3*X5^2*X6^-1"),            # 1 x 1
        ("1/2*X2*X6^-1", "X1 + 3*X5^-1 - 1/4*X2*X6"),    # one term on the left
        ("X1 + 3*X5^-1 - 1/4*X2*X6", "1/2*X2*X6^-1"),    # one term on the right
        ("-5/6", "X1*X5^-1 + 2/3*X6^2"),                 # a scalar monomial
        ("X1*X5^-1 + 2/3*X6^2", "7"),
        ("X3", "0"),
    ])
    def test_one_term_products(self, f, g):
        f, g = parse_expr(f, CTX), parse_expr(g, CTX)
        assert_as_checked(f * g, schoolbook_product(f, g))
        assert (f * g).terms == schoolbook_product(f, g)

    def test_negative_power_of_invertible_monomial(self):
        assert QCTX.var("x5") ** -1 == QCTX.monomial({"x5": -1})
        assert (2 * QCTX.monomial({"x5": 1, "x6": -2})) ** -2 == QCTX.monomial(
            {"x5": -2, "x6": 4}, Fraction(1, 4))

    @pytest.mark.parametrize("text", ["x1", "x5 + 1", "0"])
    def test_negative_power_needs_invertible_monomial(self, text):
        with pytest.raises(InvertibilityError):
            parse_expr(text, QCTX) ** -1

    @given(st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
           st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
    def test_negative_power_inverts_positive_power(self, c, a, b, n):
        m = QCTX.monomial({"x5": a, "x6": b}, c)
        assert m ** -n * m ** n == QCTX.one()

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            CTX.var("X1") + TCTX.var("T1")


class TestResultsAsChecked:
    """The arithmetic builds its results without the constructor's checks;
    each must be what the checked constructor would have made."""

    @given(mixed_pairs(),
           st.one_of(st.integers(-5, 5),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4),
                     st.sampled_from([0, Fraction(0)])),
           st.sampled_from(QCTX.names))
    @example((QCTX.var("x1"), -QCTX.var("x1")), 0, "x5")
    def test_arithmetic(self, pair, s, name):
        f, g = pair
        assert_as_checked(f + g, checked_sum(f, g))
        assert_as_checked(f - g, checked_sum(f, g, -1))
        assert_as_checked(-f, {m: -c for m, c in f.terms.items()})
        assert_as_checked(f * g, schoolbook_product(f, g))
        for product in (f * s, s * f):
            assert_as_checked(product, {m: c * s for m, c in f.terms.items()})
        assert_as_checked(f.partial(name), checked_partial(f, name))

    @given(mixed_pairs())
    def test_exact_division(self, pair):
        f, g = pair
        if g.is_zero():
            return
        quotient = divide_exact(f * g, g)
        assert quotient is not None
        assert_as_checked(quotient, f.terms)

    def test_division_by_an_invertible_monomial(self):
        # the least exponent of x5 in the divisor is positive
        x5 = QCTX.var("x5")
        assert divide_exact(QCTX.one(), x5) == QCTX.monomial({"x5": -1})
        assert divide_exact(QCTX.var("x6") * x5, x5 * x5) == parse_expr(
            "x6*x5^-1", QCTX)
        assert divide_exact(QCTX.var("x1") + x5, x5 ** 2) == parse_expr(
            "x1*x5^-2 + x5^-1", QCTX)
        # x1 is not invertible: no shift, so it still does not divide 1
        assert divide_exact(QCTX.one(), QCTX.var("x1")) is None

    def test_checked_constructor_still_refuses(self):
        plain = VarContext.make(["X5"])
        with pytest.raises(InvertibilityError):
            LaurentPoly(plain, {(-1,): Fraction(1)})
        with pytest.raises(ExprError):
            LaurentPoly(plain, {(1, 0): Fraction(1)})
        p = LaurentPoly(plain, {(1,): 0, (2,): 3})
        assert p.terms == {(2,): 3} and type(p.terms[(2,)]) is Fraction


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


UPPER_TO_LOWER = {f"X{i}": f"x{i}" for i in range(1, 7)}
# CTX in another order, with one more variable
REORDERED = VarContext.make(["y", "X3", "X2", "X1", "X6", "X5", "X4"],
                            invertible=["X5", "X6"])
TRANSPORTS = [(CTX, None), (QCTX, UPPER_TO_LOWER), (REORDERED, None)]


class TestInto:
    def test_identity(self):
        f = parse_expr("X1*X3 + 2*X5^-1", CTX)
        assert f.into(CTX) == f

    def test_rename_round_trip(self):
        f = parse_expr("X1*X3 + 2*X5^-1 - 1/3*X6^-2*X4", CTX)
        moved = f.into(QCTX, UPPER_TO_LOWER)
        assert moved == parse_expr("x1*x3 + 2*x5^-1 - 1/3*x6^-2*x4", QCTX)
        back = moved.into(CTX, {low: up for up, low in UPPER_TO_LOWER.items()})
        assert back == f

    @given(small_polys(CTX), small_polys(CTX), st.sampled_from(TRANSPORTS))
    def test_into_is_a_homomorphism(self, f, g, transport):
        ctx, rename = transport
        assert (f + g).into(ctx, rename) == f.into(ctx, rename) + g.into(ctx, rename)
        assert (f * g).into(ctx, rename) == f.into(ctx, rename) * g.into(ctx, rename)

    def test_negative_exponent_into_non_invertible_target_fails(self):
        plain = VarContext.make(CTX.names)
        assert parse_expr("X5^2", CTX).into(plain) == plain.monomial({"X5": 2})
        with pytest.raises(InvertibilityError):
            CTX.monomial({"X5": -1}).into(plain)

    def test_unknown_target_name_fails(self):
        # only the variables that occur need a place in the target
        small = VarContext.make(["X1"])
        assert parse_expr("X1 + 2", CTX).into(small) == parse_expr("X1 + 2", small)
        with pytest.raises(ExprError):
            parse_expr("X1 + X2", CTX).into(small)
        with pytest.raises(ExprError):
            parse_expr("X1", CTX).into(QCTX, {"X1": "z"})


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
