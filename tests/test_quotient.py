"""Normal forms, quotient brackets, localised identities, bounded searches."""

import functools
import hashlib
import itertools
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_forge import g2, quotient
from poisson_forge.expr import ExprError, LaurentPoly, VarContext
from poisson_forge.parse import parse_expr
from poisson_forge.poisson import (DerivationSpec, ExponentPacking,
                                   PoissonStructure, WeightVector, field_width)
from poisson_forge.quotient import (MAX_TERMS, QuotientRing, bounded_centre,
                                    bounded_inner_search, chain_elements,
                                    check_casimirs, check_quotient_derivation,
                                    hamiltonian_quotient_images,
                                    parse_derivation, quotient_jacobi_items,
                                    spans_same_space,
                                    verify_localized_identities)
from tests.test_poisson import RATIONAL

SYM = QuotientRing()
LOC = QuotientRing(localized=True)
NUM11 = QuotientRing(alpha=1, beta=1)
ALPHA_ONLY = QuotientRing(alpha="symbolic", beta=0)
BETA_ONLY = QuotientRing(alpha=0, beta="symbolic")

THETA = parse_derivation(g2.builtin_scalar_derivation("beta_zero")["images"], SYM)
THETA_TILDE = parse_derivation(g2.builtin_scalar_derivation("alpha_zero")["images"], SYM)


def nf(text, ring=SYM):
    return ring.normal_form(text)


def quotient_polys(names=("x1", "x3", "x4"), max_terms=3):
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    exponents = st.integers(min_value=0, max_value=2)

    def build(termlist):
        p = SYM.context.zero()
        for coeff, exps in termlist:
            p = p + SYM.context.monomial(dict(zip(names, exps)), coeff)
        return p

    term = st.tuples(coeffs, st.tuples(*[exponents] * len(names)))
    return st.lists(term, max_size=max_terms).map(build)


# The x3 rule of the (9/8, 5) ring has the denominator 4 and the x4 rule
# only 9, so integer forms of the rules need one denominator for both.
REFERENCE_RINGS = [SYM, LOC, NUM11, QuotientRing(alpha="-2/3", beta=5),
                   QuotientRing(alpha="1/2", beta="-1/3"),
                   QuotientRing(alpha="9/8", beta=5)]
REFERENCE_IDS = ["sym", "loc", "1,1", "-2/3,5", "1/2,-1/3", "9/8,5"]


def reference_normal_form(ring, p, rng):
    """Rewrite one reducible term at a time, on Fractions, until none is
    left.  The term is picked by rng among those of highest x3 + x4
    degree (which keeps repeated rewrites of one monomial few), and so is
    the rule when both apply; by confluence any choice gives the same
    normal form."""
    i3, i4 = ring.context.index("x3"), ring.context.index("x4")
    terms = dict(p.terms)
    pending: dict[int, list] = {}

    def push(m):
        if m[i3] >= 2 or m[i4] >= 2:
            pending.setdefault(m[i3] + m[i4], []).append(m)

    for m in terms:
        push(m)
    while pending:
        top = pending[max(pending)]
        k = rng.randrange(len(top))
        top[k], top[-1] = top[-1], top[k]
        m = top.pop()
        if not top:
            del pending[m[i3] + m[i4]]
        if m not in terms:
            continue
        c = terms.pop(m)
        pos = i3 if m[i3] >= 2 and (m[i4] < 2 or rng.random() < 0.5) else i4
        rule = ring.rewrite_x3 if pos == i3 else ring.rewrite_x4
        stripped = m[:pos] + (m[pos] - 2,) + m[pos + 1:]
        for rm, rc in rule.terms.items():
            mm = tuple(map(operator.add, stripped, rm))
            s = terms.get(mm, 0) + c * rc
            if not s:
                terms.pop(mm, None)
                continue
            if mm not in terms:
                push(mm)
            terms[mm] = s
    return terms


@st.composite
def reduction_inputs(draw, ring):
    low = -2 if ring.localized else 0
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    core = st.integers(min_value=0, max_value=6)
    outer = st.integers(min_value=0, max_value=1)
    laurent = st.integers(min_value=low, max_value=1)
    term = st.tuples(coeffs, st.tuples(outer, outer, core, core, laurent, laurent))
    p = ring.context.zero()
    for c, exps in draw(st.lists(term, min_size=1, max_size=4)):
        p = p + ring.context.monomial(
            dict(zip(("x1", "x2", "x3", "x4", "x5", "x6"), exps)), c)
    return p


class TestNormalForm:
    def test_rewrite_rules_match_the_stated_identities(self):
        assert SYM.rewrite_x3 == parse_expr(g2.REWRITE_IDENTITIES["x3^2"][1],
                                            SYM.context)
        assert SYM.rewrite_x4 == parse_expr(g2.REWRITE_IDENTITIES["x4^2"][1],
                                            SYM.context)

    def test_casimirs_reduce_to_parameters(self):
        assert nf(SYM.casimir1) == SYM.context.var("alpha")
        assert nf(SYM.casimir2) == SYM.context.var("beta")

    def test_already_normal(self):
        assert nf("x1") == SYM.context.var("x1")

    def test_x3sq_x4_matches_identity_rhs(self):
        lhs, rhs = g2.REWRITE_IDENTITIES["x3^2*x4"]
        assert nf(lhs) == nf(rhs)

    def test_all_four_identities(self):
        for label, ok, residue in check_casimirs(SYM):
            assert ok, f"{label}: {residue}"

    def test_mutated_identity_leaves_residue(self):
        # 2*alpha -> 3*alpha in the x3^2 identity leaves exactly -alpha.
        residue = nf("x3^2 - (3*alpha + 3*x1*x4 + x2*x5 - 2*x1*x3*x5)")
        assert residue == -SYM.context.var("alpha")

    def test_negative_core_exponent_rejected(self):
        # x1..x4 are never invertible, so the offending element cannot even
        # be built; the mask guards the normal-form precondition.
        with pytest.raises(ExprError, match="negative exponent"):
            LOC.normal_form(LOC.context.monomial({"x1": -1}))

    def test_term_limit_lets_large_powers_through(self):
        # the largest input the command line takes: 69421 terms at the
        # peak of the rewrite, under MAX_TERMS
        ring = QuotientRing(alpha=1, beta=1, localized=True)
        assert len(ring.normal_form("x3^40").terms) == 52965 < MAX_TERMS

    def test_uppercase_aliases_accepted(self):
        assert nf("X3^2") == SYM.rewrite_x3

    @given(quotient_polys(), quotient_polys())
    def test_multiplicative(self, p, q):
        direct = SYM.normal_form(p * q)
        staged = SYM.normal_form(SYM.normal_form(p) * SYM.normal_form(q))
        assert direct == staged

    @given(quotient_polys())
    def test_idempotent(self, p):
        once = SYM.normal_form(p)
        assert SYM.normal_form(once) == once

    @given(quotient_polys())
    def test_linear_over_parameters(self, p):
        c = SYM.context.monomial({"alpha": 1, "beta": 2}, 3)
        assert SYM.normal_form(c * p) == c * SYM.normal_form(p)

    def test_specialised_rings(self):
        assert ALPHA_ONLY.normal_form(ALPHA_ONLY.casimir2).is_zero()
        assert NUM11.normal_form(NUM11.casimir1) == NUM11.context.one()

    # each example costs up to 0.6 s in the Fraction reference
    @pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=REFERENCE_IDS)
    @settings(max_examples=6)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
    def test_matches_reference_reducer(self, ring, data, seed):
        p = data.draw(reduction_inputs(ring))
        reduced = ring.normal_form(p)
        assert reduced.terms == reference_normal_form(ring, p, random.Random(seed))
        assert all(type(c) is Fraction for c in reduced.terms.values())

    @pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=REFERENCE_IDS)
    def test_rewrites_lower_the_weight(self, ring):
        # every rule term lowers 2a + 3b, (a, b) the x3, x4 exponents:
        # the order in which the normal form rewrites its monomials
        i3, i4 = ring.context.index("x3"), ring.context.index("x4")
        for rule, (d3, d4) in ((ring.rewrite_x3, (2, 0)),
                               (ring.rewrite_x4, (0, 2))):
            for m in rule.terms:
                assert 2 * (m[i3] - d3) + 3 * (m[i4] - d4) <= -1

    @pytest.mark.parametrize("ring", REFERENCE_RINGS[:4], ids=REFERENCE_IDS[:4])
    def test_critical_overlap_joins(self, ring):
        # local confluence: x3^2*x4^2 is the one overlap of the two rules,
        # and its two one-step rewrites have one normal form.  The leading
        # monomials x3^2 and x4^2 are coprime, so the overlap joins for any
        # pair of rules the reducer itself applies (Buchberger's first
        # criterion); what it certifies is that normal_form rewrites with
        # exactly the stated rules, and an x4 rule with one coefficient
        # bumped is rejected.
        ctx = ring.context
        x3sq, x4sq = ctx.monomial({"x3": 2}), ctx.monomial({"x4": 2})
        joined = ring.normal_form(ring.rewrite_x3 * x4sq)
        assert joined == ring.normal_form(x3sq * ring.rewrite_x4)
        for m, c in ring.rewrite_x4.terms.items():
            bumped = LaurentPoly(ctx, {**ring.rewrite_x4.terms, m: c + 1})
            assert joined != ring.normal_form(x3sq * bumped), m

    @pytest.mark.parametrize("ring", REFERENCE_RINGS[2:4], ids=REFERENCE_IDS[2:4])
    def test_ideal_membership_against_groebner_basis(self, ring):
        # outside oracle: sympy's grevlex Groebner basis of
        # (Omega1 - alpha, Omega2 - beta) certifies p - nf(p) in the ideal
        to_sympy, basis = groebner_oracle(ring)
        i3, i4 = ring.context.index("x3"), ring.context.index("x4")
        for text in ("x3^8", "x4^6", "x1*(x3 + 1/2*x4)^5"):
            p = parse_expr(text, ring.context)
            reduced = ring.normal_form(p)
            assert all(m[i3] <= 1 and m[i4] <= 1 for m in reduced.terms)
            assert to_sympy(p - reduced).rem(basis) == 0, text

    @pytest.mark.parametrize("ring", REFERENCE_RINGS[2:4], ids=REFERENCE_IDS[2:4])
    @given(data=st.data())
    def test_normal_forms_outside_the_ideal(self, ring, data):
        # uniqueness, the converse of the test above: a nonzero combination
        # of quotient basis monomials is its own normal form and has a
        # nonzero remainder modulo the Groebner basis, so it is not in the
        # ideal and no two normal forms are congruent
        monomials = list(ring.basis_monomials(4))
        coeffs = st.fractions(min_value=-5, max_value=5,
                              max_denominator=7).filter(bool)
        chosen = data.draw(st.dictionaries(st.sampled_from(range(len(monomials))),
                                           coeffs, min_size=1, max_size=5))
        p = LaurentPoly(ring.context, {monomials[k]: c for k, c in chosen.items()})
        to_sympy, basis = groebner_oracle(ring)
        assert ring.normal_form(p) == p
        assert to_sympy(p).rem(basis) != 0


def reduction_reach(ring, p):
    """The reach ``_reduce`` packs p's reducible terms for: their largest
    |exponent| plus their highest weight 2a + 3b times the rules' largest
    shift component."""
    i3, i4 = ring.context.index("x3"), ring.context.index("x4")
    reducible = [m for m in p.terms if m[i3] >= 2 or m[i4] >= 2]
    top = max(2 * m[i3] + 3 * m[i4] for m in reducible)
    return max(abs(e) for m in reducible for e in m) + top * ring._growth


# (ring, input, field width the reduction packs it with); the growth is 3
# on both rings, so with x4^2 (weight 6) the highest weight, x5^-109 gives
# the reach 109 + 6*3 = 127, the most that 8-bit fields hold, and x5^-110
# gives 128
WIDTH_CASES = [
    (LOC, "x5^-40*x6^-33*x3^6", 8),
    (LOC, "x1^300*x4^5", 16),
    (SYM, "alpha^50*x3^7", 8),
    (LOC, "x5^-109*x4^2 + 1/3*x1^90*x3^2 + x6^-7", 8),
    (LOC, "x5^-110*x4^2 + 1/3*x1^90*x3^2 + x6^-7", 16),
    (LOC, LOC.context.monomial({"x1": 2 ** 70, "x5": -5, "x3": 3}, "2/7")
     + LOC.context.monomial({"x4": 3}), 128),
]


class TestPackingWidth:
    @pytest.mark.parametrize("ring, p, width", WIDTH_CASES,
                             ids=[str(p) if isinstance(p, str) else "x1^(2^70)"
                                  for _, p, _ in WIDTH_CASES])
    def test_matches_reference_across_width_changes(self, ring, p, width):
        if isinstance(p, str):
            p = parse_expr(p, ring.context)
        assert field_width(reduction_reach(ring, p)) == width
        reduced = ring.normal_form(p)
        assert reduced.terms == reference_normal_form(ring, p, random.Random(7))
        assert all(type(c) is Fraction for c in reduced.terms.values())

    @pytest.mark.parametrize("reach, width", [
        (0, 8), (127, 8), (128, 16), (2 ** 15 - 1, 16), (2 ** 15, 32),
        (2 ** 63 - 1, 64), (2 ** 63, 128)])
    def test_keys_round_trip_at_the_field_edges(self, reach, width):
        # every exponent in [-reach, reach] fits, the field's two ends too
        packing = ExponentPacking(LOC.context, reach)
        assert packing.width == width
        bias = packing.bias
        for m in [(bias - 1, 0, 1, reach, -bias, -reach, 0, 2),
                  (0, reach, 0, 0, bias - 1, -1, reach, 0)]:
            key = packing.key(5, m)
            assert packing.exponents(key) == m
            assert [packing.exponent(key, v) for v in range(len(m))] == list(m)
        assert packing.key(0, (bias,) + (0,) * 7) is None


NORMAL_FORMS = Path(__file__).parent / "data" / "normal_forms.txt"
PINNED_RINGS = {"sym": SYM, "loc": LOC, "1,1": NUM11}


def pinned_normal_forms():
    lines = NORMAL_FORMS.read_text().splitlines()
    return [line.split("\t") for line in lines if not line.startswith("#")]


@pytest.mark.parametrize("key, text, digest", pinned_normal_forms(),
                         ids=[f"{key}:{text}" for key, text, _ in pinned_normal_forms()])
def test_large_normal_forms_are_pinned(key, text, digest):
    # sha256 of the printed normal form, recorded before normal forms ran
    # on packed keys and products on integer numerators
    out = str(PINNED_RINGS[key].normal_form(text))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@functools.cache
def groebner_oracle(ring):
    """(to_sympy, basis): sympy's grevlex Groebner basis of
    (Omega1 - alpha, Omega2 - beta) for a numeric ring, built once per ring."""
    from sympy import QQ
    from sympy.polys.groebnertools import groebner
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring as polynomial_ring

    R, *_ = polynomial_ring("x1:7", QQ, grevlex)

    def to_sympy(poly: LaurentPoly):
        return R.from_dict({m[:6]: QQ(c.numerator, c.denominator)
                            for m, c in poly.terms.items()})

    return to_sympy, groebner([to_sympy(ring.casimir1 - ring.alpha),
                               to_sympy(ring.casimir2 - ring.beta)], R)


SPECIALISED = [QuotientRing(alpha=1, beta=0), QuotientRing(alpha=0, beta=1),
               QuotientRing(alpha="-2/3", beta=5)]



class TestSpecialise:
    @given(quotient_polys(names=("x1", "x5", "alpha", "beta"), max_terms=4))
    def test_matches_substitution(self, p):
        # outside reference: sympy substitutes the values into the same terms
        import sympy
        symbols = sympy.symbols(SYM.context.names)
        alpha, beta = symbols[-2:]
        expr = sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(s ** e for s, e in zip(symbols, m))))
                   for m, c in p.terms.items())
        for ring in SPECIALISED:
            values = {alpha: sympy.Rational(str(ring.alpha)),
                      beta: sympy.Rational(str(ring.beta))}
            expected = sympy.Poly(sympy.sympify(expr).subs(values), *symbols)
            assert ring._specialise(p).terms == {
                m: Fraction(int(c.p), int(c.q)) for m, c in expected.as_dict().items()}

    def test_symbolic_parameters_left_alone(self):
        p = parse_expr("alpha*x1 + beta^2", SYM.context)
        assert SYM._specialise(p) is p
        assert NUM11._specialise(SYM.context.var("x1")) == SYM.context.var("x1")

    def test_one_parameter_specialised(self):
        p = parse_expr("alpha^2*beta + 3*beta + alpha", SYM.context)
        # ALPHA_ONLY fixes beta = 0, BETA_ONLY fixes alpha = 0
        assert ALPHA_ONLY._specialise(p) == parse_expr("alpha", SYM.context)
        assert BETA_ONLY._specialise(p) == parse_expr("3*beta", SYM.context)


class TestQuotientBracket:
    def test_table_value(self):
        ctx = SYM.context
        assert SYM.bracket(ctx.var("x6"), ctx.var("x2")) == parse_expr(
            "3*x2*x6 + 9*x4 - 18*x3*x5", ctx)

    def test_antisymmetry_after_reduction(self):
        p = nf("x3^2 + x1*x4")
        assert SYM.bracket(p, p).is_zero()

    def test_reduced_casimir_is_central(self):
        for name in ("x1", "x4", "x6"):
            assert SYM.bracket(SYM.alpha_poly, SYM.context.var(name)).is_zero()

    def test_jacobi_mod_ideal(self):
        items = quotient_jacobi_items(SYM)
        assert len(items) == 20
        for label, ok, residue in items:
            assert ok, f"{label}: {residue}"

    def test_element_wrapper(self):
        x3 = SYM.element("x3")
        assert (x3 * x3).poly == SYM.rewrite_x3
        assert (x3 - x3).is_zero()
        assert x3.bracket(SYM.element("x4")).poly == nf("3*x3*x4")

    @given(quotient_polys(max_terms=2), quotient_polys(max_terms=2))
    def test_leibniz_mod_ideal(self, f, g):
        h = SYM.element("x4*x6 + x3")
        ef, eg = SYM.element(f), SYM.element(g)
        lhs = ef.bracket(eg * h)
        rhs = ef.bracket(eg) * h + eg * ef.bracket(h)
        assert (lhs - rhs).is_zero()


class TestLocalizedTower:
    def test_chain_elements_reduce_to_expected_forms(self):
        e = chain_elements(LOC)
        assert str(e["t3"]) == "x3 - 3/2*x4*x5^-1"
        assert e["t5"].num == LOC.context.var("x5")
        assert e["t1"].a == 1 and e["t1"].b == 1

    def test_all_identities(self):
        items = verify_localized_identities(LOC)
        assert len(items) == 13
        for label, ok, residue in items:
            assert ok, f"{label}: {residue}"

    def test_casimir_relations_in_tower(self):
        labels = {label for label, ok, _ in verify_localized_identities(LOC)}
        assert "t1*t3*t5 = alpha" in labels
        assert "t2*t4*t6 = beta" in labels

    def test_denominators_parsed_once_per_ring(self, monkeypatch):
        # t3 and t4 are parsed once per ring, not again on every addition.
        from poisson_forge import quotient
        calls = []
        def counting(*args, **kwargs):
            calls.append(args[0])
            return parse_expr(*args, **kwargs)
        monkeypatch.setattr(quotient, "parse_expr", counting)
        items = verify_localized_identities(QuotientRing(localized=True))
        assert all(ok for _, ok, _ in items)
        assert len(calls) <= 7


# The defining texts of quotient.chain_elements, restated for the oracle.
TOWER_TEXTS = {"x16": "x1 - 1/2*x5*x6^-1",
               "x26": "x2 + 3/2*x4*x6^-1 - 3*x3*x5*x6^-1 + x5^3*x6^-2",
               "x36": "x3 - x5^2*x6^-1",
               "t3": "x3 - 3/2*x4*x5^-1",
               "t4": "x4 - 2/3*x5^3*x6^-1"}


def tower_oracle(alpha, beta, texts=TOWER_TEXTS):
    """(t, reduce): the chain elements t1..t4 as sympy rational functions
    built from ``texts`` alone, and the remainder of the numerator of a
    rational function modulo sympy's grevlex Groebner basis of
    (Omega1 - alpha, Omega2 - beta), the Casimirs read from the
    definition file.  The localised quotient is a domain, so a fraction
    is zero there exactly when its numerator, cleared of every x5, x6,
    t3 and t4 power, reduces to 0."""
    import json
    from importlib import resources

    import sympy
    x = sympy.symbols("x1:7")
    names = {f"x{i}": s for i, s in enumerate(x, 1)}
    names.update({f"X{i}": s for i, s in enumerate(x, 1)})

    def sym(text):
        return sympy.sympify(text.replace("^", "**"), locals=names)

    data = json.loads(resources.files("poisson_forge.data")
                      .joinpath("g2_algebra.json").read_text(encoding="utf-8"))
    omega = {name: sym(text) for name, text in data["casimirs"].items()}
    basis = sympy.groebner([omega["Omega1"] - alpha, omega["Omega2"] - beta],
                           *x, order="grevlex")
    e = {name: sym(text) for name, text in texts.items()}
    q = sympy.Rational
    x5 = names["x5"]
    t3, t4 = e["t3"], e["t4"]
    z1 = e["x16"] - e["x36"] / x5 + q(3, 4) * t4 / x5 ** 2
    z2 = (e["x26"] - 3 * e["x36"] ** 2 / x5 + q(9, 2) * e["x36"] * t4 / x5 ** 2
          - q(9, 4) * t4 ** 2 / x5 ** 3)
    t2 = z2 - q(2, 3) * t3 ** 3 / t4
    t1 = z1 - t3 ** 2 / (3 * t4) - t2 / (2 * t3)

    def reduce(expr):
        numerator, _ = sympy.fraction(sympy.together(expr))
        return basis.reduce(sympy.expand(numerator))[1]
    return {"t1": t1, "t2": t2, "t3": t3, "t4": t4, "x5": x5,
            "x6": names["x6"], "sym": sym}, reduce


TOWER_RINGS = [QuotientRing(alpha=1, beta=1, localized=True),
               QuotientRing(alpha="-2/3", beta=5, localized=True)]


class TestLocalizedTowerOracle:
    @pytest.mark.parametrize("ring", TOWER_RINGS, ids=["1,1", "-2/3,5"])
    def test_casimir_relations_against_groebner_basis(self, ring):
        t, reduce = tower_oracle(ring.alpha, ring.beta)
        assert reduce(t["t1"] * t["t3"] * t["x5"] - ring.alpha) == 0
        assert reduce(t["t2"] * t["t4"] * t["x6"] - ring.beta) == 0
        # the oracle's t1..t4 are the package's chain elements
        elements = chain_elements(ring)
        for name in ("t1", "t2", "t3", "t4"):
            f = elements[name]
            value = t["sym"](str(f.num)) / (t["t3"] ** f.a * t["t4"] ** f.b)
            assert reduce(value - t[name]) == 0, name

    def test_bumped_t3_breaks_the_relations(self):
        # negative control: a t3 with one coefficient changed
        bumped = dict(TOWER_TEXTS, t3="x3 - 1/2*x4*x5^-1")
        t, reduce = tower_oracle(1, 1, bumped)
        assert reduce(t["t1"] * t["t3"] * t["x5"] - 1) != 0
        assert reduce(t["t2"] * t["t4"] * t["x6"] - 1) != 0


class TestQuotientDerivations:
    def test_scalar_derivation_on_beta_zero_quotient(self):
        images = parse_derivation(
            g2.builtin_scalar_derivation("beta_zero")["images"], ALPHA_ONLY)
        for label, ok, residue in check_quotient_derivation(images, ALPHA_ONLY):
            assert ok, f"{label}: {residue}"

    def test_scalar_derivation_on_alpha_zero_quotient(self):
        images = parse_derivation(
            g2.builtin_scalar_derivation("alpha_zero")["images"], BETA_ONLY)
        for label, ok, residue in check_quotient_derivation(images, BETA_ONLY):
            assert ok, f"{label}: {residue}"

    def test_beta_zero_derivation_fails_with_symbolic_beta(self):
        images = parse_derivation(
            g2.builtin_scalar_derivation("beta_zero")["images"], SYM)
        items = check_quotient_derivation(images, SYM)
        failures = {label: residue for label, ok, residue in items if not ok}
        assert failures == {"D preserves the Omega2 relation": "2*beta"}

    def test_weight_bookkeeping(self):
        # The Omega1 relation is homogeneous of weight 0 for the first
        # scalar derivation and -2 for the second; Omega2 swaps the roles.
        ctx = SYM.context
        theta_w = WeightVector(ctx, {0: (-1, 0), 1: (-1, 0), 2: (0, 0),
                                     3: (1, 0), 4: (1, 0), 5: (2, 0)})
        tilde_w = WeightVector(ctx, {0: (-2, 0), 1: (-3, 0), 2: (-1, 0),
                                     3: (0, 0), 4: (1, 0), 5: (3, 0)})
        assert theta_w.weight_of(SYM.casimir1) == (0, 0)
        assert theta_w.weight_of(SYM.casimir2) == (2, 0)
        assert tilde_w.weight_of(SYM.casimir1) == (-2, 0)
        assert tilde_w.weight_of(SYM.casimir2) == (0, 0)

    def test_hamiltonian_images_pass(self):
        images = hamiltonian_quotient_images("x3", NUM11)
        for label, ok, residue in check_quotient_derivation(images, NUM11):
            assert ok, f"{label}: {residue}"

    @pytest.mark.parametrize("change", [{"X6": None}, {"x7": "x1"}],
                             ids=["missing-generator", "not-a-generator"])
    def test_parse_derivation_needs_exactly_the_generators(self, change):
        images = dict(g2.builtin_scalar_derivation("beta_zero")["images"])
        for name, text in change.items():
            if text is None:
                del images[name]
            else:
                images[name] = text
        with pytest.raises(ExprError, match="generator"):
            parse_derivation(images, SYM)

    @pytest.mark.parametrize("value", ["1/0", "many", [1], "1e300000"],
                             ids=["zero-denominator", "word", "list", "exponent"])
    def test_derivation_file_rejects_non_rational_parameter(self, value):
        # a parameter as outside data (a JSON value, a CLI string) gives it
        with pytest.raises(ExprError, match="expected a rational"):
            QuotientRing(alpha=value, beta=0)


def reference_rows(structure_or_ring, degree):
    """The rows of f -> ({f, x_1}, ..., {f, x_n}) from one ``bracket``
    (reduced to normal form on a ring) per basis monomial and generator."""
    ctx = structure_or_ring.context
    monomials = list(structure_or_ring.basis_monomials(degree))
    rows: dict[tuple, dict[int, Fraction]] = {}
    for gi, i in enumerate(ctx.generators()):
        g = ctx.var(ctx.names[i])
        for idx, mono in enumerate(monomials):
            f = LaurentPoly(ctx, {mono: 1})
            for m, c in structure_or_ring.bracket(f, g).terms.items():
                rows.setdefault((gi, m), {})[idx] = c
    return monomials, rows


ROW_CASES = ([(g2.builtin_algebra().structure, d) for d in range(5)]
             + [(QuotientRing(alpha=a, beta=b), d)
                for a, b in ((1, 1), (1, 0), (0, 1), ("-2/3", 5), ("9/8", 5))
                for d in range(4)]
             + [(RATIONAL, d) for d in range(4)])
ROW_IDS = ([f"ambient-d{d}" for d in range(5)]
           + [f"{a},{b}-d{d}" for a, b in ("11", "10", "01", ("-2/3", 5), ("9/8", 5))
              for d in range(4)]
           + [f"rational-d{d}" for d in range(4)])


def assert_rows_match(structure_or_ring, degree):
    """``bracket_rows`` equals ``reference_rows`` row for row, each
    reference row (g, m) looked up under ``key(g, m)``."""
    monomials, rows, scale, key = structure_or_ring.bracket_rows(degree)
    expected_monomials, expected = reference_rows(structure_or_ring, degree)
    assert monomials == expected_monomials
    packed = {key(g, m): row for (g, m), row in expected.items()}
    assert None not in packed and len(packed) == len(expected)
    assert rows.keys() == packed.keys()
    for k, row in rows.items():
        assert all(type(n) is int for n in row.values()), k
        assert {idx: Fraction(n, scale(k)) for idx, n in row.items()} \
            == packed[k], k


# exponents far past a 16-bit field, both signs on the invertible variables
WIDE = VarContext.make(["w0", "w1", "w2", "p"], invertible=["w1", "w2"],
                       parameters=["p"])
WIDE_EXPONENTS = [0, 1, 2, 3, 2 ** 16, 2 ** 16 + 1, 2 ** 20 + 7]


@st.composite
def laurent_structures(draw):
    """A random table over WIDE, Jacobi or not: the rows need only the
    bi-derivation formula."""
    def exponent(inv):
        values = st.sampled_from(WIDE_EXPONENTS)
        return st.one_of(values, values.map(operator.neg)) if inv else values

    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    term = st.tuples(coeffs, st.tuples(*[exponent(inv) for inv in WIDE.invertible]))
    table = {}
    for pair in itertools.combinations(range(3), 2):
        entry = WIDE.zero()
        for c, exps in draw(st.lists(term, max_size=2)):
            entry = entry + WIDE.monomial(dict(zip(WIDE.names, exps)), c)
        table[pair] = entry
    return PoissonStructure(WIDE, table)


class TestBracketRows:
    @pytest.mark.parametrize("structure_or_ring, degree", ROW_CASES, ids=ROW_IDS)
    def test_rows_match_the_bracket(self, structure_or_ring, degree):
        assert_rows_match(structure_or_ring, degree)

    @settings(max_examples=60, deadline=None)
    @given(laurent_structures(), st.integers(0, 2))
    def test_rows_match_on_wide_laurent_tables(self, structure, degree):
        assert_rows_match(structure, degree)

    @pytest.mark.parametrize("search", ["centre", "inner"])
    def test_certificate_catches_misplaced_rows(self, search, monkeypatch):
        # columns taken for the wrong monomials give a wrong answer, which
        # the check through bracket refuses as an internal error
        for cls in (PoissonStructure, QuotientRing):
            def reversed_columns(self, degree, original=cls.bracket_rows):
                monomials, *rest = original(self, degree)
                return monomials[::-1], *rest
            monkeypatch.setattr(cls, "bracket_rows", reversed_columns)
        with pytest.raises(RuntimeError, match="bracket_rows disagrees"):
            if search == "centre":
                bounded_centre(g2.builtin_algebra().structure, 2)
            else:
                bounded_inner_search(hamiltonian_quotient_images("x3", NUM11),
                                     NUM11, degree=2)

    def test_centre_brackets_only_its_certificate(self, monkeypatch):
        # the rows come from bracket_rows; bracket runs only to check
        # each basis element on each generator
        calls = []
        original = PoissonStructure.bracket
        def counting(self, f, g):
            calls.append(1)
            return original(self, f, g)
        monkeypatch.setattr(PoissonStructure, "bracket", counting)
        basis = bounded_centre(g2.builtin_algebra().structure, 4)
        assert len(basis) == 3  # 1, Omega1, Omega2
        assert len(calls) <= 6 * len(basis)  # 1260 with a bracket per row build


class TestBoundedSearches:
    def test_hamiltonian_roundtrip(self):
        images = hamiltonian_quotient_images("x3", NUM11)
        found = bounded_inner_search(images, NUM11, degree=2)
        assert found == NUM11.context.var("x3")

    def test_zero_derivation(self):
        zero = DerivationSpec.zero(NUM11.context)
        assert bounded_inner_search(zero, NUM11, degree=2).is_zero()

    def test_empty_degree_range(self):
        zero = DerivationSpec.zero(NUM11.context)
        assert bounded_inner_search(zero, NUM11, degree=-1).is_zero()
        assert bounded_centre(NUM11, -1) == []

    def test_scalar_derivation_not_inner_at_low_degree(self):
        ring = QuotientRing(alpha=1, beta=0)
        images = parse_derivation(
            g2.builtin_scalar_derivation("beta_zero")["images"], ring)
        assert bounded_inner_search(images, ring, degree=2) is None

    def test_symbolic_ring_rejected(self):
        with pytest.raises(ExprError, match="numeric"):
            bounded_inner_search({}, SYM, degree=1)

    def test_ambient_centre_small_degrees(self):
        alg = g2.builtin_algebra()
        ctx = alg.context
        basis2 = bounded_centre(alg.structure, 2)
        assert spans_same_space(basis2, [ctx.one()])
        basis3 = bounded_centre(alg.structure, 3)
        assert spans_same_space(basis3, [ctx.one(), alg.casimirs["Omega1"]])

    @pytest.mark.parametrize("degree", range(4))
    def test_ambient_centre_against_sympy_nullspace(self, degree):
        # outside oracle: the matrix of f -> ({f, X1}, ..., {f, X6}) rebuilt
        # in sympy from the JSON bracket table, f over the monomials of
        # degree <= d in lexicographic exponent order; sympy's nullspace and
        # bounded_centre both set one free column to 1 per basis vector
        import json
        from importlib import resources

        import sympy

        table = json.loads(resources.files("poisson_forge")
                           .joinpath("data/g2_algebra.json").read_text())
        X = sympy.symbols(table["variables"])
        n = len(X)
        pair = [[sympy.Integer(0)] * n for _ in range(n)]
        for key, text in table["brackets"].items():
            i, j = (int(k) - 1 for k in key.split(","))
            pair[i][j] = sympy.sympify(text.replace("^", "**"),
                                       locals=dict(zip(table["variables"], X)))
            pair[j][i] = -pair[i][j]
        exponents = sorted(e for e in itertools.product(range(degree + 1), repeat=n)
                           if sum(e) <= degree)
        rows: dict[tuple, dict[int, sympy.Rational]] = {}
        for k in range(n):
            for col, e in enumerate(exponents):
                f = sympy.prod(x ** a for x, a in zip(X, e))
                image = sympy.expand(sum(sympy.diff(f, X[i]) * pair[i][k]
                                         for i in range(n)))
                for m, c in sympy.Poly(image, *X).terms():
                    if c:
                        rows.setdefault((k, m), {})[col] = c
        matrix = sympy.Matrix([[row.get(col, 0) for col in range(len(exponents))]
                               for row in rows.values()] or [[0] * len(exponents)])
        expected = [[Fraction(int(v.p), int(v.q)) for v in vec]
                    for vec in matrix.nullspace()]
        basis = bounded_centre(g2.builtin_algebra().structure, degree)
        assert [[p.terms.get(e, 0) for e in exponents] for p in basis] == expected

    def test_rref_sees_few_rows_after_singleton_elimination(self, monkeypatch):
        # the bracket matrices are mostly single-entry rows, which
        # LinearSystem.from_rows settles before the RREF
        from poisson_forge.linalg import LinearSystem, solve
        calls = []
        original = LinearSystem.add_row
        def counting(self, row):
            calls.append(row)
            return original(self, row)
        monkeypatch.setattr(LinearSystem, "add_row", counting)
        bounded_centre(g2.builtin_algebra().structure, 4)
        assert len(calls) <= 100  # 2067 rows row by row
        ring10 = QuotientRing(alpha=1, beta=0)
        theta10 = parse_derivation(
            g2.builtin_scalar_derivation("beta_zero")["images"], ring10)
        # the infeasible system in the order bounded_inner_search builds
        # it, then with the rows that carry an rhs first and last
        orders = [list,
                  lambda rows: sorted(rows, key=lambda row_rhs: not row_rhs[1]),
                  lambda rows: sorted(rows, key=lambda row_rhs: bool(row_rhs[1]))]
        for order in orders:
            monkeypatch.setattr(quotient, "solve",
                                lambda rows, ncols: solve(order(rows), ncols))
            calls.clear()
            assert bounded_inner_search(theta10, ring10, 4) is None
            assert len(calls) <= 50  # 3376 rows row by row

    def test_quotient_centre_is_scalars(self):
        basis = bounded_centre(NUM11, 3)
        assert spans_same_space(basis, [NUM11.context.one()])

    def test_span_comparison_detects_difference(self):
        ctx = SYM.context
        assert not spans_same_space([ctx.one()], [ctx.var("x1")])

    def test_span_comparison_ignores_the_generating_set(self):
        ctx = SYM.context
        x1, x2, x3 = ctx.var("x1"), ctx.var("x2"), ctx.var("x3")
        assert spans_same_space([x1 + x2, x1 + x2, x3], [x1 + x2, x3])
        assert spans_same_space([x1 + x2, x1 - x2, x3 + x1],
                                [x3 + 3 * x1, x2, Fraction(1, 2) * x1])
        assert not spans_same_space([x1 + x2, x3], [x1, x2, x3])
