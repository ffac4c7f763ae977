"""Normal forms, quotient brackets, localised identities, bounded searches."""

import dataclasses
import functools
import hashlib
import itertools
import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_forge import chain, g2, quotient
from poisson_forge.chain import (chain_elements, verify_centrality,
                                 verify_localized_identities)
from poisson_forge.expr import ExprError, LaurentPoly, VarContext, WorkLimitError
from poisson_forge.parse import parse_expr
from poisson_forge.linalg import solve
from poisson_forge.poisson import (DerivationSpec, ExponentPacking,
                                   PoissonStructure, WeightVector, check_jacobi,
                                   exponents_up_to, field_width,
                                   hamiltonian_derivation)
from poisson_forge.quotient import (MAX_TERMS, TABLE_WEIGHT, QuotientElement,
                                    QuotientRing, bounded_centre,
                                    bounded_inner_search, check_casimirs,
                                    check_quotient_derivation,
                                    hamiltonian_quotient_images,
                                    parse_derivation, quotient_jacobi_items,
                                    spans_same_space)
from poisson_forge.torus import (Decomposition, TorusStructure,
                                 apply_decomposition, decompose_derivation)
from tests.test_expr import assert_as_checked
from tests.test_poisson import (LOCAL, RATIONAL, S, laurent_polys,
                                reference_bracket)

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
# The last two with sym, loc and (1,1) are the benchmark's five rings.
REFERENCE_RINGS = [SYM, LOC, NUM11, QuotientRing(alpha="-2/3", beta=5),
                   QuotientRing(alpha="1/2", beta="-1/3"),
                   QuotientRing(alpha="9/8", beta=5),
                   QuotientRing(alpha=1, beta=0), QuotientRing(alpha=0, beta=1)]
REFERENCE_IDS = ["sym", "loc", "1,1", "-2/3,5", "1/2,-1/3", "9/8,5", "1,0", "0,1"]


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
        assert SYM.rewrite_x3 == parse_expr(g2.REWRITE_IDENTITIES["x3^2"],
                                            SYM.context)
        assert SYM.rewrite_x4 == parse_expr(g2.REWRITE_IDENTITIES["x4^2"],
                                            SYM.context)

    def test_casimirs_reduce_to_parameters(self):
        assert nf(SYM.casimir1) == SYM.context.var("alpha")
        assert nf(SYM.casimir2) == SYM.context.var("beta")

    def test_already_normal(self):
        assert nf("x1") == SYM.context.var("x1")

    def test_x3sq_x4_matches_identity_rhs(self):
        assert nf("x3^2*x4") == nf(g2.REWRITE_IDENTITIES["x3^2*x4"])

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

    def test_rewrite_budget_counts_rewritten_monomials(self, monkeypatch):
        # x3^12 on the symbolic ring rewrites 678 monomials: a budget of
        # 678 lets it through, one less refuses it, deterministically
        expected = nf("x3^12")
        monkeypatch.setattr(quotient, "MAX_REWRITES", 678)
        assert nf("x3^12") == expected
        monkeypatch.setattr(quotient, "MAX_REWRITES", 677)
        with pytest.raises(WorkLimitError,
                           match="^normal form needs more than 677 rewrite steps$"):
            nf("x3^12")

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
        assert_as_checked(reduced, reference_normal_form(ring, p, random.Random(seed)))

    @pytest.mark.parametrize("ring", [NUM11, SYM, LOC], ids=["1,1", "sym", "loc"])
    def test_rewritten_terms_cancel_copied_ones(self, ring):
        # rewriting the x3^2 term of Omega1 gives back, negated, every
        # other term of Omega1 - alpha, which no rule applies to
        assert ring.normal_form(ring.casimir1 - ring.alpha_poly).terms == {}

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
# gives 128.  Inputs of weight at most TABLE_WEIGHT go through the ring's
# table and pack nothing (those two and x1^(2^70)); with x4^4 (weight 12)
# x5^-91 and x5^-92 take the packed bucket path to the same two edges.
WIDTH_CASES = [
    (LOC, "x5^-40*x6^-33*x3^6", 8),
    (LOC, "x1^300*x4^5", 16),
    (SYM, "alpha^50*x3^7", 8),
    (LOC, "x5^-109*x4^2 + 1/3*x1^90*x3^2 + x6^-7", 8),
    (LOC, "x5^-110*x4^2 + 1/3*x1^90*x3^2 + x6^-7", 16),
    (LOC, "x5^-91*x4^4 + 1/3*x1^90*x3^2 + x6^-7", 8),
    (LOC, "x5^-92*x4^4 + 1/3*x1^90*x3^2 + x6^-7", 16),
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


# every (a, b) whose x3^a x4^b a rule applies to, of weight 2a + 3b at most
# TABLE_WEIGHT: the entries a ring's table can hold
TABLE_PAIRS = [(a, b) for a in range(6) for b in range(4)
               if 2 * a + 3 * b <= TABLE_WEIGHT and (a >= 2 or b >= 2)]


def free_monomial(ring, rng):
    """A monomial in x1, x2, x5 and x6 only, negative powers of x5 and x6
    on a localised ring, so it commutes with rewriting."""
    low = -3 if ring.localized else 0
    return {"x1": rng.randint(0, 3), "x2": rng.randint(0, 2),
            "x5": rng.randint(low, 2), "x6": rng.randint(low, 2)}


class TestNormalFormTable:
    """The ring's table of NF(x3^a x4^b), weight at most TABLE_WEIGHT, that
    reductions up to that weight read, against the Fraction reference."""

    @pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=REFERENCE_IDS)
    def test_every_entry_times_a_free_monomial(self, ring):
        assert len(TABLE_PAIRS) == 10
        rng = random.Random(33)
        for a, b in TABLE_PAIRS:
            u = free_monomial(ring, rng)
            p = (ring.context.monomial({**u, "x3": a, "x4": b}, Fraction(-5, 7))
                 + ring.context.monomial(free_monomial(ring, rng), 2))
            assert ring.normal_form(p).terms == reference_normal_form(
                ring, p, random.Random(a + 7 * b)), (a, b)
        assert set(ring._table) == set(TABLE_PAIRS)

    @pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=REFERENCE_IDS)
    def test_products_across_the_table_weight(self, ring, monkeypatch):
        # a product of two normal forms reaches weight 10, x3^2 x4^2; with
        # factors heavier than normal forms the products run from weight 9
        # to 13, and those above 10 take the bucket path
        rng = random.Random(34)
        tables = []
        original = QuotientRing._through_table

        def recording(self, source):
            tables.append(max(2 * m[self._i3] + 3 * m[self._i4] for m in source))
            return original(self, source)
        monkeypatch.setattr(QuotientRing, "_through_table", recording)
        ctx = ring.context
        for (a1, b1), (a2, b2) in [((1, 1), (2, 0)), ((1, 1), (1, 1)),
                                   ((1, 2), (0, 1)), ((1, 1), (2, 1)),
                                   ((1, 2), (1, 1))]:
            f = (ctx.monomial({**free_monomial(ring, rng), "x3": a1, "x4": b1},
                              Fraction(3, 4))
                 + ctx.monomial({**free_monomial(ring, rng), "x3": 1}, -1))
            g = (ctx.monomial({**free_monomial(ring, rng), "x3": a2, "x4": b2}, 2)
                 + ctx.monomial({**free_monomial(ring, rng), "x4": 1}, Fraction(1, 3)))
            p = f * g
            tables.clear()
            assert ring.normal_form(p).terms == reference_normal_form(
                ring, p, random.Random(a1 + 3 * b2)), ((a1, b1), (a2, b2))
            weight = 2 * (a1 + a2) + 3 * (b1 + b2)
            assert tables == ([weight] if weight <= TABLE_WEIGHT else [])

    def test_no_entry_above_the_table_weight(self):
        ring = QuotientRing(alpha=1, beta=1)
        ring.normal_form("x3^20")
        (ring.element("x1*x3*x4") * ring.element("x3*x4 + x5")).poly
        # x3^5 x4 (weight 13) through _entry, as bracket_rows
        # would ask for it: the right normal form, not kept
        x3_5_x4 = ring._entry(5, 1)
        assert {tuple(map(operator.add, t, (0, 0, 5, 1, 0, 0, 0, 0))):
                Fraction(n, x3_5_x4.den) for t, n in x3_5_x4.terms} == \
            ring.normal_form("x3^5*x4").terms
        assert list(ring._table) == [(2, 2)]

    def test_rules_in_use_own_the_table(self):
        # while the x4 rule is built only the x3 rule is in use, and an
        # entry made then leaves x4^2 as it is; taking both rules again
        # empties the table, so NF(x3^2 x4) is made anew
        ring = QuotientRing(alpha=1, beta=1)
        expected = ring.normal_form("x3^2*x4")
        ring._use_rules(ring.rewrite_x3)
        x3_only = ring.normal_form("x3^2*x4")
        assert any(m[3] >= 2 for m in x3_only.terms)
        assert (2, 1) in ring._table
        ring._use_rules(ring.rewrite_x3, ring.rewrite_x4)
        assert ring._table == {}
        assert ring.normal_form("x3^2*x4") == expected

    @pytest.mark.parametrize("a, b, peak, copies", [(0, 2, 14, 7143),
                                                    (2, 2, 70, 1429)])
    def test_table_path_keeps_the_term_limit(self, a, b, peak, copies):
        # copies of x3^a x4^b whose normal forms are far apart (x1^(8i),
        # each spanning x1^0..x1^6): the bucket path holds `peak` terms per
        # copy at its fullest check, just over MAX_TERMS in all, and refuses
        # them, while one copy fewer stays within it; the normal forms hold
        # 14 and 63 terms each.  The table path leaves x4^2 to the bucket
        # path on its term count alone, x3^2 x4^2 on its rewrite bound too
        assert (copies - 1) * peak <= MAX_TERMS < copies * peak
        ring = QuotientRing(alpha=1, beta=1)
        exponents = (0, 0, a, b, 0, 0, 0, 0)
        p = LaurentPoly(ring.context, {(8 * i,) + exponents[1:]: 1
                                       for i in range(copies)})
        with pytest.raises(WorkLimitError,
                           match=f"^normal form needs more than {MAX_TERMS} terms$"):
            ring.normal_form(p)

    def test_table_path_keeps_the_rewrite_budget(self, monkeypatch):
        # the bucket path rewrites 20 monomials for x3^2 x4^2, 60 for three
        # copies far apart: a budget of 59 refuses them on either path
        ring = QuotientRing(alpha=1, beta=1)
        p = LaurentPoly(ring.context, {(8 * i, 0, 2, 2, 0, 0, 0, 0): 1
                                       for i in range(3)})
        monkeypatch.setattr(quotient, "MAX_REWRITES", 59)
        with pytest.raises(WorkLimitError,
                           match="^normal form needs more than 59 rewrite steps$"):
            ring.normal_form(p)

    def test_rewrite_bound_crossover(self, monkeypatch):
        # the rewrite bound of x3^2 x4^2 is 281 (1 + 20 bucket steps times
        # the longest rule's 14 terms) where the bucket path counts 20: so
        # 1067 far-apart copies take the table path and 1068 the bucket
        # path, both to the sum of the copies' own normal forms
        ring = QuotientRing(alpha=1, beta=1)
        m = (0, 0, 2, 2, 0, 0, 0, 0)
        entry = ring._entry(2, 2)
        assert (entry.rewrites, ring._rewritten({m: Fraction(1)}, 10)[2],
                ring._longest) == (281, 20, 14)
        paths = []
        original = QuotientRing._through_table

        def recording(self, source):
            out = original(self, source)
            paths.append("bucket" if out is None else "table")
            return out
        monkeypatch.setattr(QuotientRing, "_through_table", recording)
        for copies, path in ((1067, "table"), (1068, "bucket")):
            assert (copies * 281 <= quotient.MAX_REWRITES) == (path == "table")
            p = LaurentPoly(ring.context, {(8 * i,) + m[1:]: 1
                                           for i in range(copies)})
            expected = {(8 * i + t[0],) + tuple(map(operator.add, m[1:], t[1:])):
                        Fraction(n, entry.den)
                        for i in range(copies) for t, n in entry.terms}
            paths.clear()
            assert ring.normal_form(p).terms == expected
            assert paths == [path]


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

    @pytest.mark.parametrize("ring", [NUM11, QuotientRing(alpha=1, beta=0), SYM],
                             ids=["1,1", "1,0", "sym"])
    @given(f=st.one_of(
        quotient_polys(names=("x1", "x3", "x4", "x6", "alpha", "beta")),
        laurent_polys(VarContext.make(quotient.QUOTIENT_NAMES))))
    def test_generator_brackets(self, ring, f):
        # also for f over the context of x1..x6 alone, which the ring
        # moves into its own
        images = ring.generator_brackets(f)
        assert images == [ring.bracket(f, ring.context.var(name))
                          for name in quotient.QUOTIENT_NAMES]
        assert all(image == ring.normal_form(image) for image in images)

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
        assert e["t5"].num == LOC.context.var("x5") and not e["t5"].den
        # t1's denominator reduces to t3 alone
        assert e["t1"].den_poly() == e["t3"].num

    def test_tower_registers_exactly_t4_and_t3(self):
        e = chain_elements(LOC)
        assert [str(f) for f in e["t1"].field.factors.values()] == [
            "x4 - 2/3*x5^3*x6^-1", "x3 - 3/2*x4*x5^-1"]

    def test_all_identities(self):
        items = verify_localized_identities(LOC)
        assert len(items) == 13
        for label, ok, residue in items:
            assert ok, f"{label}: {residue}"

    def test_casimir_relations_in_tower(self):
        labels = {label for label, ok, _ in verify_localized_identities(LOC)}
        assert "t1*t3*t5 = alpha" in labels
        assert "t2*t4*t6 = beta" in labels

    def test_tower_parses_each_text_once(self, monkeypatch):
        # the tower reads the chain formulas and its identities as text:
        # each distinct text is parsed once per process, so a second ring
        # parses none
        calls = []
        def counting(*args, **kwargs):
            calls.append(args[0])
            return parse_expr(*args, **kwargs)
        monkeypatch.setattr(g2, "parse_expr", counting)
        g2.golden_poly.cache_clear()
        items = verify_localized_identities(QuotientRing(localized=True))
        assert all(ok for _, ok, _ in items)
        assert sorted(calls) == sorted(set(calls))
        assert set(calls) >= set(g2.CHAIN_FORMULAS.values())
        calls.clear()
        items = verify_localized_identities(QuotientRing(alpha=1, beta=2,
                                                         localized=True))
        assert all(ok for _, ok, _ in items)
        assert calls == []

    def test_quotient_import_leaves_chain_unloaded(self):
        # the tower lives in the chain module, which reads the ring through
        # its protocol; the quotient imports nothing of the chain, so a ring
        # alone (the centre-search set-up) does not pay for its import
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys, poisson_forge.quotient;"
                " print('poisson_forge.chain' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_changed_chain_formula_breaks_the_relation(self, monkeypatch):
        # negative control: the tower is built from g2.CHAIN_FORMULAS, so
        # X[1,3] = X[1,4] - 1/3*X[2,4]*X[3,4]^-1 must break t1*t3*t5 = alpha
        monkeypatch.setitem(g2.CHAIN_FORMULAS, (1, 3), "X1 - 1/3*X2*X3^-1")
        verdicts = {label: ok for label, ok, _ in verify_localized_identities(LOC)}
        assert not verdicts["t1*t3*t5 = alpha"]
        assert verdicts["t2*t4*t6 = beta"]

    def test_changed_formula_for_x5_breaks_t5(self, monkeypatch):
        # negative control: t5 is read at level 3, where the formulas have
        # acted, so X[5,4] = X[5,5] + X[1,5] must show up in "t5 = x5"
        monkeypatch.setitem(g2.CHAIN_FORMULAS, (5, 4), "X5 + X1")
        assert str(chain_elements(LOC)["t5"]) == "x1 - x3*x5^-1 + 3/4*x4*x5^-2 + x5"
        residues = {label: residue for label, ok, residue
                    in verify_localized_identities(LOC) if not ok}
        assert residues["t5 = x5"] == "x1 - x3*x5^-1 + 3/4*x4*x5^-2"


class TestQuotientElement:
    def test_inverses(self):
        x5 = LOC.element("x5")
        assert (x5 ** -1).poly == LOC.context.monomial({"x5": -1})
        assert (x5 * x5 ** -1).poly == 1

    @pytest.mark.parametrize("element", [
        LOC.element("x1 + x2"), SYM.element("x1")], ids=["x1+x2", "x1"])
    def test_other_inverses_refused(self, element):
        with pytest.raises(ExprError):
            element ** -1

    def test_two_argument_form(self):
        # as bench/workloads.py builds its small normal-form operands
        x3 = QuotientElement(NUM11, NUM11.context.var("x3"))
        assert [f.name for f in dataclasses.fields(x3)] == ["ring", "poly"]
        assert (x3 * x3).poly == NUM11.normal_form("x3^2")


# The images in the localised quotient of X[1,6], X[2,6], X[3,6], X[3,5]
# and X[4,6] of g2.CHAIN_FORMULAS, restated here independently of them
# for the oracle.
TOWER_TEXTS = {"x16": "x1 - 1/2*x5*x6^-1",
               "x26": "x2 + 3/2*x4*x6^-1 - 3*x3*x5*x6^-1 + x5^3*x6^-2",
               "x36": "x3 - x5^2*x6^-1",
               "t3": "x3 - 3/2*x4*x5^-1",
               "t4": "x4 - 2/3*x5^3*x6^-1"}


def tower_oracle(alpha, beta, texts=TOWER_TEXTS):
    """(t, reduce): the chain elements t1..t4, z1, z2, f1, x16 and x36 as
    sympy rational functions built from ``texts`` alone, with t["identity"]
    reading a label of ``g2.TOWER_IDENTITIES`` as lhs - rhs over them,
    x1..x6, t5 = x5, t6 = x6, alpha and beta; and the
    remainder of the numerator of a rational function modulo sympy's
    grevlex Groebner basis of (Omega1 - alpha, Omega2 - beta), the
    Casimirs read from the
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
    f1 = z1 - t3 ** 2 / (3 * t4)
    t1 = f1 - t2 / (2 * t3)

    def reduce(expr):
        numerator, _ = sympy.fraction(sympy.together(expr))
        return basis.reduce(sympy.expand(numerator))[1]
    t = {"t1": t1, "t2": t2, "t3": t3, "t4": t4, "z1": z1, "z2": z2,
         "f1": f1, "x16": e["x16"], "x36": e["x36"], "x5": x5,
         "x6": names["x6"], "sym": sym}
    own = {**{f"x{i}": s for i, s in enumerate(x, 1)},
           **{k: v for k, v in t.items() if k != "sym"}, "t5": x5,
           "t6": names["x6"], "alpha": sympy.Rational(alpha),
           "beta": sympy.Rational(beta)}

    def identity(label):
        text = re.sub(r"x\((\d),(\d)\)", r"x\1\2", label.removeprefix("relation "))
        lhs, rhs = (sympy.sympify(side.replace("^", "**"), locals=own)
                    for side in text.split(" = "))
        return lhs - rhs
    t["identity"] = identity
    return t, reduce


TOWER_RINGS = [QuotientRing(alpha=1, beta=1, localized=True),
               QuotientRing(alpha="-2/3", beta=5, localized=True)]


class TestLocalizedTowerOracle:
    @pytest.fixture(scope="class")
    def oracles(self):
        """{(alpha, beta): tower_oracle} on each ring of TOWER_RINGS."""
        return {(ring.alpha, ring.beta): tower_oracle(ring.alpha, ring.beta)
                for ring in TOWER_RINGS}

    @pytest.mark.parametrize("ring", TOWER_RINGS, ids=["1,1", "-2/3,5"])
    def test_package_elements_are_the_oracles(self, ring, oracles):
        t, reduce = oracles[ring.alpha, ring.beta]
        elements = chain_elements(ring)
        for name in ("x16", "x36", "z1", "z2", "f1", "t1", "t2", "t3", "t4"):
            f = elements[name]
            value = t["sym"](str(f.num)) / t["sym"](str(f.den_poly()))
            assert reduce(value - t[name]) == 0, name

    @pytest.mark.parametrize("ring", TOWER_RINGS, ids=["1,1", "-2/3,5"])
    def test_every_identity_against_groebner_basis(self, ring, oracles):
        t, reduce = oracles[ring.alpha, ring.beta]
        assert len(g2.TOWER_IDENTITIES) == 13
        for label in g2.TOWER_IDENTITIES:
            assert reduce(t["identity"](label)) == 0, label

    def test_false_label_fails(self, monkeypatch, oracles):
        # negative control: 1/3 where f1 = t1 + 1/2*t2*t3^-1 has 1/2, in the
        # oracle and in the package, which reads the identity off its label
        false = "f1 = t1 + 1/3*t2*t3^-1"
        t, reduce = oracles[1, 1]
        assert reduce(t["identity"](false)) != 0
        monkeypatch.setattr(chain, "TOWER_IDENTITIES", (*g2.TOWER_IDENTITIES, false))
        failed = [label for label, ok, _ in verify_localized_identities(TOWER_RINGS[0])
                  if not ok]
        assert failed == [false]

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
    """``bracket_rows`` of all six generators equals ``reference_rows``
    row for row, each reference row (g, m) looked up under ``key(g, m)``."""
    with pytest.MonkeyPatch.context() as patch:
        all_slots(patch)
        monomials, rows, scale, key = structure_or_ring.bracket_rows(degree)
    expected_monomials, expected = reference_rows(structure_or_ring, degree)
    assert monomials == expected_monomials
    packed = {key(g, m): row for (g, m), row in expected.items()}
    assert None not in packed and len(packed) == len(expected)
    assert rows.keys() == packed.keys()
    assert type(scale) is int and scale > 0
    for k, row in rows.items():
        assert all(type(n) is int for n in row.values()), k
        assert {idx: Fraction(n, scale) for idx, n in row.items()} \
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


def checked_bracket(structure, f, g):
    """The terms of {f, g} on Fractions, term pair by term pair, for the
    checked constructor."""
    terms = {}
    for (i, j), b in structure.table.items():
        for m1, c1 in f.terms.items():
            for m2, c2 in g.terms.items():
                k = m1[i] * m2[j] - m1[j] * m2[i]
                if not k:
                    continue
                for mb, cb in b.terms.items():
                    m = [e1 + e2 + e for e1, e2, e in zip(m1, m2, mb)]
                    m[i] -= 1
                    m[j] -= 1
                    m = tuple(m)
                    terms[m] = terms.get(m, 0) + k * c1 * c2 * cb
    return terms


class TestBracketAsChecked:
    @pytest.mark.parametrize("structure, low", [(S, 0), (LOCAL, -2)],
                             ids=["g2", "localised"])
    @given(data=st.data())
    def test_g2(self, structure, low, data):
        polys = laurent_polys(structure.context, low=low)
        f, g = data.draw(polys), data.draw(polys)
        assert_as_checked(structure.bracket(f, g), checked_bracket(structure, f, g))

    @settings(max_examples=60, deadline=None)
    @given(laurent_structures(), st.data())
    def test_wide_laurent_tables(self, structure, data):
        polys = laurent_polys(WIDE, low=-2)
        f, g = data.draw(polys), data.draw(polys)
        assert_as_checked(structure.bracket(f, g), checked_bracket(structure, f, g))


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
        # each basis element on each generator, once the process has
        # found the generating set (its Jacobi check brackets too)
        assert g2.builtin_algebra().structure.generating_slots == (0, 5)
        calls = []
        original = PoissonStructure.bracket
        def counting(self, f, g):
            calls.append(1)
            return original(self, f, g)
        monkeypatch.setattr(PoissonStructure, "bracket", counting)
        basis = bounded_centre(g2.builtin_algebra().structure, 4)
        assert len(basis) == 3  # 1, Omega1, Omega2
        assert len(calls) <= 6 * len(basis)  # 1260 with a bracket per row build


@functools.cache
def sympy_bracket_table(R):
    """{(i, j): {x_i, x_j}} for every ordered pair, read by sympy from the
    algebra's JSON table into the polynomial ring R of x1..x6."""
    import importlib.resources
    import json

    from sympy import sympify
    data = json.loads(importlib.resources.files("poisson_forge.data")
                      .joinpath("g2_algebra.json").read_text(encoding="utf-8"))
    table = {}
    for pair, text in data["brackets"].items():
        i, j = (int(part) - 1 for part in pair.split(","))
        table[i, j] = R.from_expr(sympify(text.replace("^", "**").lower()))
        table[j, i] = -table[i, j]
    return table


def row_oracle_mismatches(ring, degree):
    """The columns (basis monomial m, generator slot g) of
    ``ring.bracket_rows(degree)`` on all six generators whose image, read
    back from the rows, is not the normal form of {m, x_g}: a term keeps
    x3^2, x4^2 or a parameter, or the image minus {m, x_g} rebuilt in
    sympy from the JSON table is not in the ideal (Omega1 - alpha,
    Omega2 - beta)."""
    to_sympy, basis = groebner_oracle(ring)
    R = basis[0].ring
    table = sympy_bracket_table(R)
    with pytest.MonkeyPatch.context() as patch:
        all_slots(patch)
        monomials, rows, scale, key = ring.bracket_rows(degree)
    packing = key.__self__
    slot_mask = (1 << packing.low) - 1
    images: dict[tuple[int, int], dict] = {}
    for k, row in rows.items():
        for idx, n in row.items():
            images.setdefault((idx, k & slot_mask), {})[
                packing.exponents(k)] = Fraction(n, scale)
    i3, i4 = ring._i3, ring._i4
    mismatches = []
    for idx, m in enumerate(monomials):
        xm = R({m[:6]: 1})
        for g, pos in enumerate(ring.context.generators()):
            image = images.get((idx, g), {})
            expected = sum((xm.diff(R.gens[i]) * table[i, pos]
                            for i in range(6) if (i, pos) in table), R.zero)
            reduced = all(e[i3] <= 1 and e[i4] <= 1 and not any(e[6:])
                          for e in image)
            if not reduced or (to_sympy(LaurentPoly(ring.context, image))
                               - expected).rem(basis) != 0:
                mismatches.append((m, g))
    return mismatches


class TestBracketRowsOracle:
    # outside oracle for the rows that bounded_centre and the inner search
    # solve: the cross-check of bounded_centre brackets only the basis it
    # found, so it never sees a central element that wrong rows drop
    @pytest.mark.parametrize("alpha, beta, degree",
                             [(a, b, d) for a, b in ((1, 1), (1, 0), (0, 1))
                              for d in (1, 2)] + [(1, 1, 3)],
                             ids=[f"{a},{b}-d{d}" for a, b in ("11", "10", "01")
                                  for d in (1, 2)] + ["1,1-d3"])
    def test_rows_are_the_normal_forms_of_the_brackets(self, alpha, beta, degree):
        ring = QuotientRing(alpha=alpha, beta=beta)
        assert row_oracle_mismatches(ring, degree) == []

    def test_flipped_table_term_is_caught(self):
        # negative control: one term of the per-position table of the
        # ring's own structure with its sign flipped
        ring = QuotientRing(alpha=1, beta=1)
        by_position = [list(terms) for terms in ring.structure._by_position]
        g, shift, n = by_position[ring._i3][0]
        by_position[ring._i3][0] = (g, shift, -n)
        ring.structure.__dict__["_by_position"] = tuple(map(tuple, by_position))
        assert row_oracle_mismatches(ring, 2)


@pytest.fixture
def bracket_calls(monkeypatch):
    """The list that each PoissonStructure.bracket call appends to."""
    calls = []
    original = PoissonStructure.bracket

    def counting(self, f, g):
        calls.append(1)
        return original(self, f, g)
    monkeypatch.setattr(PoissonStructure, "bracket", counting)
    return calls


class TestBracketCalls:
    def test_one_pass_users_make_no_bracket_call(self, bracket_calls):
        alg = g2.builtin_algebra()
        f = parse_expr("X1*X3 - 2/3*X2*X4^2 + X6", alg.context)
        images = hamiltonian_derivation(f, alg.structure).images
        assert images == {name: reference_bracket(alg.structure, f, alg.context.var(name))
                          for name in alg.context.names}
        assert all(ok for _, ok, _ in verify_centrality(alg.structure, alg.casimirs))
        torus = TorusStructure.make(g2.TORUS_MATRIX)
        gamma = parse_expr("t1*t2^-1 - 1/2*t3^2*t6", torus.context)
        theta = {name: torus.context.zero() for name in torus.names}
        theta["t2"] = torus.monomial((1, 0, 1, 0, 1, 0), 3)
        images = apply_decomposition(Decomposition(gamma, theta), torus)
        assert decompose_derivation(
            DerivationSpec(torus.context, images), torus) == Decomposition(gamma, theta)
        assert bracket_calls == []

    def test_search_cross_checks_bracket(self, bracket_calls):
        # the generating set's one Jacobi check per process brackets too
        assert g2.builtin_algebra().structure.generating_slots == (0, 5)
        bracket_calls.clear()
        basis = bounded_centre(g2.builtin_algebra().structure, 3)
        assert len(basis) == 2  # 1, Omega1
        assert len(bracket_calls) == 6 * len(basis)
        images = hamiltonian_quotient_images("x3", NUM11)
        bracket_calls.clear()
        assert bounded_inner_search(images, NUM11, degree=2) == NUM11.context.var("x3")
        assert len(bracket_calls) == 6


class TestBoundedSearches:
    ZERO = DerivationSpec(NUM11.context, {name: NUM11.context.zero()
                                          for name in quotient.QUOTIENT_NAMES})

    def test_hamiltonian_roundtrip(self):
        images = hamiltonian_quotient_images("x3", NUM11)
        found = bounded_inner_search(images, NUM11, degree=2)
        assert found == NUM11.context.var("x3")

    def test_zero_derivation(self):
        assert bounded_inner_search(self.ZERO, NUM11, degree=2).is_zero()

    def test_empty_degree_range(self):
        assert bounded_inner_search(self.ZERO, NUM11, degree=-1).is_zero()
        assert bounded_centre(NUM11, -1) == []

    def test_scalar_derivation_not_inner_at_low_degree(self):
        ring = QuotientRing(alpha=1, beta=0)
        images = parse_derivation(
            g2.builtin_scalar_derivation("beta_zero")["images"], ring)
        assert bounded_inner_search(images, ring, degree=2) is None

    def test_symbolic_ring_rejected(self):
        with pytest.raises(ExprError, match="numeric"):
            bounded_inner_search({}, SYM, degree=1)

    def test_centre_of_a_context_of_parameters_only(self):
        # no generators: the basis is the empty exponent vector, 1, alone
        alg = g2.load_algebra({"variables": ["p"], "parameters": ["p"],
                               "brackets": {}})
        assert [list(exponents_up_to(0, d)) for d in (-1, 0, 2)] == [[], [()], [()]]
        assert bounded_centre(alg.structure, 2) == [alg.context.one()]

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


def all_slots(monkeypatch):
    """Make ``bracket_rows``, and with it every search, build the rows of
    all six generators: the reference that the rows of a Poisson
    generating set must match."""
    every = property(lambda self: tuple(range(6)))
    for cls in (PoissonStructure, QuotientRing):
        monkeypatch.setattr(cls, "generating_slots", every)


GENERATING_RINGS = {(1, 1): NUM11, **{ab: QuotientRing(*ab)
                                      for ab in ((1, 0), (0, 1), ("-2/3", 5))}}


class TestGeneratingSet:
    """x1 and x6 generate the built-in algebra as a Poisson algebra, so
    the searches build their rows for those two generators only."""

    def test_builtin_table_and_rings_take_x1_and_x6(self):
        assert g2.builtin_algebra().structure.generating_slots == (0, 5)
        for ab in ((1, 1), (1, 0), (0, 1)):
            ring = GENERATING_RINGS[ab]
            assert ring.generating_slots == (0, 5)
            assert ring.structure.generating_slots == (0, 5)

    def test_table_failing_jacobi_takes_every_generator(self):
        # the distinguished mutation of the jacobi suite
        alg = g2.builtin_algebra()
        table = dict(alg.structure.table)
        table[(0, 2)] = parse_expr("X1*X3 + 2*X2", alg.context)
        mutated = PoissonStructure(alg.context, table)
        assert check_jacobi(mutated) is not None
        assert mutated.generating_slots == tuple(range(6))

    def test_log_canonical_torus_takes_every_generator(self):
        # negative control of the closure rule: Jacobi holds, but no entry
        # has a linear term, so no generator is reached from others
        structure = TorusStructure.make(g2.TORUS_MATRIX).structure
        assert check_jacobi(structure) is None
        assert structure.generating_slots == tuple(range(6))

    def test_closure_needs_the_rest_of_the_entry_reached(self):
        # {a, b} = c + d with c, d central: c is reached from a and b only
        # once d is, and d only once c is, so no pair generates
        ctx = VarContext.make(["a", "b", "c", "d"])
        structure = PoissonStructure(ctx, {(0, 1): parse_expr("c + d", ctx)})
        assert check_jacobi(structure) is None
        assert structure.generating_slots == (0, 1, 2)

    @pytest.mark.parametrize("structure_or_ring, degree",
                             [(g2.builtin_algebra().structure, 3), (NUM11, 3),
                              (GENERATING_RINGS["-2/3", 5], 2)],
                             ids=["ambient-d3", "1,1-d3", "-2/3,5-d2"])
    def test_rows_of_the_set_are_the_full_rows_of_its_slots(self, structure_or_ring,
                                                           degree, monkeypatch):
        monomials, rows, scale, key = structure_or_ring.bracket_rows(degree)
        all_slots(monkeypatch)
        full_monomials, full, full_scale, full_key = \
            structure_or_ring.bracket_rows(degree)
        assert monomials == full_monomials
        packing = full_key.__self__
        slot_mask = (1 << packing.low) - 1
        expected = {k: row for k, row in full.items() if k & slot_mask in (0, 5)}
        assert rows.keys() == expected.keys()
        for k, row in rows.items():
            assert {i: Fraction(n, scale) for i, n in row.items()} == \
                {i: Fraction(n, full_scale) for i, n in expected[k].items()}

    def test_row_counts(self, monkeypatch):
        # deterministic work counts of the rows of all six generators and
        # of the rows the searches build
        cases = {"ambient d6": (g2.builtin_algebra().structure, 6),
                 "(1,1) d4": (NUM11, 4)}

        def counts():
            return {name: len(structure_or_ring.bracket_rows(degree)[1])
                    for name, (structure_or_ring, degree) in cases.items()}
        of_the_set = counts()
        all_slots(monkeypatch)
        of_all = counts()
        assert {name: (of_all[name], of_the_set[name]) for name in cases} == \
            {"ambient d6": (9169, 3109), "(1,1) d4": (3414, 747)}

    @pytest.mark.parametrize("structure_or_ring, top",
                             [(g2.builtin_algebra().structure, 5)]
                             + [(ring, 3) for ring in GENERATING_RINGS.values()],
                             ids=["ambient"] + [f"{a},{b}" for a, b in GENERATING_RINGS])
    def test_centre_equals_the_centre_on_all_rows(self, structure_or_ring, top,
                                                  monkeypatch):
        found = [bounded_centre(structure_or_ring, d) for d in range(top + 1)]
        all_slots(monkeypatch)
        assert structure_or_ring.generating_slots == tuple(range(6))
        assert found == [bounded_centre(structure_or_ring, d) for d in range(top + 1)]

    def test_inner_search_off_the_set_returns_none(self, monkeypatch):
        # ham_f with x2 added to one image is not inner.  Perturbing x1 or
        # x6 makes the rows' system infeasible (an rhs monomial no row
        # reaches, or a pivot in the rhs column); perturbing any other
        # generator leaves it feasible, and the check through bracket on
        # that generator refuses the solution.  The searches on the rows of
        # all six generators give the same answers.
        ring = NUM11
        f = parse_expr("x1*x4 - 2*x5*x6 + x2", ring.context)
        ham = hamiltonian_quotient_images(f, ring)
        assert bounded_inner_search(ham, ring, 2) == f
        solved = []
        monkeypatch.setattr(quotient, "solve", lambda rows, ncols: solved.append(
            solve(rows, ncols)) or solved[-1])
        perturbed, feasible = [], {}
        for name in quotient.QUOTIENT_NAMES:
            images = dict(ham.images)
            images[name] = images[name] + ring.context.var("x2")
            perturbed.append(DerivationSpec(ring.context, images))
            solved.clear()
            assert bounded_inner_search(perturbed[-1], ring, 2) is None
            feasible[name] = [x is not None for x in solved]
        # x1: a pivot in the rhs column; x6: an rhs monomial no row reaches
        assert feasible == {"x1": [False], "x2": [True], "x3": [True],
                            "x4": [True], "x5": [True], "x6": []}
        all_slots(monkeypatch)
        assert all(bounded_inner_search(D, ring, 2) is None for D in perturbed)
        assert bounded_inner_search(ham, ring, 2) == f

    @pytest.mark.parametrize("ab", [(1, 1), (1, 0), ("-2/3", 5)],
                             ids=["1,1", "1,0", "-2/3,5"])
    def test_inner_search_at_degree_three(self, ab):
        # x3, x4 and x3*x4 terms put the rhs of ham_f on rows whose images
        # reduce through entries of several denominators and weights,
        # which the rows' one scale covers; x3*x4 added to the image of
        # x3 is refused by the check through bracket
        ring = GENERATING_RINGS[ab]
        rng = random.Random(34)
        basis = [m for m in ring.basis_monomials(3) if any(m)]
        picked = {rng.choice([m for m in basis if m[2:4] == e]) for e in
                  ((1, 0), (0, 1), (1, 1))} | set(rng.sample(basis, 3))
        f = LaurentPoly(ring.context, {m: Fraction(rng.choice([-3, -1, 2, 5]),
                                                   rng.randint(1, 4))
                                       for m in picked})
        ham = hamiltonian_quotient_images(f, ring)
        assert bounded_inner_search(ham, ring, 3) == f
        images = dict(ham.images)
        images["x3"] = images["x3"] + ring.context.monomial({"x3": 1, "x4": 1})
        assert bounded_inner_search(DerivationSpec(ring.context, images),
                                    ring, 3) is None

    def test_set_is_found_on_first_use_once_per_process(self):
        # ring and algebra set-up run no Jacobi check; the first search
        # runs one, on the built-in table, and every ring reads it
        src = Path(__file__).resolve().parent.parent / "src"
        code = """if True:
            import os, sys
            calls = []

            def profile(frame, event, arg):
                if (event == "call" and frame.f_code.co_name == "check_jacobi"
                        and os.path.basename(frame.f_code.co_filename) == "poisson.py"):
                    calls.append(1)
            sys.setprofile(profile)
            from poisson_forge import cli, g2
            from poisson_forge.quotient import QuotientRing, bounded_centre
            alg = g2.builtin_algebra()
            rings = [QuotientRing(1, 1), QuotientRing(1, 0)]
            rings[0].normal_form("x3^4")
            before = len(calls)
            bounded_centre(alg.structure, 2)
            for ring in rings:
                bounded_centre(ring, 2)
            sys.setprofile(None)
            print(before, len(calls))
        """
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "1"]
