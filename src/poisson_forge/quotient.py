"""The normal-form quotient of the built-in algebra by its Casimir relations.

Setting Omega1 = alpha and Omega2 = beta turns the two Casimirs into
rewrite rules for x3^2 and x4^2 (solve each relation for its square term,
then reduce the x4 rule by the x3 rule).  Exhaustive rewriting terminates:
with (a, b) the x3/x4 exponents of a term, the x3 rule strictly lowers
a + b and raises b by at most one, while the x4 rule keeps a + b
non-increasing and strictly lowers b.  So (a + b, b) drops
lexicographically, and the weight 2a + 3b = 2(a + b) + b drops by at
least one.  With termination, local confluence gives, by Newman's lemma
(Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*), a result that
does not depend on the order of the rewrites, so ``QuotientRing._reduce``
may rewrite in falling weight, each monomial once.  Rewriting also
commutes with multiplying by a monomial u free of x3 and x4:
NF(u x3^a x4^b) = u NF(x3^a x4^b).  So each ring keeps a table of
NF(x3^a x4^b) for the weights 2a + 3b up to ``TABLE_WEIGHT`` (10, that of
x3^2 x4^2, the most a product of two normal forms reaches), at most 10
entries, each made on first use and dropped when the rules change, as in
the symbolic preprocessing of F4 (Faugère 1999).  An input up to that
weight adds each term's scaled entry into one integer accumulator.  A
heavier input is rewritten on packed keys (``poisson.ExponentPacking``),
the bucket path, which makes the entries too: each monomial a rule
applies to is packed into one integer, a rewrite adds the rule term's
packed shift to it and an integer multiple of the rule term's scaled
coefficient to its numerator, and each key left is unpacked once, from
its bytes.  The field width comes from the largest exponent the
reduction can reach (the largest |exponent| of the terms it rewrites
plus their highest weight times the rules' largest shift component), and
the rules on packed keys are kept on the ring per width.  The normal
forms are the unique representatives over the monomial basis

    x1^i x2^j x3^e1 x4^e2 x5^k x6^l,  e1, e2 in {0, 1},

with k, l ranging over Z in the localization at x5, x6 and over N
otherwise; coefficients are polynomials in the parameters alpha, beta
(or rationals once the parameters are specialised).

A numeric or symbolic ``QuotientRing`` and an ambient ``PoissonStructure``
serve one bracket protocol: ``context``, ``bracket(f, g)``,
``generator_brackets(f)`` (every {f, x_g} from one pass),
``basis_monomials(degree)``, ``bracket_rows(degree)``,
``centre_rows(degree)`` and ``generating_slots``.  ``bounded_centre``,
``bounded_inner_search`` and ``poisson.hamiltonian_derivation`` are
written against it, so each runs
unchanged on the ambient algebra (no reduction) and on the quotient
(brackets reduced to normal form).

``bracket_rows`` builds the rows of a Poisson generating set only,
``generating_slots``: x1 and x6 on the built-in table, as
{x1,x6} = -3x1x6 + 3x5 gives x5, {x1,x5} gives x3, {x1,x3} gives x2 and
{x3,x5} gives x4.  With Jacobi, {f, -} is a derivation of the bracket,
so {f, x1} = {f, x6} = 0 gives {f, x_k} = 0 for every generator they
reach; in the quotient too, as the Casimirs are central, so the ideal
I of the relations has {I, -} inside I.  So the rows of x1 and x6 have
the kernel of all the rows: the centre in degree <= d, and so one row
space, one RREF, one null-space basis and one pinned solution.  The
ring reads the set off the built-in algebra's structure, which holds
the same table, once per process and on first use.

``bracket_rows(degree)`` returns ``(monomials, rows, scale, key)``: the
matrix of f -> ({f, x_g} for g in ``generating_slots``) on the basis
monomials (exponent tuples; polynomials are built only for the results),
as integer rows keyed by opaque packed keys, from the one image kernel
``PoissonStructure.monomial_brackets``, which adds each image term
straight into its row.  A key
is one integer that holds a generator slot and an exponent vector
(``poisson.ExponentPacking``, its field width chosen per call from the
largest exponent the call can reach), so multiplying by a monomial is
one integer add; ``key(g, m)`` gives the key of slot g and exponent
tuple m.  Every row is its coefficients times one positive int
``scale``: the structure's common denominator, times on the quotient
the lcm of the denominators of the table entries the call reads.  On
the quotient each call reads every x3^a x4^b that its images hold from
the ring's table, packs the entry's shifts on the call's own keys, and
adds each image row through it into the rows it reaches.  The rows times
a nonzero constant have the same solutions, so the kernel is the same,
and the inner search multiplies its rhs by the scale.  The centre
loads the rows of ``centre_rows`` into ``LinearSystem.from_rows`` with
the columns it settled: on the ambient structure the columns that their
lead row forces to zero, whose images are never built (see
``PoissonStructure.centre_rows``), and on the quotient none, with every
row of ``bracket_rows``.  The inner search loads its rows
(``linalg.solve``) with the scaled rhs as one more column after the
unknowns, and both eliminate on integers: no Fraction is made from the
basis enumeration to the kernel until ``null_space`` or ``solve`` reads
out a vector; both searches check their answer through
``bracket`` on all six generators, and an inner-search answer that
fails only on generators other than x1 and x6 means that D is not inner
in that degree.
Derivations are
``DerivationSpec``s over the ring's context, checked by
``poisson.derivation_residues`` with each residue reduced modulo the
ideal.

A reduction that passes ``MAX_TERMS`` terms or ``MAX_REWRITES``
rewritten monomials raises ``WorkLimitError``, so hostile input ends in
bounded time as well as bounded memory; the table path is taken only
when the bucket path could pass neither limit, so the same inputs are
refused either way.  ``check_casimirs`` reads the
golden texts of ``g2.REWRITE_IDENTITIES`` through ``g2.golden_poly``,
which parses each once per process and context, as the chain reads its
formulas.

A ``QuotientElement`` is an element of the quotient, its polynomial in
normal form.  The product of two (``QuotientRing._product``) builds no
unreduced product: it multiplies their integer numerators, sends the
monomials a rule applies to through the ring's table, which a product of
two normal forms never outgrows, and makes one Fraction per output term;
other operands go through ``normal_form``.  The localisation tower
t1..t6 lives beside the chain
(``chain.chain_elements``), which reads the localised ring through
``context``, ``structure``, ``normal_form``, ``alpha_poly``,
``beta_poly`` and ``localized``; this module imports nothing of the
chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm
from operator import add, mul, sub
from typing import NamedTuple

from .expr import (ExprError, LaurentPoly, VarContext, WorkLimitError,
                   accumulate, integer_terms, rational)
from .g2 import REWRITE_IDENTITIES, builtin_algebra, golden_poly
from .linalg import LinearSystem, solve
from .parse import parse_expr
from .poisson import (DerivationSpec, ExponentPacking, PoissonStructure,
                      derivation_residues, exponents_up_to, field_width,
                      hamiltonian_derivation, jacobi_residues, drop_cancelled)
from .report import CheckItem, check_item

QUOTIENT_NAMES = ("x1", "x2", "x3", "x4", "x5", "x6")
# The most terms a normal form may hold while it is rewritten, checked
# once per weight bucket, and the highest weight 2a + 3b (a, b the x3, x4
# exponents) it may start from, checked before any bucket is made.
# `nf x3^40` peaks at 69421 terms (52965 out), the largest reduction of
# the benchmark at 5000; past the limit `nf "(x3*x4*x3*x4*x3*x4)^9"`
# stops after about 1.8 s (Python 3.11 on a 2-core Xeon) instead of
# filling memory.  The lowest weights past it, x3^50001 and x4^33334 with
# alpha = beta = 0, need more than MAX_TERMS terms too.
MAX_TERMS = 100_000
# The most monomials one normal form may rewrite, counted and checked once
# per weight bucket, before the bucket is rewritten: the weight bound
# keeps memory bounded but not time.  With alpha = beta = 0,
# `nf "x4^20000*x4^13333"` stays under MAX_TERMS terms for 1.9 million
# rewrites (about 15 s); the budget stops it after about 1.8 s (Python
# 3.11 on a 2-core Xeon).  `nf x3^40` rewrites 161137 monomials, and
# `nf "(x3*x4*x3*x4*x3*x4)^9"` passes MAX_TERMS terms after 209971.
MAX_REWRITES = 300_000
# The highest weight 2a + 3b whose NF(x3^a x4^b) a ring keeps in its table:
# that of x3^2 x4^2, the highest a product of two normal forms reaches.
TABLE_WEIGHT = 10
_AMBIENT_TO_QUOTIENT = {f"X{i}": f"x{i}" for i in range(1, 7)}


class _Entry(NamedTuple):
    """NF(x3^a x4^b) as integer numerators over ``den``, each with its
    exponent shift from x3^a x4^b, and the work the bucket path did for it
    (``QuotientRing._entry``)."""

    den: int
    terms: tuple[tuple[tuple[int, ...], int], ...]
    peak: int
    rewrites: int


def _parameter(value) -> Fraction | None:
    """'symbolic' -> None, otherwise an exact rational."""
    if value is None or value == "symbolic":
        return None
    return rational(value)


class QuotientRing:
    """The quotient with parameters alpha, beta each symbolic or rational."""

    def __init__(self, alpha="symbolic", beta="symbolic", localized: bool = False):
        self.alpha = _parameter(alpha)
        self.beta = _parameter(beta)
        self.localized = localized
        algebra = builtin_algebra()
        invertible = ("x5", "x6") if localized else ()
        self.context = VarContext.make(QUOTIENT_NAMES + ("alpha", "beta"),
                                       invertible=invertible,
                                       parameters=("alpha", "beta"))
        ctx = self.context
        self.alpha_poly = ctx.var("alpha") if self.alpha is None else ctx.scalar(self.alpha)
        self.beta_poly = ctx.var("beta") if self.beta is None else ctx.scalar(self.beta)
        # (context position, value) of each numeric parameter
        self._fixed = tuple((ctx.index(name), value)
                            for name, value in (("alpha", self.alpha),
                                                ("beta", self.beta))
                            if value is not None)
        table = {key: value.into(ctx, _AMBIENT_TO_QUOTIENT)
                 for key, value in algebra.structure.table.items()}
        self.structure = PoissonStructure(ctx, table)
        self._ambient = algebra.structure  # the same table, over X1..X6
        self.casimir1 = algebra.casimirs["Omega1"].into(ctx, _AMBIENT_TO_QUOTIENT)
        self.casimir2 = algebra.casimirs["Omega2"].into(ctx, _AMBIENT_TO_QUOTIENT)
        self._i3 = ctx.index("x3")
        self._i4 = ctx.index("x4")
        # x3^2 = 2 alpha - 2 Omega1 + x3^2  (the relation solved for x3^2)
        x3sq = ctx.monomial({"x3": 2})
        x4sq = ctx.monomial({"x4": 2})
        self.rewrite_x3 = 2 * self.alpha_poly - 2 * self.casimir1 + x3sq
        raw_x4 = (Fraction(2, 3) * self.beta_poly
                  - Fraction(2, 3) * self.casimir2 + x4sq)
        # the x4 rule is reduced by the x3 rule alone, x4^2 left as it is
        self._use_rules(self.rewrite_x3)
        self.rewrite_x4 = self._reduce(raw_x4)
        self._use_rules(self.rewrite_x3, self.rewrite_x4)

    # -- normal form ---------------------------------------------------------
    def _specialise(self, p: LaurentPoly) -> LaurentPoly:
        """p with each numeric parameter replaced by its value."""
        if p.context != self.context:
            p = p.into(self.context)
        fixed = self._fixed
        if not any(m[i] for m in p.terms for i, _ in fixed):
            return p
        terms: dict = {}
        for m, c in p.terms.items():
            for i, value in fixed:
                if m[i]:
                    c = c * value ** m[i]
                    m = m[:i] + (0,) + m[i + 1:]
            terms[m] = terms.get(m, 0) + c
        # zeroing parameter exponents keeps each monomial valid; a parameter
        # valued 0, or a sum that cancels, leaves a zero to drop
        return LaurentPoly._of(self.context, {m: c for m, c in terms.items() if c})

    def _use_rules(self, *rules: LaurentPoly) -> None:
        """Rewrite with the x3 rule and, if given, the x4 rule from now on.

        They are kept as R, the lcm of every denominator of the rules, and
        per rule a list of (exponent shift, integer) pairs, one per term
        c*m of the rule for x3^2 (x4^2): the shift is m / x3^2 (m / x4^2),
        and the integer is c * R^d, where d >= 1 is how far the term lowers
        the weight 2a + 3b.  ``_growth`` is the largest |component| of a
        shift, ``_longest`` the most terms of a rule, ``_packed`` caches
        the rules on packed keys per width, and ``_table`` the entries of
        ``_entry``, which hold for these rules only.
        """
        i3, i4 = self._i3, self._i4
        R = lcm(*(c.denominator for rule in rules for c in rule.terms.values()))
        scaled = []
        for pos, rule in zip((i3, i4), rules):
            pairs = []
            for m, c in rule.terms.items():
                shift = m[:pos] + (m[pos] - 2,) + m[pos + 1:]
                drop = -2 * shift[i3] - 3 * shift[i4]
                pairs.append((shift, int(c * R ** drop)))
            scaled.append(pairs)
        self._rules = (R, scaled[0], scaled[1] if len(scaled) > 1 else None)
        self._growth = max(abs(e) for pairs in scaled for shift, _ in pairs
                           for e in shift)
        self._longest = max(len(pairs) for pairs in scaled)
        self._packings: dict[int, tuple] = {}
        self._table: dict[tuple[int, int], _Entry] = {}

    def _packed(self, reach: int):
        """(packing, rules) for exponents up to ``reach``: an
        ``ExponentPacking`` and the rules on its keys, as R and per rule a
        tuple of (packed shift, integer, x3 shift, x4 shift), or None for
        an x4 rule not in use.  Built once per field width."""
        width = field_width(reach)
        entry = self._packings.get(width)
        if entry is None:
            packing = ExponentPacking(self.context, reach)
            R, *scaled = self._rules
            rules = (R, *(None if pairs is None else
                          tuple((packing.shift(shift), n, shift[self._i3],
                                 shift[self._i4]) for shift, n in pairs)
                          for pairs in scaled))
            entry = self._packings[width] = packing, rules
        return entry

    def _reduce(self, p: LaurentPoly) -> LaurentPoly:
        """The normal form of p under the rules in use.

        Terms that no rule applies to are copied as they are.  The others,
        the source, are rewritten, and the result is added to the copied
        terms, a sum that cancels being dropped.  Let ``top`` be the
        highest weight 2a + 3b of the source ((a, b) the x3, x4
        exponents).  Up to ``TABLE_WEIGHT`` the source, as integer
        numerators over its common denominator D, goes through the ring's
        table (``_through_table``, the loop ``_product`` shares), and each
        rewritten numerator over D * L becomes one Fraction.  Heavier
        sources keep the bucket path, ``_rewritten``, which shares the
        rewrites of a cascade across terms.

        The table path keeps the work limits of the bucket path exact: it
        is taken only when the bucket path could pass neither
        ``MAX_TERMS`` nor ``MAX_REWRITES``, that is when the sums over the
        source of its entries' ``peak`` and ``rewrites`` stay within them.
        Rewriting is linear and rewrites each monomial by a rule fixed by
        the monomial, so once every monomial above a weight is rewritten,
        the bucket path's term dict is the sum of those of the source
        terms reduced one by one, and holds at most the sum of their term
        counts.  A monomial it rewrites, with a nonzero coefficient, some
        source term on its own rewrites too; and a monomial joins a bucket
        once per source term or once per (rewrite, rule term) pair that
        brings it back, so the bucket entries number at most one per
        source term plus the longest rule's length per rewrite of the
        terms on their own.
        """
        i3, i4 = self._i3, self._i4
        low4 = inf if self._rules[2] is None else 2
        out = {}
        source = {}
        for m, c in p.terms.items():
            if m[i3] >= 2 or m[i4] >= low4:
                source[m] = c
            else:
                out[m] = c
        if not source:
            return p
        top = max(2 * m[i3] + 3 * m[i4] for m in source)
        if top > MAX_TERMS:  # before _rewrite makes top + 1 buckets
            raise WorkLimitError(f"normal form of weight {top} is over the"
                                 f" limit of {MAX_TERMS}")
        reduced = None
        if top <= TABLE_WEIGHT:
            D = lcm(*(c.denominator for c in source.values()))
            reduced = self._through_table({m: c.numerator * (D // c.denominator)
                                           for m, c in source.items()})
        if reduced is None:
            rewritten = self._rewritten(source, top)[0]
        else:
            acc, L = reduced
            rewritten = {m: Fraction(n, D * L) for m, n in acc.items() if n}
        accumulate(out, rewritten)  # a rewritten term may cancel a copied one
        # each target is m + m' - 2*e3 (or e4) with m[i3] >= 2 (m[i4] >= 2)
        # and m' a term of the rule
        return LaurentPoly._of(self.context, out)

    def _through_table(self, source: dict) -> tuple[dict, int] | None:
        """The normal form of ``source``, integer numerators on monomials
        of weight at most ``TABLE_WEIGHT`` that a rule applies to, from the
        ring's table, or None when the bucket path could pass a work limit
        (see ``_reduce``).  It is ``(acc, L)``: ``acc`` holds the normal
        form's numerators over L, the lcm of the entries' denominators,
        zero sums left in.  Rewriting commutes with multiplying by a
        monomial u free of x3 and x4, so NF(u x3^a x4^b) = u NF(x3^a x4^b),
        and each term adds its entry (``_entry``), shifted by u and times
        its numerator, into ``acc``.  This is the one table loop:
        ``_reduce`` and ``_product`` both reduce through it."""
        i3, i4 = self._i3, self._i4
        entries = [self._entry(m[i3], m[i4]) for m in source]
        if (sum(entry.peak for entry in entries) > MAX_TERMS
                or sum(entry.rewrites for entry in entries) > MAX_REWRITES):
            return None
        L = lcm(*(entry.den for entry in entries))
        acc: dict = {}
        get = acc.get
        for (m, n), (den, nf, _, _) in zip(source.items(), entries):
            f = n * (L // den)
            for shift, c in nf:
                mm = tuple(map(add, m, shift))
                acc[mm] = get(mm, 0) + f * c
        return acc, L

    def _product(self, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
        """NF(f g) for f and g in normal form, on integers throughout.

        Each operand's terms are integer numerators over its common
        denominator (``integer_terms``), and their pairwise products are
        summed in one integer dict over fden * gden.  The monomials with a
        nonzero sum that a rule applies to go through the ring's table
        (``_through_table``), the others are copied, and the result is one
        integer dict over fden * gden * L, with one Fraction per output
        term; no unreduced product is built.  A normal form holds x3 and x4
        at most once each, so a product of two reaches weight 2a + 3b at
        most 10, x3^2 x4^2, and never needs the bucket path.

        Operands over another context, a numeric parameter's exponent in
        an operand (which ``_specialise`` would remove), a product above
        ``TABLE_WEIGHT`` (from operands that are not normal forms), or one
        that the table path leaves to the bucket path for its work limits,
        go through ``normal_form(f * g)``: each returns or raises what the
        unfused product does.
        """
        ctx, fixed = self.context, self._fixed
        if (not (f.context is ctx is g.context or f.context == ctx == g.context)
                or fixed and any(m[i] for p in (f, g) for m in p.terms
                                 for i, _ in fixed)):
            return self.normal_form(f * g)
        fterms, fden = integer_terms(f)
        gterms, gden = integer_terms(g)
        acc: dict = {}
        get = acc.get
        for m1, a1 in fterms:
            for m2, a2 in gterms:
                m = tuple(map(add, m1, m2))
                acc[m] = get(m, 0) + a1 * a2
        i3, i4 = self._i3, self._i4
        low4 = inf if self._rules[2] is None else 2
        source = {m: n for m, n in acc.items()
                  if n and (m[i3] >= 2 or m[i4] >= low4)}
        den = fden * gden
        if source:
            if max(2 * m[i3] + 3 * m[i4] for m in source) > TABLE_WEIGHT:
                return self.normal_form(f * g)
            reduced = self._through_table(source)
            if reduced is None:
                return self.normal_form(f * g)
            rewritten, L = reduced
            acc = {m: n * L for m, n in acc.items() if m not in source}
            accumulate(acc, rewritten)  # a rewritten term may cancel a copied one
            den *= L
        # sums of valid exponent vectors, and table targets, are valid
        return LaurentPoly._of(ctx, {m: Fraction(n, den) for m, n in acc.items() if n})

    def _entry(self, a: int, b: int) -> _Entry:
        """NF(x3^a x4^b) under the rules in use, from the ring's table.

        Built on first use by the bucket path and kept when its weight
        2a + 3b is at most ``TABLE_WEIGHT``: at most 10 entries per rule
        set, ``_use_rules`` clearing them.  ``peak`` is the most terms the
        bucket path held at one of its checks, and ``rewrites`` bounds the
        bucket entries that x3^a x4^b brings into a joint reduction: one
        for itself and the longest rule's length per monomial it rewrote.
        The bound can be up to ``_longest`` (14) times the steps the bucket
        path counts: x3^2 x4^2 on (1,1) reads 281 against 20, so 1067
        far-apart copies of it take the table path and 1068 the bucket
        path, which is slower.
        """
        entry = self._table.get((a, b))
        if entry is not None:
            return entry
        m = [0] * self.context.rank
        m[self._i3], m[self._i4] = a, b
        m = tuple(m)
        w = 2 * a + 3 * b
        rewritten, peak, steps = self._rewritten({m: Fraction(1)}, w)
        den = lcm(*(c.denominator for c in rewritten.values()))
        entry = _Entry(den, tuple((tuple(map(sub, t, m)),
                                   c.numerator * (den // c.denominator))
                                  for t, c in rewritten.items()),
                       peak, 1 + steps * self._longest)
        if w <= TABLE_WEIGHT:
            self._table[a, b] = entry
        return entry

    def _rewritten(self, source: dict, top: int) -> tuple[dict, int, int]:
        """The bucket path: the normal form of ``source``, terms a rule
        applies to of weight at most ``top``, with the peak term count and
        the rewrite steps of ``_rewrite``.

        The source is rewritten on integers and packed keys.  Let D be the
        lcm of its denominators and R that of the rules.  Each term enters
        the term dict once, under its packed key: base plus the dot product
        of its exponents with the packing's units.  The dict holds, for
        each monomial of weight w, the integer numerator n of its
        coefficient n / (D * R^k), at the level k = top - w, and
        ``_rewrite`` keeps it so.  Each key left is unpacked once, from its
        bytes, with one Fraction per term.

        The packing holds every exponent the reduction meets: at most
        ``top`` rewrites lead to any monomial, as each lowers the weight,
        and each moves an exponent by at most ``_growth``.  So the width
        comes from the largest |exponent| of the source plus ``top`` times
        ``_growth``, the bound ``bracket_rows`` uses too.
        """
        i3, i4 = self._i3, self._i4
        R = self._rules[0]
        reach = max(max(map(max, source)), -min(map(min, source)))
        packing, rules = self._packed(reach + top * self._growth)
        D = lcm(*(c.denominator for c in source.values()))
        base, units = packing.base, packing.units
        terms = {base + sum(map(mul, m, units)):
                 c.numerator * (D // c.denominator)
                 * R ** (top - 2 * m[i3] - 3 * m[i4])
                 for m, c in source.items()}
        peak, steps = self._rewrite(terms, top, rules, packing)
        scale = [D]
        for _ in range(top):
            scale.append(scale[-1] * R)
        exponents = packing.exponents
        rewritten = {}
        for k, n in terms.items():
            m = exponents(k)
            rewritten[m] = Fraction(n, scale[top - 2 * m[i3] - 3 * m[i4]])
        return rewritten, peak, steps

    def _rewrite(self, terms: dict[int, int], top: int, rules,
                 packing: ExponentPacking) -> tuple[int, int]:
        """Rewrite to normal form, in place, a term dict on the keys of
        ``packing`` whose levels count down from ``top`` (see
        ``_rewritten``), with ``rules`` as ``_packed`` gives them for that
        packing, and return its peak term count and rewrite steps.  This
        is the one rewrite loop: the bucket path of ``_reduce`` and each
        entry of the table of NF(x3^a x4^b) that ``_reduce``, ``_product``
        and ``bracket_rows`` read come from it.

        Rewriting a monomial of weight w = 2a + 3b ((a, b) its x3, x4
        exponents) only adds to monomials of lower weight.  So the
        monomials are taken in falling weight, from one bucket per weight:
        when a bucket comes up, every monomial of higher weight has been
        rewritten, so nothing more can add to its monomials, and each is
        rewritten once, with its whole coefficient.  A monomial joins its
        bucket when it enters the term dict, with its (a, b): read from its
        key by shift and mask for the input, and for a rewrite target, its
        source's (a, b) plus the rule term's x3, x4 shift.  One that
        cancels to zero and comes back is in its bucket twice and is
        skipped the second time, being gone from the dict.  A rewrite adds
        the rule term's packed shift to the key: one integer add.  A rule
        term that lowers the weight by d >= 1 lands d levels down, so the
        rule carries it as the integer c * R^d and a rewrite adds n times
        that to the target's numerator, with no rescaling.  Past
        ``MAX_TERMS`` terms or ``MAX_REWRITES`` rewritten monomials (each
        entry of a bucket counts), both checked once per bucket, it raises
        ``WorkLimitError``.  The peak is the most terms one of these checks
        saw, and the steps are the bucket entries counted.
        """
        _, rule3, rule4 = rules
        low4 = inf if rule4 is None else 2
        bias, mask = packing.bias, (1 << packing.width) - 1
        off3, off4 = packing.offsets[self._i3], packing.offsets[self._i4]
        buckets: list[list] = [[] for _ in range(top + 1)]
        peak = steps = 0
        for k in terms:
            a = ((k >> off3) & mask) - bias
            b = ((k >> off4) & mask) - bias
            if a >= 2 or b >= low4:
                buckets[2 * a + 3 * b].append((k, a, b))
        get = terms.get
        for w in range(top, 3, -1):  # x3^2 has the least reducible weight, 4
            peak = max(peak, len(terms))
            if peak > MAX_TERMS:
                raise WorkLimitError(f"normal form needs more than {MAX_TERMS}"
                                     " terms")
            steps += len(buckets[w])
            if steps > MAX_REWRITES:
                raise WorkLimitError(f"normal form needs more than {MAX_REWRITES}"
                                     " rewrite steps")
            for k, a, b in buckets[w]:
                n = terms.pop(k, None)
                if n is None:
                    continue
                for shift, rc, da, db in (rule3 if a >= 2 else rule4):
                    kk = k + shift
                    s = get(kk)
                    if s is None:
                        terms[kk] = n * rc
                        aa, bb = a + da, b + db
                        if aa >= 2 or bb >= low4:
                            buckets[2 * aa + 3 * bb].append((kk, aa, bb))
                    else:
                        s += n * rc
                        if s:
                            terms[kk] = s
                        else:
                            del terms[kk]
        return peak, steps

    def normal_form(self, p: LaurentPoly | str) -> LaurentPoly:
        if isinstance(p, str):
            p = parse_expr(p, self.context, aliases=_AMBIENT_TO_QUOTIENT)
        return self._reduce(self._specialise(p))

    def element(self, p) -> "QuotientElement":
        return QuotientElement(self, self.normal_form(p))

    def bracket(self, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
        """Bracket in the ambient (localised) ring, then reduction."""
        return self.normal_form(self.structure.bracket(self._specialise(f),
                                                       self._specialise(g)))

    def generator_brackets(self, f: LaurentPoly) -> list[LaurentPoly]:
        """[{f, x_g} for each generator g], as ``bracket`` makes each one."""
        return [self.normal_form(image) for image
                in self.structure.generator_brackets(self._specialise(f))]

    # -- basis enumeration ----------------------------------------------------
    def basis_monomials(self, degree: int) -> list[tuple[int, ...]]:
        """Exponent vectors over the context of the quotient basis
        monomials with total x-degree <= degree."""
        return [(i, j, e1, e2, k, l, 0, 0)
                for e1, e2 in itertools.product((0, 1), repeat=2)
                for i, j, k, l in exponents_up_to(4, degree - e1 - e2)]

    @property
    def generating_slots(self) -> tuple[int, ...]:
        """``PoissonStructure.generating_slots`` of the built-in algebra,
        whose table this ring's structure holds; it is found once per
        process, on first use, and holds for the quotient too, as the
        Casimirs are central."""
        return self._ambient.generating_slots

    def bracket_rows(self, degree: int):
        """``PoissonStructure.bracket_rows`` over the quotient basis, each
        bracket reduced to normal form.

        Rewriting commutes with multiplying by a monomial u free of x3 and
        x4, so NF(u * x3^a x4^b) = u * NF(x3^a x4^b).  The structure's
        ``monomial_brackets`` gives the unreduced rows, one per image key;
        each (a, b) met among those keys is read once per call from the
        ring's table (``_entry``), as in the symbolic preprocessing of F4
        (Faugère 1999): its shifts packed on the call's keys and its
        numerators put over L, the lcm of the entries' denominators, and
        the image row is added through it into every row it reaches.  A
        row whose monomial no rule applies to is its own normal form,
        times L / L.  So every row holds integers at the one scale
        den * L, den the structure's denominator; entries that cancel, and
        rows left empty, are dropped.

        The packing holds every exponent the call reaches: image exponents
        are at most degree + s, s the bracket table's shift reach; a basis
        monomial holds x3 and x4 at most once, so image weights are at most
        5 (1 + s); and an entry of weight w moves an exponent by at most
        w * ``_growth``, as at most w rewrites lead to any of its terms.
        """
        i3, i4 = self._i3, self._i4
        structure = self.structure
        monomials = self.basis_monomials(degree)
        s = structure._shift_reach
        packing = ExponentPacking(self.context, max(degree, 0) + s
                                  + 5 * (1 + s) * self._growth)
        images = structure.monomial_brackets(monomials, packing,
                                             self.generating_slots)
        # x4 follows x3 in the context, so one mask reads both exponents
        low, mask = packing.offsets[i3], (1 << 2 * packing.width) - 1
        entries = {}
        for code in {(mm >> low) & mask for mm in images}:
            a = packing.exponent(code << low, i3)
            b = packing.exponent(code << low, i4)
            entries[code] = self._entry(a, b) if a >= 2 or b >= 2 else None
        L = lcm(*(entry.den for entry in entries.values() if entry))
        # per (a, b): NF(x3^a x4^b) as (packed shift from x3^a x4^b,
        # numerator over L)
        reduced = {code: tuple((packing.shift(t), n * (L // entry.den))
                               for t, n in entry.terms)
                   for code, entry in entries.items() if entry}
        # a row no rule applies to is its own normal form, times L; the
        # rows of the other keys are added into the rows their entries reach
        rows: dict[int, dict[int, int]] = {}
        rewritten = []
        for mm, image in images.items():
            if (mm >> low) & mask in reduced:
                rewritten.append(mm)
            else:
                rows[mm] = image if L == 1 else {idx: n * L for idx, n in image.items()}
        cancelled = []
        for mm in rewritten:
            image = images[mm]
            for shift, c in reduced[(mm >> low) & mask]:
                k = mm + shift
                row = rows.get(k)
                if row is None:
                    rows[k] = {idx: n * c for idx, n in image.items()}
                else:
                    for idx, n in image.items():
                        v = row.get(idx, 0) + n * c
                        row[idx] = v
                        if not v:
                            cancelled.append(k)
        drop_cancelled(rows, cancelled)
        return monomials, rows, structure._den * L, packing.key

    def centre_rows(self, degree: int):
        """``PoissonStructure.centre_rows`` on the quotient: the monomials
        and rows of ``bracket_rows``, with no column settled.  A column's
        top image term may need rewriting, and a table entry can raise
        its packed key (NF(x4^2) has the shift (0,1,0,-1,0,1)), so its
        lead is not known before its reduced image is."""
        monomials, rows, *_ = self.bracket_rows(degree)
        return monomials, rows, ()


@dataclass(frozen=True)
class QuotientElement:
    """An element of a QuotientRing, ``poly`` in normal form."""

    ring: QuotientRing
    poly: LaurentPoly

    def _lift(self, other) -> "QuotientElement":
        if isinstance(other, QuotientElement):
            return other
        if isinstance(other, LaurentPoly):
            return self.ring.element(other)
        return QuotientElement(self.ring, self.ring.context.scalar(other))

    def __add__(self, other):
        # a sum of normal forms is one
        return QuotientElement(self.ring, self.poly + self._lift(other).poly)

    def __neg__(self):
        return QuotientElement(self.ring, -self.poly)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a scalar multiple of a normal form is one
            return QuotientElement(self.ring, self.poly * other)
        return QuotientElement(self.ring,
                               self.ring._product(self.poly, self._lift(other).poly))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n; n < 0 needs an invertible monomial."""
        return QuotientElement(self.ring, self.ring.normal_form(self.poly ** n))

    def bracket(self, other) -> "QuotientElement":
        return QuotientElement(self.ring, self.ring.bracket(self.poly, self._lift(other).poly))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __str__(self):
        return str(self.poly)


def check_casimirs(ring: QuotientRing) -> list[CheckItem]:
    """normal_form(Omega1) = alpha, normal_form(Omega2) = beta, and the
    four rewrite identities reduce to zero."""
    items = [
        check_item("normal_form(Omega1) = alpha",
                   ring.normal_form(ring.casimir1) - ring.normal_form(ring.alpha_poly)),
        check_item("normal_form(Omega2) = beta",
                   ring.normal_form(ring.casimir2) - ring.normal_form(ring.beta_poly)),
    ]
    for name, rhs in REWRITE_IDENTITIES.items():
        residue = ring.normal_form(golden_poly(name, ring.context)
                                   - golden_poly(rhs, ring.context))
        items.append(check_item(f"identity {name} reduces to 0", residue))
    return items


def quotient_jacobi_items(ring: QuotientRing) -> list[CheckItem]:
    """Jacobiator of every generator triple, reduced modulo the ideal."""
    names = ring.context.names
    return [check_item(f"jacobi ({names[i]},{names[j]},{names[k]}) mod ideal",
                       ring.normal_form(residue))
            for (i, j, k), residue in jacobi_residues(ring.structure)]


# -- derivations --------------------------------------------------------------

def parse_derivation(images: dict[str, str], ring: QuotientRing) -> DerivationSpec:
    """The derivation with the given image texts, one per generator;
    ambient names X1..X6 stand for x1..x6, in the keys as in the texts."""
    return DerivationSpec(ring.context, {
        _AMBIENT_TO_QUOTIENT.get(name, name):
            parse_expr(text, ring.context, aliases=_AMBIENT_TO_QUOTIENT)
        for name, text in images.items()})


def check_quotient_derivation(D: DerivationSpec,
                              ring: QuotientRing) -> list[CheckItem]:
    """Well-definedness on both Casimir relations plus bracket
    compatibility on all 15 generator pairs, modulo the ideal."""
    names = ring.context.names
    items = [
        check_item("D preserves the Omega1 relation",
                   ring.normal_form(D.apply(ring.casimir1))),
        check_item("D preserves the Omega2 relation",
                   ring.normal_form(D.apply(ring.casimir2))),
    ]
    for (i, j), residue in derivation_residues(D, ring.structure):
        items.append(check_item(f"D compatible with {{{names[i]},{names[j]}}}",
                                ring.normal_form(residue)))
    return items


def hamiltonian_quotient_images(f, ring: QuotientRing) -> DerivationSpec:
    return hamiltonian_derivation(ring.normal_form(f), ring)


def bounded_inner_search(D: DerivationSpec, ring: QuotientRing,
                         degree: int = 4) -> LaurentPoly | None:
    """Exact solve for x with {x, x_i} = D(x_i) over basis monomials of
    total degree <= degree; constant term pinned to zero.  Returns the
    canonical solution or None when the system is infeasible.

    The equations are those of the generators of ``ring.generating_slots``
    only, x1 and x6 (see ``bounded_centre``).  Each is the row of
    ``ring.bracket_rows`` with its rhs times the rows' one scale, which
    leaves the solutions as they are.  An rhs monomial that no row
    reaches makes the system infeasible.  Two solutions of these
    equations differ by an element whose brackets with x1 and x6 vanish,
    a central one, so all of them have one Hamiltonian; when the system
    of all six generators is feasible, both systems have the same
    solutions and so the same unique RREF and canonical solution.  The
    solution is checked through ``bracket`` on all six generators: a
    mismatch on x1 or x6 is an internal error, and one only on another
    generator means that D is not Hamiltonian in this degree (None).
    """
    if ring.alpha is None or ring.beta is None:
        raise ExprError("the inner search needs numeric parameters")
    slots = ring.generating_slots
    monomials, rows, scale, key = ring.bracket_rows(degree)
    images = {name: ring.normal_form(D.images[name]) for name in QUOTIENT_NAMES}
    rhs = {key(g, m): c for g in slots
           for m, c in images[QUOTIENT_NAMES[g]].terms.items()}
    if not rhs.keys() <= rows.keys():
        return None
    rhs = {k: c * scale for k, c in rhs.items()}
    solution = solve(((row, rhs.get(k, 0)) for k, row in rows.items()),
                     len(monomials))
    if solution is None:
        return None
    x = _combine(ring.context, solution, monomials)
    mismatched = {g for g, name in enumerate(QUOTIENT_NAMES)
                  if ring.bracket(x, ring.context.var(name)) != images[name]}
    if not mismatched.isdisjoint(slots):
        raise RuntimeError("bracket_rows disagrees with bracket:"
                           " ham_x differs from D")
    return None if mismatched else x


def bounded_centre(structure_or_ring, degree: int) -> list[LaurentPoly]:
    """Exact kernel basis of f -> ({f, x_1}, ..., {f, x_n}) in degree <= d.

    Accepts either an ambient PoissonStructure (polynomial ring, no
    reduction) or a numeric QuotientRing (brackets reduced to normal form).
    The system is the one of ``bracket_rows`` for the generators of
    ``generating_slots`` only (x1 and x6 on the built-in table), each row
    scaled by a nonzero constant, which leaves the kernel as it is: an f
    whose brackets with a Poisson generating set vanish is central.  The
    kernel, and with it the unique RREF of the rows and the null-space
    basis, is the one of all the rows.  It is read through
    ``centre_rows``: on the ambient structure the columns that their lead
    row forces to zero come settled, with their images never built, and
    ``LinearSystem.from_rows`` takes them as settled; on the quotient all
    of the rows come.  Every basis element is checked to be central
    through ``bracket`` on every generator.
    """
    ctx = structure_or_ring.context
    monomials, rows, settled = structure_or_ring.centre_rows(degree)
    system = LinearSystem.from_rows(rows.values(), settled)
    basis = [_combine(ctx, vec, monomials)
             for vec in system.null_space(len(monomials))]
    for f in basis:
        if any(not structure_or_ring.bracket(f, ctx.var(ctx.names[i])).is_zero()
               for i in ctx.generators()):
            raise RuntimeError("bracket_rows disagrees with bracket:"
                               f" {f} is not central")
    return basis


def _combine(ctx: VarContext, vec: list[Fraction],
             monomials: list[tuple]) -> LaurentPoly:
    """sum_idx vec[idx] * x^monomials[idx], the monomials distinct."""
    # vec holds Fractions, and basis monomials are valid; a kernel vector
    # is mostly zeros, and reading the numerator slot of each costs a
    # quarter of calling Fraction.__bool__
    return LaurentPoly._of(ctx, {m: c for c, m in zip(vec, monomials)
                                 if c._numerator})


def spans_same_space(basis: list[LaurentPoly], expected: list[LaurentPoly]) -> bool:
    """Whether both lists span one space: their unique reduced row
    echelon forms over one shared column order agree."""
    columns: dict[tuple, int] = {}

    def pivots(polys):
        return LinearSystem.from_rows(
            {columns.setdefault(m, len(columns)): c for m, c in p.terms.items()}
            for p in polys).rows
    return pivots(basis) == pivots(expected)
