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
may rewrite in falling weight, each monomial once.  The normal forms are
the unique representatives over the monomial basis

    x1^i x2^j x3^e1 x4^e2 x5^k x6^l,  e1, e2 in {0, 1},

with k, l ranging over Z in the localization at x5, x6 and over N
otherwise; coefficients are polynomials in the parameters alpha, beta
(or rationals once the parameters are specialised).

A numeric or symbolic ``QuotientRing`` and an ambient ``PoissonStructure``
serve one bracket protocol: ``context``, ``bracket(f, g)``,
``basis_monomials(degree)`` and ``bracket_rows(degree)``.
``bounded_centre``, ``bounded_inner_search`` and
``poisson.hamiltonian_derivation`` are written against it, so each runs
unchanged on the ambient algebra (no reduction) and on the quotient
(brackets reduced to normal form).  ``bracket_rows(degree)`` returns
``(monomials, rows, scale, key)``: the matrix of
f -> ({f, x_1}, ..., {f, x_n}) on the basis monomials, built in one
integer pass per monomial, as rows keyed by opaque packed keys.  A key
is one integer that holds a generator slot and an exponent vector
(``poisson.ExponentPacking``, its field width chosen per call from the
largest exponent the call can reach), so multiplying by a monomial is
one integer add; ``key(g, m)`` gives the key of slot g and exponent
tuple m.  Each row is its coefficients times its own nonzero
``scale(key)``: the structure's common denominator on the ambient rows,
times a power of the rules' denominator set by the weight on the
quotient rows.  On the quotient, rewriting commutes with multiplying by
a monomial u free of x3 and x4, so NF(u * x3^a x4^b) = u * NF(x3^a x4^b):
each call reduces every x3^a x4^b that its images hold once, with the
integer loop of ``normal_form``, into a table that lives for the call,
and adds each image term into its rows through it.  A row times a
nonzero constant has the same solutions, so the kernel is the same, and
the inner search multiplies each rhs entry by its row's scale.  Both
searches check their answer through ``bracket``.  Derivations are
``DerivationSpec``s over the ring's context, checked by
``poisson.derivation_residues`` with each residue reduced modulo the
ideal.

Everything with a t3 or t4 denominator is handled in cleared-denominator
form: the quotient is a domain, so ``num / t3^a t4^b`` comparisons reduce
to exact normal-form identities of cross-multiplied numerators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, lcm
from operator import add, sub

from .expr import ExprError, LaurentPoly, VarContext, WorkLimitError, rational
from .g2 import REWRITE_IDENTITIES, builtin_algebra
from .linalg import LinearSystem, solve
from .parse import parse_expr
from .poisson import (DerivationSpec, ExponentPacking, PoissonStructure,
                      derivation_residues, exponents_up_to,
                      hamiltonian_derivation, jacobi_residues)
from .report import CheckItem, check_item

QUOTIENT_NAMES = ("x1", "x2", "x3", "x4", "x5", "x6")
# The most terms a normal form may hold while it is rewritten, checked
# once per weight bucket.  `nf x3^40` peaks at 69421 terms (52965 out),
# the largest reduction of the benchmark at 5000; past the limit
# `nf "(x3*x4*x3*x4*x3*x4)^9"` stops after about 2.5 s instead of
# filling memory.
MAX_TERMS = 100_000
_AMBIENT_TO_QUOTIENT = {f"X{i}": f"x{i}" for i in range(1, 7)}


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
        self.rewrite_x4 = self._reduce(raw_x4, use_x4=False)
        self._integer_rules = self._scaled_rules(self.rewrite_x3, self.rewrite_x4)

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
        return LaurentPoly(self.context, terms)

    def _scaled_rules(self, *rules: LaurentPoly):
        """(R, the x3 rule[, the x4 rule]) in the integer form ``_reduce`` uses.

        R is the lcm of every denominator of the given rules.  Each rule is
        a list of (exponent shift, integer) pairs, one per term c*m of the
        rule for x3^2 (x4^2): the shift is m / x3^2 (m / x4^2), and the
        integer is c * R^d, where d >= 1 is how far the term lowers the
        weight 2a + 3b.
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
        return (R, *scaled)

    def _reduce(self, p: LaurentPoly, use_x4: bool = True) -> LaurentPoly:
        """The normal form of p, rewritten with the x3 rule and (unless
        ``use_x4`` is false, as when the x4 rule itself is built) the x4 rule.

        The arithmetic is on integers.  Let D be the lcm of the
        denominators of p, R that of the rules in use (cached in __init__), and
        ``top`` the highest weight in p.  The term dict holds, for each
        monomial of weight w, the integer numerator n of its coefficient
        n / (D * R^k), at the level k = top - w, and ``_rewrite`` keeps it
        so.  One Fraction is built per output term.
        """
        i3, i4 = self._i3, self._i4
        low4 = 2 if use_x4 else inf
        if not any(m[i3] >= 2 or m[i4] >= low4 for m in p.terms):
            return p
        rules = (self._integer_rules if use_x4 else
                 (*self._scaled_rules(self.rewrite_x3), None))
        R = rules[0]
        top = max(2 * m[i3] + 3 * m[i4] for m in p.terms)
        D = lcm(*(c.denominator for c in p.terms.values()))
        terms = {m: c.numerator * (D // c.denominator)
                    * R ** (top - 2 * m[i3] - 3 * m[i4])
                 for m, c in p.terms.items()}
        self._rewrite(terms, top, rules)
        return LaurentPoly(self.context, {
            m: Fraction(n, D * R ** (top - 2 * m[i3] - 3 * m[i4]))
            for m, n in terms.items()})

    def _rewrite(self, terms: dict[tuple, int], top: int, rules) -> None:
        """Rewrite to normal form, in place, an integer term dict whose
        levels count down from ``top`` (see ``_reduce``), with ``rules`` as
        ``_scaled_rules`` gives them (no x4 rule: x4^2 is left alone).

        Rewriting a monomial of weight w = 2a + 3b ((a, b) its x3, x4
        exponents) only adds to monomials of lower weight.  So the
        monomials are taken in falling weight, from one bucket per weight:
        when a bucket comes up, every monomial of higher weight has been
        rewritten, so nothing more can add to its monomials, and each is
        rewritten once, with its whole coefficient.  A monomial joins its
        bucket when it enters the term dict; one that cancels to zero and
        comes back is in its bucket twice and is skipped the second time,
        being gone from the dict.  A rule term that lowers the weight by
        d >= 1 lands d levels down, so the rule carries it as the integer
        c * R^d and a rewrite adds n times that to the target's numerator,
        with no rescaling.  Past ``MAX_TERMS`` terms, checked once per
        bucket, it raises ``WorkLimitError``.
        """
        i3, i4 = self._i3, self._i4
        _, rule3, rule4 = rules
        low4 = inf if rule4 is None else 2
        buckets: list[list] = [[] for _ in range(top + 1)]
        for m in terms:
            if m[i3] >= 2 or m[i4] >= low4:
                buckets[2 * m[i3] + 3 * m[i4]].append(m)
        get = terms.get
        for w in range(top, 3, -1):  # x3^2 has the least reducible weight, 4
            if len(terms) > MAX_TERMS:
                raise WorkLimitError(f"normal form needs more than {MAX_TERMS}"
                                     " terms")
            for m in buckets[w]:
                n = terms.pop(m, None)
                if n is None:
                    continue
                for shift, rc in (rule3 if m[i3] >= 2 else rule4):
                    mm = tuple(map(add, m, shift))
                    s = get(mm)
                    if s is None:
                        terms[mm] = n * rc
                        if mm[i3] >= 2 or mm[i4] >= low4:
                            buckets[2 * mm[i3] + 3 * mm[i4]].append(mm)
                    else:
                        s += n * rc
                        if s:
                            terms[mm] = s
                        else:
                            del terms[mm]

    def normal_form(self, p: LaurentPoly | str) -> LaurentPoly:
        if isinstance(p, str):
            p = parse_expr(p, self.context, aliases=_AMBIENT_TO_QUOTIENT)
        for m in p.terms:
            for i in (0, 1, 2, 3):
                if m[i] < 0:
                    raise ExprError("negative exponent on x1..x4 has no"
                                    " normal form")
        return self._reduce(self._specialise(p))

    def element(self, p) -> "QuotientElement":
        return QuotientElement(self, self.normal_form(p))

    def bracket(self, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
        """Bracket in the ambient (localised) ring, then reduction."""
        return self.normal_form(self.structure.bracket(self._specialise(f),
                                                       self._specialise(g)))

    # -- basis enumeration ----------------------------------------------------
    def basis_monomials(self, degree: int):
        """Monomials of the quotient basis with total x-degree <= degree."""
        for e1, e2 in itertools.product((0, 1), repeat=2):
            for i, j, k, l in exponents_up_to(4, degree - e1 - e2):
                yield self.context.monomial(
                    {"x1": i, "x2": j, "x3": e1, "x4": e2, "x5": k, "x6": l})

    def bracket_rows(self, degree: int):
        """``PoissonStructure.bracket_rows`` over the quotient basis, each
        bracket reduced to normal form.

        The images are reduced at one ``top`` for the whole call, the
        highest weight among them, so the row of (g, m'') holds integers at
        the one scale den * R^(top - w(m'')), den the structure's
        denominator and R the rules'.  Rewriting commutes with multiplying
        by a monomial u free of x3 and x4, so NF(u * x3^a x4^b) =
        u * NF(x3^a x4^b), and the levels compose: an image term at level
        top - w times a term t of NF(x3^a x4^b) at level w - w(t) lands at
        level top - w(t).  So each (a, b) met among the image terms is
        reduced once per call by ``_rewrite``, as in the symbolic
        preprocessing of F4 (Faugère 1999), and every image term is added
        into its row through that table, on packed keys.  The table lives
        for the call only.

        The packing holds every exponent the call reaches: image exponents
        are at most r = degree + the table's shift reach, so image weights,
        and ``top``, are at most 5r, and at most ``top`` rewrites move an
        exponent by at most the rules' largest shift component each.
        """
        i3, i4 = self._i3, self._i4
        structure = self.structure
        rules = self._integer_rules
        monomials = list(self.basis_monomials(degree))
        reach = max(degree, 0) + structure._shift_reach
        growth = max(abs(e) for rule in rules[1:] for shift, _ in rule for e in shift)
        packing = ExponentPacking(self.context, reach + 5 * reach * growth)
        images = structure.monomial_brackets(
            (m for mono in monomials for m in mono.terms), packing)
        # x4 follows x3 in the context, so one mask reads both exponents
        low, mask = packing.offsets[i3], (1 << 2 * packing.width) - 1
        pairs = {code: (packing.exponent(code << low, i3),
                        packing.exponent(code << low, i4))
                 for code in {(mm >> low) & mask for image in images for mm in image}}
        top = max((2 * a + 3 * b for a, b in pairs.values()), default=0)
        power = [rules[0] ** k for k in range(top + 1)]
        # per (a, b): the level factor of an image term and NF(x3^a x4^b)
        # as (packed shift from x3^a x4^b, numerator)
        reduced = {}
        for code, (a, b) in pairs.items():
            w = 2 * a + 3 * b
            nf = ((0, 1),)
            if a >= 2 or b >= 2:
                e, = self.context.monomial({"x3": a, "x4": b}).terms
                terms = {e: 1}
                self._rewrite(terms, w, rules)
                nf = tuple((packing.shift(map(sub, t, e)), n) for t, n in terms.items())
            reduced[code] = power[top - w], nf
        rows: dict[int, dict[int, int]] = {}
        for idx, image in enumerate(images):
            acc: dict[int, int] = {}
            for mm, n in image.items():
                if n:
                    factor, nf = reduced[(mm >> low) & mask]
                    n *= factor
                    for shift, c in nf:
                        k = mm + shift
                        acc[k] = acc.get(k, 0) + n * c
            for k, n in acc.items():
                if n:
                    rows.setdefault(k, {})[idx] = n
        den = structure._den

        def scale(key):
            a, b = packing.exponent(key, i3), packing.exponent(key, i4)
            return den * power[top - 2 * a - 3 * b]
        return monomials, rows, scale, packing.key

    # -- the chain denominators -------------------------------------------
    @cached_property
    def t3(self) -> LaurentPoly:
        return parse_expr("x3 - 3/2*x4*x5^-1", self.context)

    @cached_property
    def t4(self) -> LaurentPoly:
        return parse_expr("x4 - 2/3*x5^3*x6^-1", self.context)


@dataclass(frozen=True)
class QuotientElement:
    """A quotient element held in normal form."""

    ring: QuotientRing
    poly: LaurentPoly

    def __add__(self, other):
        return QuotientElement(self.ring, self.poly + self._lift(other))

    def __sub__(self, other):
        return QuotientElement(self.ring, self.poly - self._lift(other))

    def __mul__(self, other):
        return QuotientElement(self.ring,
                               self.ring.normal_form(self.poly * self._lift(other)))

    def _lift(self, other) -> LaurentPoly:
        if isinstance(other, QuotientElement):
            return other.poly
        if isinstance(other, LaurentPoly):
            return self.ring.normal_form(other)
        return self.ring.context.scalar(other)

    def bracket(self, other) -> "QuotientElement":
        return QuotientElement(self.ring,
                               self.ring.bracket(self.poly, self._lift(other)))

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
    for name, (lhs, rhs) in REWRITE_IDENTITIES.items():
        residue = ring.normal_form(parse_expr(lhs, ring.context)
                                   - parse_expr(rhs, ring.context))
        items.append(check_item(f"identity {name} reduces to 0", residue))
    return items


def quotient_jacobi_items(ring: QuotientRing) -> list[CheckItem]:
    """Jacobiator of every generator triple, reduced modulo the ideal."""
    names = ring.context.names
    return [check_item(f"jacobi ({names[i]},{names[j]},{names[k]}) mod ideal",
                       ring.normal_form(residue))
            for (i, j, k), residue in jacobi_residues(ring.structure)]


# -- the localisation tower -------------------------------------------------

@dataclass(frozen=True)
class LocalizedFraction:
    """num / (t3^a * t4^b) over a localised QuotientRing, num in normal form."""

    ring: QuotientRing
    num: LaurentPoly
    a: int
    b: int

    @staticmethod
    def of(ring: QuotientRing, poly, a: int = 0, b: int = 0) -> "LocalizedFraction":
        return LocalizedFraction(ring, ring.normal_form(poly), a, b)

    def _scale(self, a: int, b: int) -> LaurentPoly:
        num = self.num
        for _ in range(a - self.a):
            num = num * self.ring.t3
        for _ in range(b - self.b):
            num = num * self.ring.t4
        return self.ring.normal_form(num)

    def __add__(self, other):
        a, b = max(self.a, other.a), max(self.b, other.b)
        return LocalizedFraction(
            self.ring,
            self.ring.normal_form(self._scale(a, b) + other._scale(a, b)), a, b)

    def __neg__(self):
        return LocalizedFraction(self.ring, -self.num, self.a, self.b)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LocalizedFraction):
            return LocalizedFraction(
                self.ring, self.ring.normal_form(self.num * other.num),
                self.a + other.a, self.b + other.b)
        return LocalizedFraction(self.ring,
                                 self.ring.normal_form(self.num * other),
                                 self.a, self.b)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __str__(self):
        if self.a == 0 and self.b == 0:
            return str(self.num)
        return f"({self.num}) / (t3^{self.a} * t4^{self.b})"


def chain_elements(ring: QuotientRing) -> dict[str, LocalizedFraction]:
    """The images of the chain elements in the localised quotient."""
    if not ring.localized:
        raise ExprError("chain elements need the localisation at x5, x6")
    ctx = ring.context
    el = lambda text: LocalizedFraction.of(ring, parse_expr(text, ctx))
    t3_poly, t4_poly = ring.t3, ring.t4
    x16 = el("x1 - 1/2*x5*x6^-1")
    x26 = el("x2 + 3/2*x4*x6^-1 - 3*x3*x5*x6^-1 + x5^3*x6^-2")
    x36 = el("x3 - x5^2*x6^-1")
    t4 = LocalizedFraction.of(ring, t4_poly)
    t3 = LocalizedFraction.of(ring, t3_poly)
    t5 = el("x5")
    t6 = el("x6")
    inv_x5 = ctx.monomial({"x5": -1})
    z1 = x16 - x36 * inv_x5 + Fraction(3, 4) * t4 * ctx.monomial({"x5": -2})
    z2 = (x26 - 3 * x36 * x36 * inv_x5
          + Fraction(9, 2) * x36 * t4 * ctx.monomial({"x5": -2})
          - Fraction(9, 4) * t4 * t4 * ctx.monomial({"x5": -3}))
    f1 = LocalizedFraction(ring, ring.normal_form(z1.num * t4_poly
                                                  - Fraction(1, 3) * t3_poly ** 2), 0, 1)
    t2 = LocalizedFraction(ring, ring.normal_form(z2.num * t4_poly
                                                  - Fraction(2, 3) * t3_poly ** 3), 0, 1)
    t1 = LocalizedFraction(ring, ring.normal_form(f1.num * t3_poly
                                                  - Fraction(1, 2) * t2.num), 1, 1)
    return {"x16": x16, "x26": x26, "x36": x36, "t1": t1, "t2": t2, "t3": t3,
            "t4": t4, "t5": t5, "t6": t6, "z1": z1, "z2": z2, "f1": f1}


def verify_localized_identities(ring: QuotientRing) -> list[CheckItem]:
    """The localisation-tower identities in cleared-denominator form."""
    e = chain_elements(ring)
    ctx = ring.context
    alpha = LocalizedFraction.of(ring, ring.alpha_poly)
    beta = LocalizedFraction.of(ring, ring.beta_poly)
    x = {name: LocalizedFraction.of(ring, ctx.var(name)) for name in QUOTIENT_NAMES}
    inv = lambda name, power=1: ctx.monomial({name: -power})

    items = []

    def check(label, lhs, rhs):
        items.append(check_item(label, (lhs - rhs).num))

    check("t5 = x5", e["t5"], x["x5"])
    check("relation z2*t5 = 2*(z1*t3*t5 - alpha)",
          e["z2"] * x["x5"], 2 * (e["z1"] * e["t3"] * x["x5"] - alpha))
    check("relation t3^3*t5*t6 = 3*z1*t3*t4*t5*t6 - 3/2*beta*t5"
          " - 3*alpha*t4*t6",
          e["t3"] * e["t3"] * e["t3"] * x["x5"] * x["x6"],
          3 * e["z1"] * e["t3"] * e["t4"] * x["x5"] * x["x6"]
          - Fraction(3, 2) * beta * x["x5"] - 3 * alpha * e["t4"] * x["x6"])
    check("t1*t3*t5 = alpha", e["t1"] * e["t3"] * e["t5"], alpha)
    check("t2*t4*t6 = beta", e["t2"] * e["t4"] * e["t6"], beta)
    check("f1 = t1 + 1/2*t2*t3^-1",
          e["f1"] * e["t3"], e["t1"] * e["t3"] + Fraction(1, 2) * e["t2"])
    check("x(3,6) = t3 + 3/2*t4*t5^-1",
          e["x36"], e["t3"] + Fraction(3, 2) * e["t4"] * inv("x5"))
    check("z1 = f1 + 1/3*t3^2*t4^-1",
          e["z1"] * e["t4"], e["f1"] * e["t4"] + Fraction(1, 3) * e["t3"] * e["t3"])
    check("x1 = x(1,6) + 1/2*t5*t6^-1",
          x["x1"], e["x16"] + Fraction(1, 2) * LocalizedFraction.of(
              ring, ctx.monomial({"x5": 1, "x6": -1})))
    check("z2 = t2 + 2/3*t3^3*t4^-1",
          e["z2"] * e["t4"],
          e["t2"] * e["t4"] + Fraction(2, 3) * e["t3"] * e["t3"] * e["t3"])
    check("x3 = x(3,6) + t5^2*t6^-1",
          x["x3"], e["x36"] + LocalizedFraction.of(ring, ctx.monomial({"x5": 2, "x6": -1})))
    check("x(1,6) = z1 + x(3,6)*t5^-1 - 3/4*t4*t5^-2",
          e["x16"], e["z1"] + e["x36"] * inv("x5")
          - Fraction(3, 4) * e["t4"] * inv("x5", 2))
    check("x4 = t4 + 2/3*t5^3*t6^-1",
          x["x4"], e["t4"] + Fraction(2, 3) * LocalizedFraction.of(
              ring, ctx.monomial({"x5": 3, "x6": -1})))
    return items


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

    Each equation is the row of ``ring.bracket_rows`` with its rhs times
    the row's scale, which leaves the solutions as they are.  An rhs
    monomial that no row reaches makes the system infeasible.
    """
    if ring.alpha is None or ring.beta is None:
        raise ExprError("the inner search needs numeric parameters")
    monomials, rows, scale, key = ring.bracket_rows(degree)
    images = {name: ring.normal_form(D.images[name]) for name in QUOTIENT_NAMES}
    rhs = {key(gi, m): c for gi, name in enumerate(QUOTIENT_NAMES)
           for m, c in images[name].terms.items()}
    if not rhs.keys() <= rows.keys():
        return None
    solution = solve(((row, rhs.get(key, 0) * scale(key))
                      for key, row in rows.items()), len(monomials))
    if solution is None:
        return None
    x = _combine(ring.context, solution, monomials)
    if hamiltonian_derivation(x, ring).images != images:
        raise RuntimeError("bracket_rows disagrees with bracket:"
                           " ham_x differs from D")
    return x


def bounded_centre(structure_or_ring, degree: int) -> list[LaurentPoly]:
    """Exact kernel basis of f -> ({f, x_1}, ..., {f, x_n}) in degree <= d.

    Accepts either an ambient PoissonStructure (polynomial ring, no
    reduction) or a numeric QuotientRing (brackets reduced to normal form).
    The rows come from ``bracket_rows``, each scaled by a nonzero constant,
    which leaves the kernel as it is; every basis element is checked to be
    central through ``bracket``.
    """
    monomials, rows, *_ = structure_or_ring.bracket_rows(degree)
    system = LinearSystem.from_rows(rows.values())
    basis = [_combine(structure_or_ring.context, vec, monomials)
             for vec in system.null_space(len(monomials))]
    for f in basis:
        ham = hamiltonian_derivation(f, structure_or_ring)
        if not all(image.is_zero() for image in ham.images.values()):
            raise RuntimeError("bracket_rows disagrees with bracket:"
                               f" {f} is not central")
    return basis


def _combine(ctx: VarContext, vec: list[Fraction],
             monomials: list[LaurentPoly]) -> LaurentPoly:
    """sum_idx vec[idx] * monomials[idx], accumulated in one term dict."""
    terms: dict[tuple, Fraction] = {}
    for c, mono in zip(vec, monomials):
        if c:
            for m, mc in mono.terms.items():
                terms[m] = terms.get(m, 0) + c * mc
    return LaurentPoly(ctx, terms)


def spans_same_space(basis: list[LaurentPoly], expected: list[LaurentPoly]) -> bool:
    """Whether both lists span one space: their unique reduced row
    echelon forms over one shared column order agree."""
    columns: dict[tuple, int] = {}

    def pivots(polys):
        return LinearSystem.from_rows(
            {columns.setdefault(m, len(columns)): c for m, c in p.terms.items()}
            for p in polys).pivots
    return pivots(basis) == pivots(expected)
