"""Sparse Laurent polynomials over Q with named variable contexts.

The coefficient field is Q, realised by ``fractions.Fraction`` (always in
lowest terms with a positive denominator, so arithmetic is exact).  A
polynomial is a dict mapping exponent tuples to nonzero coefficients:

    {(1, 0, 1, 0, 1, 0): Fraction(1), (0, 0, 2, 0, 0, 0): Fraction(1, 2)}

over a context (X1, ..., X6) reads as X1*X3*X5 + 1/2*X3^2.  Negative
exponents are allowed exactly at positions the context marks invertible.
Parameter variables (central scalars such as alpha, beta) are ordinary
variables that are never invertible and carry no bracket.

All values are immutable after construction; equality of two polynomials
is equality of their term dicts over equal contexts.

``LaurentPoly(context, terms)`` is the one checked constructor: it makes
each coefficient a ``Fraction``, drops zeros, and checks each monomial's
length and that it is negative only where the context allows.  Whatever
enters from outside is built through it: the ``VarContext`` builders
(``monomial``, ``scalar``, ``var``, and through them the parser),
``into``, and every caller that assembles a term dict of its own.  The
arithmetic builds its results unchecked, through the private
``LaurentPoly._of``, because they are valid by construction: a sum or a
negation keeps its operands' monomials and drops zero sums, a product's
monomial is the sum of two valid ones, a partial derivative lowers only
a nonzero exponent, and ``divide_exact`` checks each quotient monomial
itself.  ``PoissonStructure.bracket``, ``generator_brackets`` and
``QuotientRing._reduce`` build theirs the same way, each with its reason
at the call.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add, itemgetter
from typing import Iterable, Mapping

Rational = Fraction

#: Exponent vector indexed by context position.  Negative entries are only
#: valid at positions the context marks invertible.
Monomial = tuple[int, ...]

_ONE = Fraction(1)


class ExprError(ValueError):
    """Base error for expression-level failures."""


def rational(value) -> Fraction:
    """The exact rational of a number or of "p/q" text from outside input;
    ExprError on anything else, a zero denominator included.

    Exponent text ("1e300000") is refused before it is converted: its
    integer can be any size, so converting it is unbounded work.  JSON
    true and false, which load as bool, are refused too.  As in the
    parser, only the ASCII digits 0-9 make a number."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, bool):
        raise ExprError(f"expected a rational, got {value!r}")
    text = str(value)
    if "e" in text or "E" in text:
        raise ExprError(f"expected a rational without an exponent, got {text!r}")
    try:
        # Fraction also reads other scripts' digits and "_" separators
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ExprError(f"expected a rational, got {value!r}") from None


#: Most term-pair products one parse, one algebra file (all its entries
#: together) or one command-line bracket may make: about 2 s at 7 us
#: (parse) or 13 us (bracket) a pair, as measured with Python 3.11 on a
#: 2-core Xeon.
MAX_PRODUCTS = 150_000


class WorkLimitError(ExprError):
    """An input needs more work than a fixed limit allows."""


#: Most expression characters one parse, one algebra file (all its
#: entries together) or one command-line bracket may hold, checked before
#: the text is tokenised: over 100 times the longest expression that the
#: suites, the tests and the benchmark parse (692 characters).  A sum of
#: that many characters of products x1*x2 parses in about 0.7 s, as
#: measured with Python 3.11 on a 2-core Xeon.
MAX_INPUT_CHARS = 100_000


class ProductBudget:
    """Term-pair products and expression characters spent so far against
    ``MAX_PRODUCTS`` and ``MAX_INPUT_CHARS``; several parses that share one
    budget are charged together."""

    __slots__ = ("spent", "chars")

    def __init__(self):
        self.spent = 0
        self.chars = 0

    def read(self, text: str) -> None:
        """Add the characters of one expression text, checked."""
        self.chars += len(text)
        if self.chars > MAX_INPUT_CHARS:
            raise WorkLimitError(
                f"input is longer than {MAX_INPUT_CHARS} characters")

    def charge(self, f: "LaurentPoly", g: "LaurentPoly", walks=1) -> None:
        """Add the |f|*|g| term pairs of f*g or {f, g}, ``walks`` each, checked."""
        self.spent += len(f.terms) * len(g.terms) * walks
        if self.spent > MAX_PRODUCTS:
            raise WorkLimitError(
                f"input needs more than {MAX_PRODUCTS} term-pair products")


class ContextMismatch(ExprError):
    """Two operands live over different variable contexts."""


class InvertibilityError(ExprError):
    """A negative exponent appeared on a non-invertible variable."""


@dataclass(frozen=True)
class VarContext:
    """An ordered tuple of variable names with invertibility/parameter masks."""

    names: tuple[str, ...]
    invertible: tuple[bool, ...]
    parameters: tuple[bool, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not (len(self.names) == len(self.invertible) == len(self.parameters)):
            raise ExprError("context masks must match the number of names")
        if len(set(self.names)) != len(self.names):
            raise ExprError("variable names must be unique")
        for name in self.names:
            # the grammar's identifiers: a letter, then letters or digits
            if not (name[:1].isalpha() and name.isalnum()):
                raise ExprError(f"variable name {name!r} is not an identifier")
        for name, inv, par in zip(self.names, self.invertible, self.parameters):
            if par and inv:
                raise ExprError(f"parameter variable {name!r} cannot be invertible")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})

    @staticmethod
    def make(names: Iterable[str], invertible: Iterable[str] = (),
             parameters: Iterable[str] = ()) -> "VarContext":
        names = tuple(names)
        inv, par = set(invertible), set(parameters)
        unknown = (inv | par) - set(names)
        if unknown:
            raise ExprError(f"mask names not in context: {sorted(unknown)}")
        return VarContext(names,
                          tuple(n in inv for n in names),
                          tuple(n in par for n in names))

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ExprError(f"unknown variable {name!r}") from None

    def generators(self) -> list[int]:
        """Indices of the non-parameter variables."""
        return [i for i, p in enumerate(self.parameters) if not p]

    def check_monomial(self, exps: Monomial) -> None:
        if len(exps) != self.rank:
            raise ExprError("exponent vector has wrong length")
        for e, inv, name in zip(exps, self.invertible, self.names):
            if e < 0 and not inv:
                raise InvertibilityError(
                    f"negative exponent on non-invertible variable {name!r}")

    # -- element constructors ------------------------------------------
    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        return self.scalar(1)

    def scalar(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return LaurentPoly(self, {(0,) * self.rank: c})

    def var(self, name: str) -> "LaurentPoly":
        i = self.index(name)
        # an exponent of +1 is valid on every variable
        return LaurentPoly._of(self, {(0,) * i + (1,) + (0,) * (self.rank - i - 1): _ONE})

    def monomial(self, powers: Mapping[str, int], coeff=1) -> "LaurentPoly":
        exps = [0] * self.rank
        for name, e in powers.items():
            exps[self.index(name)] = e
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        return LaurentPoly(self, {tuple(exps): coeff})


def _term_key(exps: Monomial):
    # Ascending "positive degree", then descending lex: this makes
    # X2 + 3/2*X4*X6^-1 - 3*X3*X5*X6^-1 + X5^3*X6^-2 print in that order.
    return (sum(e for e in exps if e > 0), tuple(-e for e in exps))


class LaurentPoly:
    """Immutable sparse Laurent polynomial over a fixed :class:`VarContext`."""

    __slots__ = ("context", "terms")

    def __init__(self, context: VarContext, terms: Mapping[Monomial, Fraction]):
        clean: dict[Monomial, Fraction] = {}
        for exps, c in terms.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c == 0:
                continue
            context.check_monomial(exps)
            clean[exps] = c
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, context: VarContext, terms: dict[Monomial, Fraction]) -> "LaurentPoly":
        """A polynomial on ``terms`` as given, unchecked and not copied: the
        caller vouches that every coefficient is a nonzero ``Fraction`` and
        every monomial valid for ``context``, and gives up the dict."""
        p = object.__new__(cls)
        object.__setattr__(p, "context", context)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- basic queries --------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: Monomial) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """The terms in ``_term_key`` order: descending lex first, then a
        stable sort by ascending positive degree."""
        terms = sorted(self.terms.items(), key=itemgetter(0), reverse=True)
        terms.sort(key=lambda kv: sum(e for e in kv[0] if e > 0))
        return terms

    # -- ring operations -------------------------------------------------
    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.context != self.context:
                raise ContextMismatch("operands live over different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.scalar(other)
        return NotImplemented

    def _plus(self, other, negate: bool):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        accumulate(terms, other.terms, negate)
        # the operands' monomials; accumulate drops zero sums
        return LaurentPoly._of(self.context, terms)

    def __add__(self, other):
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self):
        # the same monomials; -c of a nonzero Fraction is one
        return LaurentPoly._of(self.context, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product on integers: each operand's terms as numerators over
        its common denominator (``integer_terms``), one ``Fraction`` per
        output term.  An int or ``Fraction`` scales each coefficient, and
        so does a one-term operand, which also shifts each monomial."""
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.context.zero()
            # the same monomials; a nonzero scalar times a nonzero Fraction
            # is a nonzero Fraction
            return LaurentPoly._of(self.context,
                                   {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        one, many = (self, other) if len(self.terms) == 1 else (other, self)
        if len(one.terms) == 1:
            (m1, c1), = one.terms.items()
            # m -> m + m1 is one to one, so no two terms meet; the sum of
            # two valid exponent vectors is valid, and c * c1 != 0
            return LaurentPoly._of(self.context,
                                   {tuple(map(add, m, m1)): c * c1
                                    for m, c in many.terms.items()})
        fterms, fden = integer_terms(self)
        gterms, gden = integer_terms(other)
        acc: dict[Monomial, int] = {}
        get = acc.get
        for m1, a1 in fterms:
            for m2, a2 in gterms:
                m = tuple(map(add, m1, m2))
                acc[m] = get(m, 0) + a1 * a2
        den = fden * gden
        # a sum of two valid exponent vectors is valid; zero sums are dropped
        return LaurentPoly._of(self.context,
                               {m: Fraction(n, den) for m, n in acc.items() if n})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            # InvertibilityError unless self is an invertible monomial
            return self.monomial_inverse() ** -n
        if n == 0:
            return self.context.one()
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            # n > 0 keeps the sign of each exponent; c^n of a nonzero
            # Fraction is one
            return LaurentPoly._of(self.context, {tuple(e * n for e in m): c ** n})
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def monomial_inverse(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial, mask permitting."""
        if len(self.terms) != 1:
            raise InvertibilityError("only monomials can be inverted")
        (m, c), = self.terms.items()
        inv = tuple(-e for e in m)
        self.context.check_monomial(inv)
        return LaurentPoly(self.context, {inv: 1 / c})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.scalar(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    # -- calculus ---------------------------------------------------------
    def partial(self, name: str) -> "LaurentPoly":
        """Formal partial derivative (valid for negative exponents)."""
        i = self.context.index(name)
        # m -> m - e_i is one to one, so no two terms meet; e - 1 is negative
        # only where e already was, and c * e != 0 for e != 0
        return LaurentPoly._of(self.context,
                               {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                                for m, c in self.terms.items() if m[i]})

    def into(self, context: VarContext,
             rename: Mapping[str, str] | None = None) -> "LaurentPoly":
        """p over ``context``, each of its variables moved to its namesake
        there or to ``rename[name]`` (ExprError if there is none)."""
        moves = [(i, context.index((rename or {}).get(name, name)))
                 for i, name in enumerate(self.context.names)
                 if any(m[i] for m in self.terms)]
        terms = {}
        for m, c in self.terms.items():
            exps = [0] * context.rank
            for i, j in moves:
                exps[j] = m[i]
            terms[tuple(exps)] = c
        return LaurentPoly(context, terms)

    # -- printing ----------------------------------------------------------
    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)})"


def accumulate(terms: dict[Monomial, Fraction], other: Mapping[Monomial, Fraction],
               negate: bool = False) -> None:
    """Add ``other`` (minus ``other`` if ``negate``) into ``terms`` in place,
    dropping the monomials whose sum is zero: one dict update per term."""
    get = terms.get
    for m, c in other.items():
        if negate:
            c = -c
        old = get(m)
        if old is None:
            terms[m] = c
        else:
            s = old + c
            if s:
                terms[m] = s
            else:
                del terms[m]


def integer_terms(p: LaurentPoly) -> tuple[list[tuple[Monomial, int]], int]:
    """The terms of p as integer numerators over their common denominator."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return [(m, c.numerator * (den // c.denominator)) for m, c in p.terms.items()], den


def _coefficient_text(c: Fraction) -> str:
    try:
        return str(c)
    except ValueError:  # Python's int-to-str digit limit
        raise ExprError(
            "coefficient too large to print: over"
            f" {sys.get_int_max_str_digits()} digits, Python's limit for"
            " integer string conversion") from None


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form; parse(format(p)) == p for every p."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for m, c in p.sorted_terms():
        factors = []
        for name, e in zip(p.context.names, m):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_coefficient_text(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def divide_exact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly | None:
    """Return f/g when g divides f exactly, else None.

    Works on the Laurent lattice by shifting both operands into ordinary
    polynomials first; the quotient is recovered with the inverse shift.
    Each operand is shifted at each invertible position by its least
    exponent there, so no invertible variable divides either shifted
    polynomial, and g divides f in the Laurent ring exactly when the
    shifted g divides the shifted f.  Other positions are not shifted.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    ctx = f.context
    if g.context != ctx:
        raise ContextMismatch("operands live over different contexts")
    n = ctx.rank

    invertible = [i for i in range(n) if ctx.invertible[i]]

    def min_exps(p):
        mins = [0] * n
        for i in invertible:
            mins[i] = min(m[i] for m in p.terms)
        return mins

    fshift = min_exps(f)
    gshift = min_exps(g)
    fterms = {tuple(e - s for e, s in zip(m, fshift)): c for m, c in f.terms.items()}
    gterms = {tuple(e - s for e, s in zip(m, gshift)): c for m, c in g.terms.items()}

    glead = max(gterms, key=_term_key)
    gc = gterms[glead]
    quot: dict[Monomial, Fraction] = {}
    rem = dict(fterms)
    # The leading term of rem comes off a min-heap of (-positive degree,
    # m): the same order as _term_key on these non-negative exponents.  An
    # entry whose monomial has left rem is skipped when it surfaces.
    heap = [(-sum(m), m) for m in rem]
    heapq.heapify(heap)
    while heap:
        flead = heapq.heappop(heap)[1]
        if flead not in rem:
            continue
        qm = tuple(a - b for a, b in zip(flead, glead))
        if any(e < 0 for e in qm):
            return None
        qc = rem[flead] / gc
        quot[qm] = qc
        for m, c in gterms.items():
            mm = tuple(a + b for a, b in zip(m, qm))
            old = rem.get(mm)
            s = (old or 0) - qc * c
            if s:
                rem[mm] = s
                if old is None:
                    heapq.heappush(heap, (-sum(mm), mm))
            elif old is not None:
                del rem[mm]
    shift = tuple(fs - gs for fs, gs in zip(fshift, gshift))
    out = {}
    for m, c in quot.items():
        mm = tuple(a + b for a, b in zip(m, shift))
        ctx.check_monomial(mm)
        out[mm] = c
    # each monomial checked above; each coefficient a quotient of nonzero
    # Fractions
    return LaurentPoly._of(ctx, out)
