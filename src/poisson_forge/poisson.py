"""Poisson structures on (Laurent) polynomial contexts.

A structure is an antisymmetric table of generator brackets {x_i, x_j}
(i < j) extended to arbitrary elements through the bi-derivation formula

    {f, g} = sum_{i,j} {x_i, x_j} * df/dx_i * dg/dx_j.

On a pair of terms, with e1, e2 the exponent vectors of the monomials m1,
m2 and b_ij = {x_i, x_j}, this reads

    {c1*m1, c2*m2} = c1*c2 * sum_{i<j} (e1_i*e2_j - e1_j*e2_i) * b_ij
                     * m1*m2 / (x_i*x_j),

which is what ``PoissonStructure.bracket`` evaluates: one pass over term
pairs into a single term dict, exact for negative exponents as well.
With g a generator x_g the formula needs only the table entries b_vg:

    {x^m, x_g} = sum_v m_v * x^m * b_vg / x_v,

so ``generator_brackets(f)`` gives {f, x_g} for every g from one pass
over the terms of f, and ``bracket_rows`` the same for basis monomials.

Jacobi and Poisson-derivation checking run on generators only: the
Jacobiator of a biderivation-extended bracket is a tri-derivation, and the
defect of the derivation identity is a bi-derivation, so vanishing on
generators is vanishing everywhere.  Parameter variables have zero bracket
with everything by construction (they never enter the table).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import add, mul, sub
from typing import Mapping

from .expr import (ContextMismatch, ExprError, LaurentPoly, Monomial,
                   VarContext, integer_terms)

#: Most delta powers looked at before a delta counts as not locally nilpotent.
MAX_DELTA_POWERS = 16


class EtaError(ExprError):
    """The eta scalar of a Poisson-Ore index is undefined or inconsistent."""


@dataclass(frozen=True)
class PoissonStructure:
    """Bracket table {x_i, x_j} for i < j over the non-parameter generators."""

    context: VarContext
    table: dict[tuple[int, int], LaurentPoly]
    # (i, j, [(exponent shift, numerator)]) per nonzero entry: the terms of
    # b_ij / (x_i*x_j) with integer numerators over the common denominator
    # ``_den`` of the table, so the bracket loop runs on ints.
    _entries: tuple = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = set(self.context.generators())
        for (i, j), value in self.table.items():
            if i not in gens or j not in gens or not i < j:
                raise ExprError(f"bad table key {(i, j)}: need generator pair i < j")
            if value.context != self.context:
                raise ContextMismatch("table entry over wrong context")
        den = lcm(*(c.denominator for value in self.table.values()
                    for c in value.terms.values()))
        entries = []
        for (i, j), value in self.table.items():
            if value.is_zero():
                continue
            shifted = []
            for m, c in value.terms.items():
                shift = list(m)
                shift[i] -= 1
                shift[j] -= 1
                shifted.append((tuple(shift), c.numerator * (den // c.denominator)))
            entries.append((i, j, shifted))
        object.__setattr__(self, "_entries", tuple(entries))
        object.__setattr__(self, "_den", den)

    def entry(self, i: int, j: int) -> LaurentPoly:
        """{x_i, x_j} with antisymmetry filled in; zero when absent."""
        if i == j:
            return self.context.zero()
        if i < j:
            return self.table.get((i, j), self.context.zero())
        return -self.table.get((j, i), self.context.zero())

    def gen(self, i: int) -> LaurentPoly:
        return self.context.var(self.context.names[i])

    def basis_monomials(self, degree: int):
        """Exponent vectors over the context of the monomials in the
        generators of total degree <= degree."""
        ctx = self.context
        gens = ctx.generators()
        for exps in exponents_up_to(len(gens), degree):
            if len(gens) == ctx.rank:
                yield exps
            else:
                m = [0] * ctx.rank
                for i, e in zip(gens, exps):
                    m[i] = e
                yield tuple(m)

    @cached_property
    def _shift_reach(self) -> int:
        """A bound on the |components| of the exponent shifts of
        ``_by_variable``: those of the entries' shifts, plus one."""
        return max((abs(e) for _, _, shifted in self._entries
                    for shift, _ in shifted for e in shift), default=0) + 1

    @cached_property
    def _by_position(self) -> tuple:
        """Per context position v, one (generator slot g, exponent shift,
        numerator) per term of b_vg / x_v over ``_den``: the entry
        b_ij / (x_i*x_j) times x_j for v = i, and times -x_i for v = j."""
        rank = self.context.rank
        slot = {pos: g for g, pos in enumerate(self.context.generators())}
        unit = [tuple(int(v == pos) for v in range(rank)) for pos in range(rank)]
        table = [[] for _ in range(rank)]
        for i, j, shifted in self._entries:
            for shift, n in shifted:
                table[i].append((slot[j], tuple(map(add, shift, unit[j])), n))
                table[j].append((slot[i], tuple(map(add, shift, unit[i])), -n))
        return tuple(map(tuple, table))

    def _by_variable(self, packing: ExponentPacking) -> tuple:
        """``_by_position`` with each shift packed, the slot in its low bits."""
        return tuple(tuple((packing.shift(shift) + g, n) for g, shift, n in terms)
                     for terms in self._by_position)

    def monomial_brackets(self, monomials,
                          packing: ExponentPacking) -> list[dict[int, int]]:
        """For each exponent vector m, {x^m, x_g} = sum_v m_v * x^m * b_vg / x_v
        for every generator slot g at once, as {row key: integer numerator
        over ``_den``}, the row key ``packing.key(g, m'')`` of each image
        monomial m''; an entry may be zero where terms cancel.  Each image
        term is one integer add to the packed key of m."""
        table = self._by_variable(packing)
        out = []
        for m in monomials:
            key = packing.key(0, m)
            image: dict[int, int] = {}
            for k, terms in zip(m, table):
                if k:
                    for shift, n in terms:
                        mm = key + shift
                        image[mm] = image.get(mm, 0) + k * n
            out.append(image)
        return out

    def bracket_rows(self, degree: int):
        """The basis monomials of degree <= d, the matrix of
        f -> ({f, x_1}, ..., {f, x_n}) on their span as integer rows
        row key -> {monomial index: numerator}, the scale of a row (its
        entries over ``scale(key)`` are the coefficients) and ``key(g, m)``,
        the row key of generator slot g and exponent vector m.  Here every
        row has the one scale ``_den``."""
        monomials = list(self.basis_monomials(degree))
        packing = ExponentPacking(self.context, max(degree, 0) + self._shift_reach)
        rows: dict[int, dict[int, int]] = {}
        images = self.monomial_brackets(monomials, packing)
        for idx, image in enumerate(images):
            for mm, n in image.items():
                if n:
                    rows.setdefault(mm, {})[idx] = n
        den = self._den
        return monomials, rows, lambda key: den, packing.key

    def generator_brackets(self, f: LaurentPoly) -> list[LaurentPoly]:
        """[{f, x_g} for each generator slot g], from one pass over the
        terms of f: each term a*x^m adds k*a*n*x^(m + shift) to slot g for
        each term (g, shift, n) of ``_by_position`` at a position v with
        k = m_v != 0."""
        if f.context != self.context:
            raise ContextMismatch("bracket operand over wrong context")
        fterms, fden = integer_terms(f)
        table = self._by_position
        accs = [{} for _ in self.context.generators()]
        for m, a in fterms:
            for k, terms in zip(m, table):
                if k:
                    ak = a * k
                    for g, shift, n in terms:
                        mm = tuple(map(add, m, shift))
                        acc = accs[g]
                        acc[mm] = acc.get(mm, 0) + ak * n
        den = fden * self._den
        # m + shift is x^m * b_vg / x_v with m_v != 0, valid as in bracket
        return [LaurentPoly._of(self.context,
                                {m: Fraction(n, den) for m, n in acc.items() if n})
                for acc in accs]

    def bracket(self, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
        if f.context != self.context or g.context != self.context:
            raise ContextMismatch("bracket operands over wrong context")
        fterms, fden = integer_terms(f)
        gterms, gden = integer_terms(g)
        acc: dict[tuple[int, ...], int] = {}
        for m1, a1 in fterms:
            for m2, a2 in gterms:
                base = None
                for i, j, shifted in self._entries:
                    k = m1[i] * m2[j] - m1[j] * m2[i]
                    if not k:
                        continue
                    if base is None:
                        base = tuple(map(add, m1, m2))
                        a12 = a1 * a2
                    ak = a12 * k
                    for shift, b in shifted:
                        m = tuple(map(add, base, shift))
                        acc[m] = acc.get(m, 0) + ak * b
        den = fden * gden * self._den
        # k != 0 forces m1 + m2 >= 1 at i and j (where the exponents are not
        # negative), so the entry's shift by -e_i - e_j stays valid
        return LaurentPoly._of(self.context,
                               {m: Fraction(n, den) for m, n in acc.items() if n})


class ExponentPacking:
    """A generator slot and an exponent vector over one context as one
    integer: the row keys of ``bracket_rows`` and the monomials of
    ``QuotientRing._rewrite`` (Monagan-Pearce, *Polynomial division using
    dynamic arrays, heaps, and packed exponent vectors*, CASC 2007).

    The slot takes the low bits; above it each context position v takes a
    field of ``width`` bits holding e_v + bias, bias = 2^(width - 1).  The
    width is chosen from ``reach``, the largest |exponent| the caller can
    meet (``field_width``): the least of 8, 16, 32, 64, 128, ... bits
    whose range [-bias, bias) holds every such exponent, negative ones
    below the bias.  Packing is then linear: the key of m is ``base`` plus
    the dot product of m with ``units``, and the key of m plus the
    ``shift`` of s is the key of m + s, one integer add, as long as m + s
    stays in range, which ``reach`` promises.  Whole bytes per field let
    ``exponents`` read every field of a key at once from its bytes.
    """

    def __init__(self, context: VarContext, reach: int):
        self.width = width = field_width(reach)
        self.bias = bias = 1 << (width - 1)
        self.low = low = (len(context.generators()) - 1).bit_length()
        self.offsets = tuple(low + v * width for v in range(context.rank))
        self.units = tuple(1 << offset for offset in self.offsets)
        self.base = bias * sum(self.units)
        self._size = width // 8 * context.rank
        self._format = {16: "H", 32: "I", 64: "Q"}.get(width)
        self._biases = (bias,) * context.rank

    def shift(self, s) -> int:
        """The packed form of an exponent shift s (no bias, no slot)."""
        return sum(map(mul, s, self.units))

    def key(self, g: int, m: Monomial) -> int | None:
        """The key of generator slot g and exponent vector m; None when m
        is out of range, as no key of the packing holds it."""
        bias = self.bias
        if not all(-bias <= e < bias for e in m):
            return None
        return self.base + self.shift(m) + g

    def exponent(self, key: int, v: int) -> int:
        """The exponent of context position v in a packed key."""
        return ((key >> self.offsets[v]) & ((1 << self.width) - 1)) - self.bias

    def exponents(self, key: int) -> Monomial:
        """The exponent vector of a packed key, its slot dropped: the bytes
        of the fields read as unsigned integers of ``width`` bits at once,
        less the bias."""
        fields = (key >> self.low).to_bytes(self._size, sys.byteorder)
        if self.width > 8:
            fields = self._read(fields)
        return tuple(map(sub, fields, self._biases))

    def _read(self, data: bytes):
        """The fields of ``data``, each wider than a byte, as integers."""
        if self._format:
            return memoryview(data).cast(self._format)
        step = self.width // 8  # no machine type holds a field
        return [int.from_bytes(data[i:i + step], sys.byteorder)
                for i in range(0, self._size, step)]


def field_width(reach: int) -> int:
    """The field width of an ``ExponentPacking`` for exponents of absolute
    value at most ``reach``: 8 bits times the least power of two whose
    range holds them."""
    width = 8
    while reach >= 1 << (width - 1):
        width *= 2
    return width


def exponents_up_to(n: int, degree: int):
    """Exponent vectors in N^n (n >= 1) of total degree <= degree, in
    lexicographic order."""
    for e in range(degree + 1):
        if n == 1:
            yield (e,)
        else:
            for rest in exponents_up_to(n - 1, degree - e):
                yield (e,) + rest


@dataclass(frozen=True)
class DerivationSpec:
    """A derivation given by its images on the context generators."""

    context: VarContext
    images: dict[str, LaurentPoly]

    def __post_init__(self):
        gens = {self.context.names[i] for i in self.context.generators()}
        missing = gens - set(self.images)
        if missing:
            raise ExprError(f"derivation misses generators {sorted(missing)}")
        for name, img in self.images.items():
            if name not in gens:
                raise ExprError(f"image given for non-generator {name!r}")
            if img.context != self.context:
                raise ContextMismatch("derivation image over wrong context")

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        """Leibniz extension: D(f) = sum_v D(v) * df/dv."""
        return apply_images(self.images, f)

    @staticmethod
    def zero(context: VarContext) -> "DerivationSpec":
        names = [context.names[i] for i in context.generators()]
        return DerivationSpec(context, {n: context.zero() for n in names})


def apply_images(images: Mapping[str, LaurentPoly], f: LaurentPoly) -> LaurentPoly:
    """Leibniz extension of a partial image table (absent names act as 0)."""
    result = f.context.zero()
    for name, img in images.items():
        if img.is_zero():
            continue
        d = f.partial(name)
        if not d.is_zero():
            result = result + img * d
    return result


def hamiltonian_derivation(f: LaurentPoly, structure) -> DerivationSpec:
    """ham_f = {f, -} restricted to generator images; ``structure`` is a
    PoissonStructure or a QuotientRing (images in normal form)."""
    ctx = structure.context
    return DerivationSpec(ctx, dict(zip((ctx.names[i] for i in ctx.generators()),
                                        structure.generator_brackets(f))))


def jacobiator(structure: PoissonStructure, i: int, j: int, k: int) -> LaurentPoly:
    """{x_i,{x_j,x_k}} + {x_j,{x_k,x_i}} + {x_k,{x_i,x_j}} on generators."""
    x = structure.gen
    b = structure.bracket
    return (b(x(i), structure.entry(j, k))
            + b(x(j), structure.entry(k, i))
            + b(x(k), structure.entry(i, j)))


def jacobi_residues(structure: PoissonStructure):
    """((i, j, k), Jacobiator) for every generator triple i < j < k."""
    for triple in combinations(structure.context.generators(), 3):
        yield triple, jacobiator(structure, *triple)


def check_jacobi(structure: PoissonStructure):
    """None on pass; else the first failing generator triple with residue."""
    return next(((triple, residue) for triple, residue in jacobi_residues(structure)
                 if not residue.is_zero()), None)


def derivation_residues(D: DerivationSpec, structure: PoissonStructure):
    """((i, j), D({x_i,x_j}) - {D(x_i),x_j} - {x_i,D(x_j)}) for every
    generator pair i < j."""
    names = structure.context.names
    gens = structure.context.generators()
    # images[a][b] = {D(x_a), x_b}, so {x_a, D(x_b)} = -images[b][a]
    images = [structure.generator_brackets(D.images[names[i]]) for i in gens]
    for (a, i), (b, j) in combinations(enumerate(gens), 2):
        lhs = D.apply(structure.entry(i, j))
        yield (i, j), lhs - (images[a][b] - images[b][a])


def check_poisson_derivation(D: DerivationSpec, structure: PoissonStructure):
    """None on pass; else the first failing generator pair with residue."""
    return next(((pair, residue) for pair, residue in derivation_residues(D, structure)
                 if not residue.is_zero()), None)


# -- Poisson-Ore data -------------------------------------------------------

class PoissonOreData:
    """The iterated Poisson-Ore presentation of a structure, read off its
    bracket table in generator order.

    For generators X_j before X_i the table entry reads
    {X_i, X_j} = mu_ij X_i X_j + delta_i(X_j): mu_ij, the scalar of
    sigma_i(X_j) = mu_ij X_j, is the coefficient of X_i X_j, and
    delta_i(X_j) is the rest, which must not hold X_i or a later
    generator (ExprError otherwise).  Indices are 0-based context
    positions.
    """

    def __init__(self, structure: PoissonStructure):
        ctx = self.context = structure.context
        gens = ctx.generators()
        self._mu: dict[tuple[int, int], Fraction] = {}
        self._delta: dict[tuple[int, int], LaurentPoly] = {}
        self._eta: dict[int, Fraction] = {}
        # the table holds {X_j, X_i} = c X_i X_j - delta_i(X_j) for j < i
        for (j, i), value in structure.table.items():
            x_ij = tuple(int(v in (i, j)) for v in range(ctx.rank))
            c = value.coeff(x_ij)
            self._mu[i, j], self._mu[j, i] = -c, c
            rest = self._delta[i, j] = LaurentPoly(ctx, {x_ij: c}) - value
            if any(m[v] for m in rest.terms for v in gens if v >= i):
                raise ExprError(
                    f"delta_{i + 1}(X_{j + 1}) = {rest} holds X_{i + 1} or a later"
                    " generator: the table is not in Poisson-Ore form in"
                    " generator order")

    def mu(self, i: int, j: int) -> Fraction:
        """Full antisymmetric scalar matrix entry mu_ij."""
        return self._mu.get((i, j), Fraction(0))

    def delta_images(self, i: int) -> dict[str, LaurentPoly]:
        names = self.context.names
        return {names[j]: self._delta.get((i, j), self.context.zero())
                for j in range(i)}

    def eta(self, i: int) -> Fraction:
        """The scalar eta_i with (delta_i sigma_i - sigma_i delta_i) = eta_i delta_i.

        As derivations, sigma_i scales a monomial m by its sigma_i-weight
        w(m) = sum_k mu_ik m_k (k < i), so the left side maps X_j to the
        sum of (mu_ij - w(m)) c m over the terms c m of delta_i(X_j):
        delta_i lowers sigma_i-weight by eta_i.  eta_i is mu_ij - w(m)
        for every term m of every nonzero delta_i(X_j), and these values
        must agree.  Undefined when delta_i vanishes identically.
        """
        cached = self._eta.get(i)
        if cached is not None:
            return cached
        eta: Fraction | None = None
        for j in range(i):
            found = {self.mu(i, j) - sum(self.mu(i, k) * m[k] for k in range(i))
                     for m in self._delta.get((i, j), self.context.zero()).terms}
            if len(found) > 1:
                raise EtaError(
                    f"(delta sigma - sigma delta)(X_{j + 1}) is not a scalar"
                    f" multiple of delta_{i + 1}(X_{j + 1})")
            for candidate in found:
                if eta is not None and eta != candidate:
                    raise EtaError(
                        f"inconsistent eta at index {i + 1}: {eta} vs {candidate}")
                eta = candidate
        if eta is None:
            raise EtaError(f"eta undefined: delta_{i + 1} vanishes on generators")
        if eta == 0:
            raise EtaError(f"eta_{i + 1} is zero; the rescaling step degenerates")
        self._eta[i] = eta
        return eta


# -- gradings ---------------------------------------------------------------

@dataclass(frozen=True)
class WeightVector:
    """Integer Z^2-weights for the non-parameter generators, by position."""

    context: VarContext
    weights: dict[int, tuple[int, int]]

    def __post_init__(self):
        gens = set(self.context.generators())
        if set(self.weights) != gens:
            raise ExprError("weights must cover exactly the generators")

    def term_weight(self, exps) -> tuple[int, int]:
        a = b = 0
        for i, e in enumerate(exps):
            if e and i in self.weights:
                wa, wb = self.weights[i]
                a += e * wa
                b += e * wb
        return (a, b)

    def weight_of(self, f: LaurentPoly) -> tuple[int, int] | None:
        """Common weight of all terms, or None when inhomogeneous/zero."""
        weight = None
        for m in f.terms:
            w = self.term_weight(m)
            if weight is None:
                weight = w
            elif weight != w:
                return None
        return weight


def euler_derivation(weights: WeightVector, lam) -> DerivationSpec:
    """E: x_i -> <lam, w_i> x_i over ``weights.context``.  Where the weights
    grade a structure (``check_grading``), E({x_i, x_j}) = <lam, w_i + w_j>
    {x_i, x_j} = {E x_i, x_j} + {x_i, E x_j}: a Poisson derivation."""
    ctx = weights.context
    return DerivationSpec(ctx, {
        ctx.names[i]: (lam[0] * a + lam[1] * b) * ctx.var(ctx.names[i])
        for i, (a, b) in weights.weights.items()})


def check_grading(structure: PoissonStructure, w: WeightVector):
    """None on pass; else (pair, term, got, expected) for the first entry
    that is not homogeneous of weight w_i + w_j."""
    for (i, j), value in sorted(structure.table.items()):
        wi, wj = w.weights[i], w.weights[j]
        expected = (wi[0] + wj[0], wi[1] + wj[1])
        for m in value.terms:
            got = w.term_weight(m)
            if got != expected:
                return (i, j), m, got, expected
    return None
