"""Poisson group algebras over Z^n and their derivation decomposition.

The group algebra of Z^n with antisymmetric biadditive form lam carries
the log-canonical bracket {m_g, m_h} = lam(g, h) m_{g+h}.  Its Poisson
centre is spanned by the monomials over the centre lattice
C = {v : lam(v, e_i) = 0 for all i}, and every Poisson derivation D splits
uniquely as D = ham_gamma + D_theta with supp(gamma) disjoint from C and
theta an additive map into the centre:

    D(t_i) * t_i^-1 = sum_g a_g(e_i) m_g,
    a_g(e_x) = c_g lam(g, e_x)       for g outside C and every x,
    theta(e_i) = sum_{g in C} a_g(e_i) m_g.

c_g is read off the first generator y with lam(g, e_y) != 0 and checked
on every x.  Because lam(g, e_y) != 0, that check is equivalent to the
compatibility relation a_g(e_x) lam(g, e_y) = a_g(e_y) lam(g, e_x) on all
generator pairs, so any other witness gives the same c_g; its failure
certifies that the input was not a Poisson derivation.

The lattice arithmetic runs on integers: lam = L / den with den the lcm
of the entries' denominators, so the pairings P = g . L are integers.
The check is cross-multiplied, a_x P_y = a_y P_x on the numerators and
denominators of the a's, and c_g = a_y den / P_y; an error message
divides back by den and reads in lam units.  apply_decomposition gives
the generator images of ham_gamma + D_theta, with ham_gamma from
``structure.generator_brackets``, which reads the bracket table, not the
pairings, and D_theta(t_i) = theta(e_i) t_i as each term of theta(e_i)
with its exponent shifted by e_i, with no product taken: a roundtrip,
apply_decomposition(decompose_derivation(D)) == D.images, then checks
both halves against each other, where a wrong pairing on both sides
would cancel out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import neg
from typing import Sequence

from .expr import (ContextMismatch, ExprError, LaurentPoly, VarContext,
                   accumulate, rational)
from .linalg import integer_kernel
from .poisson import DerivationSpec, PoissonStructure


class DecompositionError(ExprError):
    """The generator images are not those of a Poisson derivation."""


_ZERO = Fraction(0)


@dataclass(frozen=True)
class TorusStructure:
    """Rank-n Poisson torus over generators t1..tn with lam(e_i, e_j) given
    by an antisymmetric rational matrix."""

    lam: tuple[tuple[Fraction, ...], ...]
    names: tuple[str, ...]

    @staticmethod
    def make(matrix: list[list]) -> "TorusStructure":
        """The torus of ``matrix``, a list of rows, each a list of rationals
        (numbers or "p/q" text); ExprError on anything else.

        Each distinct entry, told apart by type and value so that True is
        not read as 1, is converted once, and antisymmetry is checked on
        the integer rows of lam * den, which the torus keeps as its
        ``den`` and ``_rows``."""
        if not (isinstance(matrix, list) and all(isinstance(row, list) for row in matrix)):
            raise ExprError("lambda matrix must be a list of rows, each a list")
        try:
            ids: dict = {}
            indices = [[ids.setdefault((type(v), v), len(ids)) for v in row]
                       for row in matrix]
            values = [v for _, v in ids]
        except TypeError:  # an unhashable entry: each entry read on its own
            values = [v for row in matrix for v in row]
            position = iter(range(len(values)))
            indices = [[next(position) for _ in row] for row in matrix]
        distinct = list(map(rational, values))
        n = len(indices)
        for row in indices:
            if len(row) != n:
                raise ExprError("lambda matrix must be square")
        den = lcm(*(c.denominator for c in distinct))
        scaled = [c.numerator * (den // c.denominator) for c in distinct]
        rows = tuple(tuple(map(scaled.__getitem__, row)) for row in indices)
        if rows != tuple(tuple(map(neg, column)) for column in zip(*rows)):
            raise ExprError("lambda matrix must be antisymmetric")
        torus = TorusStructure(tuple(tuple(map(distinct.__getitem__, row))
                                     for row in indices),
                               tuple(f"t{i + 1}" for i in range(n)))
        vars(torus).update(den=den, _rows=rows)
        return torus

    @property
    def rank(self) -> int:
        return len(self.lam)

    @cached_property
    def context(self) -> VarContext:
        return VarContext.make(self.names, invertible=self.names)

    @cached_property
    def structure(self) -> PoissonStructure:
        """The log-canonical bracket {t_i, t_j} = lam_ij t_i t_j, built once
        per torus."""
        ctx = self.context
        table = {}
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                table[(i, j)] = ctx.monomial(
                    {self.names[i]: 1, self.names[j]: 1}, self.lam[i][j])
        return PoissonStructure(ctx, table)

    @cached_property
    def den(self) -> int:
        """The lcm of the denominators of lam; lam * den is an integer matrix."""
        return lcm(*(c.denominator for row in self.lam for c in row))

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        # the rows of lam * den
        return tuple(tuple(c.numerator * (self.den // c.denominator) for c in row)
                     for row in self.lam)

    @cached_property
    def _sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # the nonzero (column, value) pairs of each row of lam * den
        return tuple(tuple((j, c) for j, c in enumerate(row) if c)
                     for row in self._rows)

    def pairings(self, g: Sequence[int]) -> tuple[int, ...]:
        """(lam(g, e_1), ..., lam(g, e_n)) * den, integers, for the
        biadditive extension lam(g, h) = g . lam . h: the sum of g_v times
        row v of lam * den over the nonzero entries g_v only, each row
        read at its nonzero entries only, so a sparse support costs its
        entries times their rows' nonzero entries, not n^2."""
        out = [0] * self.rank
        for k, row in zip(g, self._sparse_rows):
            if k:
                for j, c in row:
                    out[j] += k * c
        return tuple(out)

    def is_central(self, g: Sequence[int]) -> bool:
        return not any(self.pairings(g))

    def monomial(self, g: Sequence[int], coeff=1) -> LaurentPoly:
        """coeff * t^g; ExprError unless g has one entry per generator."""
        return LaurentPoly(self.context, {tuple(g): coeff})


def central_lattice(torus: TorusStructure) -> list[list[int]]:
    """Canonical (Hermite-form) basis of {v in Z^n : lam(v, e_i) = 0}."""
    return integer_kernel(torus.lam)


@dataclass(frozen=True)
class Decomposition:
    """gamma with supp(gamma) outside the centre lattice, plus the central
    images theta(e_i).  decompose_derivation guarantees the support
    condition; the defining equation holds when apply_decomposition gives
    back the images of the derivation."""

    gamma: LaurentPoly
    theta_images: dict[str, LaurentPoly]


def decompose_derivation(D: DerivationSpec, torus: TorusStructure) -> Decomposition:
    """Split D into ham_gamma + D_theta from its generator images."""
    ctx = torus.context
    if D.context != ctx:
        raise ContextMismatch("derivation over a context other than the torus's")
    # a_g(e_i): the coefficients of D(t_i), exponents shifted by -e_i
    coeffs: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for i, name in enumerate(torus.names):
        for m, c in D.images[name].terms.items():
            g = m[:i] + (m[i] - 1,) + m[i + 1:]
            coeffs.setdefault(g, {})[i] = c

    gamma_terms: dict[tuple[int, ...], Fraction] = {}
    theta_terms: dict[str, dict[tuple[int, ...], Fraction]] = {
        name: {} for name in torus.names}
    for g, a in sorted(coeffs.items()):
        pairings = torus.pairings(g)
        if not any(pairings):
            for i, c in a.items():
                theta_terms[torus.names[i]][g] = c
            continue
        y = next(i for i, p in enumerate(pairings) if p)
        a_y = a.get(y, _ZERO)
        # a_x P_y = a_y P_x with the denominators of a_x and a_y cleared
        scale_y = a_y.denominator * pairings[y]
        for x, p in enumerate(pairings):
            a_x = a.get(x, _ZERO)
            if a_x.numerator * scale_y != a_y.numerator * a_x.denominator * p:
                lhs = a_x * Fraction(pairings[y], torus.den)
                rhs = a_y * Fraction(p, torus.den)
                raise DecompositionError(
                    f"compatibility fails at support {g}, pair"
                    f" ({torus.names[x]}, {torus.names[y]}):"
                    f" {lhs} != {rhs}; not a Poisson derivation")
        gamma_terms[g] = Fraction(a_y.numerator * torus.den, scale_y)
    # every coefficient is nonzero (D's own, or c_g with a_y != 0, as the
    # check above fails on a_y = 0), and every monomial is valid on the
    # torus, whose generators are all invertible
    gamma = LaurentPoly._of(ctx, gamma_terms)
    theta = {name: LaurentPoly._of(ctx, terms)
             for name, terms in theta_terms.items()}
    return Decomposition(gamma, theta)


def apply_decomposition(dec: Decomposition, torus: TorusStructure) -> dict[str, LaurentPoly]:
    """Generator images of ham_gamma + D_theta: theta(e_i) * t_i adds each
    term of theta(e_i) into the image of t_i at its exponent shifted by
    e_i."""
    ham = torus.structure.generator_brackets(dec.gamma)
    images = {}
    for i, (name, image) in enumerate(zip(torus.names, ham)):
        terms = dict(image.terms)
        accumulate(terms, {m[:i] + (m[i] + 1,) + m[i + 1:]: c
                           for m, c in dec.theta_images[name].terms.items()})
        # ham's and theta's own coefficients and their nonzero sums; every
        # monomial is valid on the torus, whose generators are invertible
        images[name] = LaurentPoly._of(torus.context, terms)
    return images
