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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .expr import ExprError, LaurentPoly, VarContext, rational
from .linalg import integer_kernel
from .poisson import DerivationSpec, PoissonStructure, hamiltonian_derivation


class DecompositionError(ExprError):
    """The generator images are not those of a Poisson derivation."""


@dataclass(frozen=True)
class TorusStructure:
    """Rank-n Poisson torus over generators t1..tn with lam(e_i, e_j) given
    by an antisymmetric rational matrix."""

    lam: tuple[tuple[Fraction, ...], ...]
    names: tuple[str, ...]

    @staticmethod
    def make(matrix: Sequence[Sequence]) -> "TorusStructure":
        lam = tuple(tuple(rational(v) for v in row) for row in matrix)
        n = len(lam)
        for row in lam:
            if len(row) != n:
                raise ExprError("lambda matrix must be square")
        for i in range(n):
            for j in range(n):
                if lam[i][j] != -lam[j][i]:
                    raise ExprError("lambda matrix must be antisymmetric")
        return TorusStructure(lam, tuple(f"t{i + 1}" for i in range(n)))

    @property
    def rank(self) -> int:
        return len(self.lam)

    @cached_property
    def context(self) -> VarContext:
        return VarContext.make(self.names, invertible=self.names)

    @cached_property
    def _structure(self) -> PoissonStructure:
        ctx = self.context
        table = {}
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                table[(i, j)] = ctx.monomial(
                    {self.names[i]: 1, self.names[j]: 1}, self.lam[i][j])
        return PoissonStructure(ctx, table)

    def structure(self) -> PoissonStructure:
        """The log-canonical bracket {t_i, t_j} = lam_ij t_i t_j, built once
        per torus."""
        return self._structure

    def pairings(self, g: Sequence[int]) -> tuple[Fraction, ...]:
        """(lam(g, e_1), ..., lam(g, e_n)) for the biadditive extension
        lam(g, h) = g . lam . h."""
        return tuple(sum((gi * self.lam[i][j] for i, gi in enumerate(g) if gi),
                         Fraction(0))
                     for j in range(self.rank))

    def is_central(self, g: Sequence[int]) -> bool:
        return not any(self.pairings(g))

    def monomial(self, g: Sequence[int], coeff=1) -> LaurentPoly:
        return self.context.monomial(dict(zip(self.names, g)), coeff)


def central_lattice(torus: TorusStructure) -> list[list[int]]:
    """Canonical (Hermite-form) basis of {v in Z^n : lam(v, e_i) = 0}."""
    return integer_kernel(torus.lam)


@dataclass(frozen=True)
class Decomposition:
    """gamma with supp(gamma) outside the centre lattice, plus the central
    images theta(e_i); decompose_derivation guarantees the support
    condition, verify_decomposition only replays the defining equation."""

    gamma: LaurentPoly
    theta_images: dict[str, LaurentPoly]


def decompose_derivation(D: DerivationSpec, torus: TorusStructure) -> Decomposition:
    """Split D into ham_gamma + D_theta from its generator images."""
    ctx = torus.context
    coeffs: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for i, name in enumerate(torus.names):
        image = D.images[name]
        shifted = image * ctx.monomial({name: -1})
        for m, c in shifted.terms.items():
            coeffs.setdefault(m, {})[i] = c

    gamma_terms: dict[tuple[int, ...], Fraction] = {}
    theta_terms: dict[str, dict[tuple[int, ...], Fraction]] = {
        name: {} for name in torus.names}
    for g, a in sorted(coeffs.items()):
        pairings = torus.pairings(g)
        y = next((i for i, p in enumerate(pairings) if p), None)
        if y is None:
            for i, c in a.items():
                theta_terms[torus.names[i]][g] = c
            continue
        c_g = a.get(y, 0) / pairings[y]
        for x, p in enumerate(pairings):
            if a.get(x, 0) != c_g * p:
                lhs = a.get(x, 0) * pairings[y]
                rhs = a.get(y, 0) * p
                raise DecompositionError(
                    f"compatibility fails at support {g}, pair"
                    f" ({torus.names[x]}, {torus.names[y]}):"
                    f" {lhs} != {rhs}; not a Poisson derivation")
        gamma_terms[g] = c_g
    gamma = LaurentPoly(ctx, gamma_terms)
    theta = {name: LaurentPoly(ctx, terms)
             for name, terms in theta_terms.items()}
    return Decomposition(gamma, theta)


def apply_decomposition(dec: Decomposition, torus: TorusStructure) -> dict[str, LaurentPoly]:
    """Generator images of ham_gamma + D_theta."""
    ctx = torus.context
    ham = hamiltonian_derivation(dec.gamma, torus.structure()).images
    return {name: ham[name] + dec.theta_images[name] * ctx.var(name)
            for name in torus.names}


def verify_decomposition(D: DerivationSpec, dec: Decomposition,
                         torus: TorusStructure) -> bool:
    recombined = apply_decomposition(dec, torus)
    return all(recombined[name] == D.images[name] for name in torus.names)
