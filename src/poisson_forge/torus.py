"""Poisson group algebras over Z^n and their derivation decomposition.

The group algebra of Z^n with antisymmetric biadditive form lam carries
the log-canonical bracket {m_g, m_h} = lam(g, h) m_{g+h}.  Its Poisson
centre is spanned by the monomials over the centre lattice
C = {v : lam(v, e_i) = 0 for all i}, and every Poisson derivation D splits
uniquely as D = ham_gamma + D_theta with supp(gamma) disjoint from C and
theta an additive map into the centre:

    D(t_i) * t_i^-1 = sum_g a_g(e_i) m_g,
    c_g = a_g(e_y) / lam(g, e_y)     for g outside C, any witness y,
    theta(e_i) = sum_{g in C} a_g(e_i) m_g.

The witness independence is exactly the compatibility relation
a_g(x) lam(g, y) = a_g(y) lam(g, x), which is cross-checked on all
generator pairs; its failure certifies that the input was not a Poisson
derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .expr import ExprError, LaurentPoly, VarContext
from .linalg import integer_kernel
from .poisson import DerivationSpec, PoissonStructure


class DecompositionError(ExprError):
    """The generator images are not those of a Poisson derivation."""


@dataclass(frozen=True)
class TorusStructure:
    """Rank-n Poisson torus with lam(e_i, e_j) given by an antisymmetric
    rational matrix."""

    lam: tuple[tuple[Fraction, ...], ...]
    names: tuple[str, ...]

    @staticmethod
    def make(matrix: Sequence[Sequence], names: Sequence[str] | None = None) -> "TorusStructure":
        lam = tuple(tuple(Fraction(str(v)) for v in row) for row in matrix)
        n = len(lam)
        for row in lam:
            if len(row) != n:
                raise ExprError("lambda matrix must be square")
        for i in range(n):
            for j in range(n):
                if lam[i][j] != -lam[j][i]:
                    raise ExprError("lambda matrix must be antisymmetric")
        if names is None:
            names = tuple(f"t{i + 1}" for i in range(n))
        return TorusStructure(lam, tuple(names))

    @property
    def rank(self) -> int:
        return len(self.lam)

    @property
    def context(self) -> VarContext:
        return VarContext.make(self.names, invertible=self.names)

    def structure(self) -> PoissonStructure:
        ctx = self.context
        table = {}
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                table[(i, j)] = ctx.monomial(
                    {self.names[i]: 1, self.names[j]: 1}, self.lam[i][j])
        return PoissonStructure(ctx, table)

    def pairing(self, g: Sequence[int], h: Sequence[int]) -> Fraction:
        """Biadditive extension lam(g, h) = g . lam . h."""
        total = Fraction(0)
        for i, gi in enumerate(g):
            if gi:
                for j, hj in enumerate(h):
                    if hj:
                        total += gi * hj * self.lam[i][j]
        return total

    def is_central(self, g: Sequence[int]) -> bool:
        return all(self.pairing(g, unit) == 0
                   for unit in _unit_vectors(self.rank))

    def monomial(self, g: Sequence[int], coeff=1) -> LaurentPoly:
        ctx = self.context
        return ctx.monomial(dict(zip(self.names, g)), coeff)


def _unit_vectors(n: int):
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


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


def decompose_derivation(D: DerivationSpec, torus: TorusStructure,
                         witness: str = "smallest") -> Decomposition:
    """Split D into ham_gamma + D_theta from its generator images.

    ``witness`` picks the index y with lam(g, e_y) != 0 used for c_g
    ("smallest" or "largest"); the result is witness-independent for
    genuine Poisson derivations, which is asserted via the compatibility
    relation on all generator pairs.
    """
    ctx = torus.context
    n = torus.rank
    units = _unit_vectors(n)
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
        pairings = [torus.pairing(g, unit) for unit in units]
        if all(p == 0 for p in pairings):
            for i, c in a.items():
                theta_terms[torus.names[i]][g] = c
            continue
        for x in range(n):
            for y in range(n):
                lhs = a.get(x, Fraction(0)) * pairings[y]
                rhs = a.get(y, Fraction(0)) * pairings[x]
                if lhs != rhs:
                    raise DecompositionError(
                        f"compatibility fails at support {g}, pair"
                        f" ({torus.names[x]}, {torus.names[y]}):"
                        f" {lhs} != {rhs}; not a Poisson derivation")
        candidates = [y for y in range(n) if pairings[y] != 0]
        y = candidates[0] if witness == "smallest" else candidates[-1]
        c_g = a.get(y, Fraction(0)) / pairings[y]
        if c_g:
            gamma_terms[g] = c_g
    gamma = LaurentPoly(ctx, gamma_terms)
    theta = {name: LaurentPoly(ctx, terms)
             for name, terms in theta_terms.items()}
    return Decomposition(gamma, theta)


def hamiltonian_images(gamma: LaurentPoly, torus: TorusStructure) -> dict[str, LaurentPoly]:
    """ham_gamma on generators, through the log-canonical bracket."""
    ctx = torus.context
    units = _unit_vectors(torus.rank)
    images = {}
    for i, name in enumerate(torus.names):
        t_i = ctx.var(name)
        total = ctx.zero()
        for g, c in gamma.terms.items():
            lam = torus.pairing(g, units[i])
            if lam:
                total = total + torus.monomial(g, c * lam) * t_i
        images[name] = total
    return images


def apply_decomposition(dec: Decomposition, torus: TorusStructure) -> dict[str, LaurentPoly]:
    """Generator images of ham_gamma + D_theta."""
    ctx = torus.context
    ham = hamiltonian_images(dec.gamma, torus)
    return {name: ham[name] + dec.theta_images[name] * ctx.var(name)
            for name in torus.names}


def verify_decomposition(D: DerivationSpec, dec: Decomposition,
                         torus: TorusStructure) -> bool:
    recombined = apply_decomposition(dec, torus)
    return all(recombined[name] == D.images[name] for name in torus.names)
