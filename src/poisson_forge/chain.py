"""The deleting-derivations change of variables.

Starting from the iterated Poisson-Ore presentation, each level j builds

    X[i,j] = sum_k 1/(eta_j^k k!) * delta_j^k(X[i,j+1]) * X[j,j+1]^(-k)

for i < j (X[i,j] = X[i,j+1] for i >= j).  The delta powers are computed
operationally inside the ambient fraction field through the Poisson-Ore
identity {X[j,j+1], a} = sigma_j(a) X[j,j+1] + delta_j(a): since delta_j
lowers sigma_j-weight by eta_j,

    delta_j^(k+1)(a) = {X[j,j+1], delta_j^k(a)}
                       - (mu_ji - k eta_j) * delta_j^k(a) * X[j,j+1].

The series truncates because the deltas are locally nilpotent; a bound
guards against bad input data.  Elements live in the fraction field of the
ambient polynomial algebra: numerators are Laurent polynomials and
denominators are tracked as powers of registered chain denominators, with
equality decided by cross-multiplication (the ambient algebra is a domain).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import factorial

from .expr import ExprError, LaurentPoly, VarContext, divide_exact
from .g2 import (CHAIN_FORMULAS, CHAIN_STABLE_LEVEL, OMEGA1_LADDER,
                 OMEGA2_LADDER, ChainTerm, builtin_algebra)
from .poisson import MAX_DELTA_POWERS, PoissonOreData, PoissonStructure
from .report import CheckItem, check_item


class TruncationError(ExprError):
    """A delta-power series failed to truncate within the bound."""


def localize_structure(structure: PoissonStructure, names) -> PoissonStructure:
    """The same structure over a context with ``names`` marked invertible.

    The chain inverts X[j,j+1] at every level; marking the monomial ones
    invertible keeps those stages plain Laurent polynomials."""
    ctx = structure.context
    wanted = set(names)
    new_ctx = VarContext(
        ctx.names,
        tuple(inv or (n in wanted) for n, inv in zip(ctx.names, ctx.invertible)),
        ctx.parameters)
    table = {key: value.into(new_ctx) for key, value in structure.table.items()}
    return PoissonStructure(new_ctx, table)


class FractionField:
    """Registry of denominator polynomials plus the ambient bracket."""

    def __init__(self, structure: PoissonStructure):
        self.structure = structure
        self.context = structure.context
        self.factors: dict[str, LaurentPoly] = {}

    def register(self, poly: LaurentPoly) -> str:
        if poly.is_zero():
            raise ZeroDivisionError("cannot register a zero denominator")
        for label, known in self.factors.items():
            if known == poly:
                return label
        label = f"d{len(self.factors) + 1}"
        self.factors[label] = poly
        return label

    def element(self, num: LaurentPoly) -> "FractionElement":
        return FractionElement(self, num, {})

    def var(self, name: str) -> "FractionElement":
        return self.element(self.context.var(name))


@dataclass(frozen=True, eq=False)
class FractionElement:
    """num / prod(factor^power) over a FractionField."""

    field: FractionField
    num: LaurentPoly
    den: dict[str, int]

    def __post_init__(self):
        if self.num.is_zero():
            object.__setattr__(self, "den", {})
            return
        # cancel registered factors out of the numerator where possible
        den = {k: v for k, v in self.den.items() if v}
        num = self.num
        for label in sorted(den):
            factor = self.field.factors[label]
            while den[label] > 0:
                quotient = divide_exact(num, factor)
                if quotient is None:
                    break
                num = quotient
                den[label] -= 1
            if den[label] == 0:
                del den[label]
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- helpers ------------------------------------------------------------
    def den_poly(self) -> LaurentPoly:
        p = self.field.context.one()
        for label, power in self.den.items():
            p = p * self.field.factors[label] ** power
        return p

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not self.den

    def __eq__(self, other):
        if not isinstance(other, FractionElement):
            return NotImplemented
        return (self - other).is_zero()

    # -- arithmetic -----------------------------------------------------------
    def _merge_den(self, other):
        return {k: max(self.den.get(k, 0), other.den.get(k, 0))
                for k in set(self.den) | set(other.den)}

    def _scaled_to(self, den: dict[str, int]) -> LaurentPoly:
        num = self.num
        for label, power in den.items():
            extra = power - self.den.get(label, 0)
            if extra:
                num = num * self.field.factors[label] ** extra
        return num

    def __add__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = self.field.element(self._as_poly(other))
        den = self._merge_den(other)
        return FractionElement(self.field, self._scaled_to(den) + other._scaled_to(den), den)

    __radd__ = __add__

    def __neg__(self):
        return FractionElement(self.field, -self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = self.field.element(self._as_poly(other))
        return self + (-other)

    def _as_poly(self, value) -> LaurentPoly:
        if isinstance(value, LaurentPoly):
            return value
        return self.field.context.scalar(value)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return FractionElement(self.field, self.num * other, self.den)
        den = {k: self.den.get(k, 0) + other.den.get(k, 0)
               for k in set(self.den) | set(other.den)}
        return FractionElement(self.field, self.num * other.num, den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n == 0:
            return self.field.element(self.field.context.one())
        base = self if n > 0 else self.inverse()
        result = base
        for _ in range(abs(n) - 1):
            result = result * base
        return result

    def inverse(self) -> "FractionElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        try:
            inverse = self.num.monomial_inverse()
        except ExprError:  # not a monomial, or not invertible in the context
            label = self.field.register(self.num)
            return FractionElement(self.field, self.den_poly(), {label: 1})
        return FractionElement(self.field, self.den_poly() * inverse, {})

    # -- the Poisson bracket, extended to the fraction field ------------------
    def bracket(self, other: "FractionElement") -> "FractionElement":
        br = self.field.structure.bracket
        a, c = self.num, other.num
        if not self.den and not other.den:
            return self.field.element(br(a, c))
        b, d = self.den_poly(), other.den_poly()
        num = br(a, c) * b * d - br(b, c) * a * d - br(a, d) * c * b + br(b, d) * a * c
        den = {k: 2 * self.den.get(k, 0) + 2 * other.den.get(k, 0)
               for k in set(self.den) | set(other.den)}
        return FractionElement(self.field, num, den)

    def __str__(self):
        if not self.den:
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num} * ({self.den_poly()})^-1"


@dataclass(frozen=True)
class ChainStage:
    """Generators X[1,level] .. X[6,level] in the ambient fraction field."""

    level: int
    gens: tuple[FractionElement, ...]
    depths: dict[int, int] = dc_field(default_factory=dict, compare=False)

    def gen(self, i: int) -> FractionElement:
        """1-based generator access."""
        return self.gens[i - 1]


def initial_stage(structure: PoissonStructure) -> ChainStage:
    fld = FractionField(structure)
    gens = tuple(fld.var(structure.context.names[i])
                 for i in structure.context.generators())
    return ChainStage(len(gens) + 1, gens)


def chain_step(stage: ChainStage, ore: PoissonOreData) -> ChainStage:
    """One deleting-derivations step: level j+1 -> level j."""
    j = stage.level - 1
    T = stage.gen(j)
    inv_T = T.inverse()
    new_gens = list(stage.gens)
    depths: dict[int, int] = {}
    for i in range(1, j):
        a0 = stage.gen(i)
        mu = ore.mu(j - 1, i - 1)
        a1 = T.bracket(a0) - mu * a0 * T
        if a1.is_zero():
            depths[i] = 0
            continue
        eta = ore.eta(j - 1)
        series = [a0, a1]
        while not series[-1].is_zero():
            if len(series) > MAX_DELTA_POWERS:
                raise TruncationError(f"delta series for X[{i},{j}] exceeded"
                                      f" {MAX_DELTA_POWERS} terms")
            k = len(series) - 1
            ak = series[-1]
            series.append(T.bracket(ak) - (mu - k * eta) * ak * T)
        series.pop()
        depths[i] = len(series) - 1
        total = series[0]
        inv_power = inv_T
        for k in range(1, len(series)):
            total = total + Fraction(1, factorial(k)) / eta ** k * series[k] * inv_power
            inv_power = inv_power * inv_T
        new_gens[i - 1] = total
    return ChainStage(j, tuple(new_gens), depths)


def run_chain(structure: PoissonStructure,
              ore: PoissonOreData) -> dict[int, ChainStage]:
    """All stages, keyed by level 7 down to 2."""
    stage = initial_stage(structure)
    stages = {stage.level: stage}
    while stage.level > 2:
        stage = chain_step(stage, ore)
        stages[stage.level] = stage
    return stages


def builtin_chain() -> dict[int, ChainStage]:
    """The built-in algebra's chain; X5, X6 (its first two denominators) inverted."""
    alg = builtin_algebra()
    return run_chain(localize_structure(alg.structure, ["X5", "X6"]), alg.ore)


# -- verification ------------------------------------------------------------

def verify_stage_contract(stage: ChainStage, ore: PoissonOreData) -> list[CheckItem]:
    """At level j, {X[l,j], X[i,j]} = mu_li X[l,j] X[i,j] for l >= j, i < l."""
    items = []
    n = len(stage.gens)
    for l in range(max(stage.level, 2), n + 1):
        for i in range(1, l):
            lhs = stage.gen(l).bracket(stage.gen(i))
            rhs = ore.mu(l - 1, i - 1) * stage.gen(l) * stage.gen(i)
            items.append(check_item(
                f"level {stage.level}: {{X[{l},{stage.level}], X[{i},{stage.level}]}}"
                f" log-canonical", lhs - rhs))
    return items


def verify_torus_relations(stage2: ChainStage, matrix,
                           ore: PoissonOreData) -> list[CheckItem]:
    """{T_i, T_j} = M[i][j] T_i T_j for all 15 pairs, and M matches sigma."""
    items = []
    n = len(stage2.gens)
    mismatches = [f"({i + 1},{j + 1}): {matrix[i][j]} != {ore.mu(i, j)}"
                  for i in range(n) for j in range(n)
                  if Fraction(matrix[i][j]) != ore.mu(i, j)]
    items.append(("matrix matches the sigma table", not mismatches,
                  "0" if not mismatches else "; ".join(mismatches)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = stage2.gen(i).bracket(stage2.gen(j))
            rhs = Fraction(matrix[i - 1][j - 1]) * stage2.gen(i) * stage2.gen(j)
            items.append(check_item(
                f"{{T{i}, T{j}}} = {matrix[i - 1][j - 1]}*T{i}*T{j}", lhs - rhs))
    return items


def _eval_terms(terms: list[ChainTerm], stages: dict[int, ChainStage]) -> FractionElement:
    fld = next(iter(stages.values())).gens[0].field
    total = fld.element(fld.context.zero())
    for coeff, powers in terms:
        piece = fld.element(fld.context.scalar(Fraction(coeff)))
        for i, j, e in powers:
            piece = piece * stages[j].gen(i) ** e
        total = total + piece
    return total


def verify_chain_formulas(stages: dict[int, ChainStage]) -> list[CheckItem]:
    """The explicit X[i,j] formulas, then the T_i stability collapses."""
    items = []
    for (i, j), terms in sorted(CHAIN_FORMULAS.items(), key=lambda kv: (-kv[0][1], kv[0][0])):
        expected = _eval_terms(terms, stages)
        items.append(check_item(f"X[{i},{j}] explicit formula", stages[j].gen(i) - expected))
    for i, stable in sorted(CHAIN_STABLE_LEVEL.items()):
        diffs = [stages[j].gen(i) - stages[j + 1].gen(i) for j in range(2, stable)]
        items.append(check_item(f"T{i} = X[{i},2] = ... = X[{i},{stable}]",
                                next((d for d in diffs if not d.is_zero()), diffs[0])))
    return items


def verify_central_ladders(stages: dict[int, ChainStage],
                           casimirs: dict[str, LaurentPoly]) -> list[CheckItem]:
    """Consecutive equalities of both Omega pullback ladders."""
    items = []
    fld = stages[2].gens[0].field
    for name, ladder in (("Omega1", OMEGA1_LADDER), ("Omega2", OMEGA2_LADDER)):
        levels = sorted(ladder)
        values = {lvl: _eval_terms(ladder[lvl], stages) for lvl in levels}
        for lo, hi in zip(levels, levels[1:]):
            items.append(check_item(f"{name} ladder: level {lo} = level {hi}",
                                    values[lo] - values[hi]))
        top = levels[-1]
        items.append(check_item(f"{name} ladder: level {top} = polynomial form",
                                values[top] - fld.element(casimirs[name].into(fld.context))))
    return items


def verify_centrality(structure: PoissonStructure,
                      casimirs: dict[str, LaurentPoly]) -> list[CheckItem]:
    """{Omega_i, X_j} = 0 for both Casimirs and every generator."""
    items = []
    for name in sorted(casimirs):
        omega = casimirs[name]
        for i in structure.context.generators():
            residue = structure.bracket(omega, structure.gen(i))
            items.append(check_item(
                f"{{{name}, {structure.context.names[i]}}} = 0", residue))
    return items
