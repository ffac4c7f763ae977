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
Arithmetic, brackets and zero tests work on whatever pair an element was
built from; the registered factors are cancelled out of the numerator only
when the element is read (its numerator, denominator or text, or its
inverse, whose factor is registered in lowest terms).  ``chain_step``
reduces each series term and each new generator, so the stages stay in
lowest terms and their size stays bounded.  ``builtin_chain`` runs the
built-in algebra's chain once per process and hands every caller the
one dict of stages.  ``verify_log_canonical`` checks every stage's
log-canonical contract and the torus relations of level 2 in one pass,
bracketing each distinct pair of generator objects once: a chain step
keeps the generators it does not change as the same objects.

The golden formulas of ``g2`` are text in the package grammar: the chain
formulas and Omega ladders in the generators X1..X6 of one level, the
tower identities in the tower's own names.  One evaluator reads them all,
parsing each text once per process and putting given elements in for
the variables.  The chain formulas, evaluated on x1..x6 in the fraction
field of the localised quotient's structure, give its localisation tower
t1..t6 (``chain_elements``); ``verify_localized_identities`` reads each
tower label as its identity and checks it there.  Both read the ring only
through ``context``, ``structure``, ``normal_form``, ``alpha_poly``,
``beta_poly`` and ``localized``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import factorial

from .expr import ExprError, LaurentPoly, VarContext, divide_exact
from .g2 import (CHAIN_FORMULAS, CHAIN_STABLE_LEVEL, OMEGA1_LADDER,
                 OMEGA2_LADDER, TOWER_IDENTITIES, builtin_algebra, golden_poly)
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
        self._products: dict[tuple, LaurentPoly] = {}

    def register(self, poly: LaurentPoly) -> str:
        if poly.is_zero():
            raise ZeroDivisionError("cannot register a zero denominator")
        for label, known in self.factors.items():
            if known == poly:
                return label
        label = f"d{len(self.factors) + 1}"
        self.factors[label] = poly
        return label

    def product(self, powers: dict[str, int]) -> LaurentPoly:
        """prod(factor^power) over ``powers``, memoised: the registry only
        grows, so a label always names the same factor."""
        key = tuple(sorted(powers.items()))
        p = self._products.get(key)
        if p is None:
            p = self.context.one()
            for label, power in key:
                p = p * self.factors[label] ** power
            self._products[key] = p
        return p

    def element(self, num: LaurentPoly) -> "FractionElement":
        return FractionElement(self, num, {})

    def var(self, name: str) -> "FractionElement":
        return self.element(self.context.var(name))


def _generators(fld: FractionField) -> list["FractionElement"]:
    """The generators x1..xn of ``fld``, its context's non-parameters."""
    return [fld.var(fld.context.names[i]) for i in fld.context.generators()]


class FractionElement:
    """num / prod(factor^power) over a FractionField.

    Arithmetic, brackets and zero tests work on the pair the element holds,
    which need not be in lowest terms.  The registered factors are
    cancelled out of the numerator only when the pair is read (``num``,
    ``den``, ``den_poly``, ``inverse``, ``str``) or asked for
    (``reduce``); the reduced pair then replaces the held one.  An element
    is a polynomial exactly when its reduced ``den`` is empty."""

    __slots__ = ("field", "_num", "_den", "_reduced")

    def __init__(self, field: FractionField, num: LaurentPoly, den: dict[str, int]):
        self.field = field
        self._num = num
        self._den = {} if num.is_zero() else {k: v for k, v in den.items() if v}
        self._reduced = not self._den

    def reduce(self) -> "FractionElement":
        """Cancel registered factors out of the numerator where possible;
        the value is unchanged.  Returns the element itself."""
        if not self._reduced:
            num, den = self._num, self._den
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
            self._num, self._reduced = num, True
        return self

    @property
    def num(self) -> LaurentPoly:
        return self.reduce()._num

    @property
    def den(self) -> dict[str, int]:
        return self.reduce()._den

    def den_poly(self) -> LaurentPoly:
        return self.field.product(self.den)

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, FractionElement):
            return NotImplemented
        return (self - other).is_zero()

    # -- arithmetic -----------------------------------------------------------
    def _scaled_to(self, den: dict[str, int]) -> LaurentPoly:
        extra = {label: power - self._den.get(label, 0) for label, power in den.items()
                 if power != self._den.get(label, 0)}
        return self._num * self.field.product(extra) if extra else self._num

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.context.scalar(other)
        if isinstance(other, LaurentPoly):
            other = self.field.element(other)
        den = {k: max(self._den.get(k, 0), other._den.get(k, 0))
               for k in self._den.keys() | other._den.keys()}
        return FractionElement(self.field, self._scaled_to(den) + other._scaled_to(den), den)

    __radd__ = __add__

    def __neg__(self):
        return FractionElement(self.field, -self._num, self._den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return FractionElement(self.field, self._num * other, self._den)
        den = {k: self._den.get(k, 0) + other._den.get(k, 0)
               for k in self._den.keys() | other._den.keys()}
        return FractionElement(self.field, self._num * other._num, den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n as one pair: the numerator to the power |n| over each
        factor's power times |n|, of self or, for n < 0, of its inverse."""
        base, n = (self, n) if n >= 0 else (self.inverse(), -n)
        return FractionElement(self.field, base._num ** n,
                               {label: power * n for label, power in base._den.items()})

    def inverse(self) -> "FractionElement":
        """1/self; a factor that is not a unit is registered in lowest terms."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        num = self.num
        try:
            inverse = num.monomial_inverse()
        except ExprError:  # not a monomial, or not invertible in the context
            label = self.field.register(num)
            return FractionElement(self.field, self.den_poly(), {label: 1})
        return FractionElement(self.field, self.den_poly() * inverse, {})

    # -- the Poisson bracket, extended to the fraction field ------------------
    def bracket(self, other: "FractionElement") -> "FractionElement":
        """{a/b, c/d} by the quotient rule in each argument in turn:
        {a/b, x} b^2 = {a,x} b - a {b,x}, and then
        {a/b, c/d} b^2 d^2 = ({a/b, c} b^2) d - c ({a/b, d} b^2).
        A side without a denominator skips its step, so one with none makes
        two ambient brackets, not four."""
        fld = self.field
        br = fld.structure.bracket
        a, c = self._num, other._num
        b = fld.product(self._den) if self._den else None

        def left(x):  # {a/b, x} b^2
            return br(a, x) if b is None else br(a, x) * b - a * br(b, x)

        if not other._den:
            num = left(c)
        else:
            d = fld.product(other._den)
            num = left(c) * d - c * left(d)
        den = {k: 2 * self._den.get(k, 0) + 2 * other._den.get(k, 0)
               for k in self._den.keys() | other._den.keys()}
        return FractionElement(fld, num, den)

    def __str__(self):
        num, den = self.num, self.den
        if not den:
            return str(num)
        text = str(num)
        if len(num.terms) > 1:
            text = f"({text})"
        return f"{text} * ({self.den_poly()})^-1"


@dataclass(frozen=True)
class ChainStage:
    """Generators X[1,level] .. X[6,level] of one level of the chain."""

    level: int
    gens: tuple
    depths: dict[int, int] = dc_field(default_factory=dict, compare=False)

    def gen(self, i: int):
        """1-based generator access."""
        return self.gens[i - 1]


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
        a1 = (T.bracket(a0) - mu * a0 * T).reduce()
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
            series.append((T.bracket(ak) - (mu - k * eta) * ak * T).reduce())
        series.pop()
        depths[i] = len(series) - 1
        total = series[0]
        inv_power = inv_T
        for k in range(1, len(series)):
            total = total + Fraction(1, factorial(k)) / eta ** k * series[k] * inv_power
            inv_power = inv_power * inv_T
        new_gens[i - 1] = total.reduce()
    return ChainStage(j, tuple(new_gens), depths)


def run_chain(structure: PoissonStructure,
              ore: PoissonOreData) -> dict[int, ChainStage]:
    """All stages, keyed by level 7 down to 2."""
    gens = tuple(_generators(FractionField(structure)))
    stage = ChainStage(len(gens) + 1, gens)
    stages = {stage.level: stage}
    while stage.level > 2:
        stage = chain_step(stage, ore)
        stages[stage.level] = stage
    return stages


@functools.cache
def builtin_chain() -> dict[int, ChainStage]:
    """The built-in algebra's chain; X5, X6 (its first two denominators)
    inverted.  The chain runs once per process, on the first call; every
    call returns the one dict, which callers share and must not change,
    as with ``g2.builtin_algebra``."""
    alg = builtin_algebra()
    return run_chain(localize_structure(alg.structure, ["X5", "X6"]), alg.ore)


# -- verification ------------------------------------------------------------

def verify_log_canonical(stages: dict[int, ChainStage], matrix,
                         ore: PoissonOreData) -> list[CheckItem]:
    """The log-canonical contract of every stage and the torus of level 2.

    At level j, {X[l,j], X[i,j]} = mu_li X[l,j] X[i,j] for l >= j, i < l.
    Then M matches sigma, and {T_i, T_j} = M[i][j] T_i T_j for all 15
    pairs of T_i = X[i,2], each item subtracting the matrix's own entry;
    {T_i, T_j} is minus the contract's bracket {T_j, T_i} of level 2.

    A chain step keeps the generators it does not change as the same
    objects, so each distinct pair of generator objects is bracketed once,
    and its residue made once, through a call-local table keyed by the
    pair's places (l, i), on which mu depends, and the objects' ids:
    ``stages`` holds every generator for the whole call, so no id is
    reused within it.  An equal generator that is another object is
    bracketed again."""
    pairs: dict[tuple, tuple] = {}

    def pair(stage, l, i):
        """({X[l], X[i]}, its residue) at ``stage``, made once per pair."""
        a, b = stage.gen(l), stage.gen(i)
        key = l, i, id(a), id(b)
        if key not in pairs:
            bracket = a.bracket(b)
            pairs[key] = bracket, bracket - ore.mu(l - 1, i - 1) * a * b
        return pairs[key]

    items = []
    for stage in stages.values():
        j = stage.level
        for l in range(max(j, 2), len(stage.gens) + 1):
            for i in range(1, l):
                items.append(check_item(
                    f"level {j}: {{X[{l},{j}], X[{i},{j}]}} log-canonical",
                    pair(stage, l, i)[1]))
    torus = stages[2]
    n = len(torus.gens)
    mismatches = [f"({i + 1},{j + 1}): {matrix[i][j]} != {ore.mu(i, j)}"
                  for i in range(n) for j in range(n)
                  if Fraction(matrix[i][j]) != ore.mu(i, j)]
    items.append(CheckItem("matrix matches the sigma table", not mismatches,
                           "0" if not mismatches else "; ".join(mismatches)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = -pair(torus, j, i)[0]
            rhs = Fraction(matrix[i - 1][j - 1]) * torus.gen(i) * torus.gen(j)
            items.append(check_item(
                f"{{T{i}, T{j}}} = {matrix[i - 1][j - 1]}*T{i}*T{j}", lhs - rhs))
    return items


# -- the golden formulas, read from their text -------------------------------

#: The context of the chain formulas and ladders of ``g2``: X1..X6 stand
#: for the generators of one level, each invertible, as the formulas
#: divide by them.
_LEVEL_NAMES = tuple(f"X{i}" for i in range(1, 7))
_LEVEL = VarContext.make(_LEVEL_NAMES, invertible=_LEVEL_NAMES)


def _evaluate(text: str, context: VarContext, elements):
    """The value of ``text`` with the i-th of ``elements`` put in for the
    i-th variable of ``context``: any elements with ``+``, ``*`` and
    ``**``.  Each text is parsed once per process and context
    (``g2.golden_poly``)."""
    total = None
    for exps, coeff in golden_poly(text, context).terms.items():
        piece = coeff
        for element, e in zip(elements, exps):
            if e:
                piece = piece * element ** e
        total = piece if total is None else total + piece
    return total


def formula_stages(gens) -> dict[int, ChainStage]:
    """Levels 7 down to 3 from ``gens`` = X1..X6, any elements with ``+``,
    ``*`` and ``**``: X[i,j] by ``CHAIN_FORMULAS``, else X[i,j+1]."""
    top = len(gens) + 1
    stages = {top: ChainStage(top, tuple(gens))}
    for j in range(top - 1, 2, -1):
        above = stages[j + 1].gens
        stages[j] = ChainStage(j, tuple(
            _evaluate(CHAIN_FORMULAS[i, j], _LEVEL, above) if (i, j) in CHAIN_FORMULAS
            else above[i - 1] for i in range(1, top)))
    return stages


# -- the localisation tower ---------------------------------------------------

# The chain elements by their place X[i,j] in the chain; t_i is
# T_i = X[i,2] = X[i,3], read at level 3, the bottom level formula_stages
# builds, so that "t5 = x5" compares x5 with what the formulas make of it.
_CHAIN_NAMES = {"x16": (1, 6), "x26": (2, 6), "x36": (3, 6), "z1": (1, 5),
                "z2": (2, 5), "f1": (1, 4),
                **{f"t{i}": (i, 3) for i in CHAIN_STABLE_LEVEL}}


def chain_elements(ring) -> dict[str, FractionElement]:
    """The images of the chain elements in the localised quotient ``ring``
    (a ``quotient.QuotientRing``): the formulas of ``g2.CHAIN_FORMULAS``
    evaluated on its generators x1..x6 in the ``FractionField`` of its
    structure, whose inverses register t3 and t4."""
    if not ring.localized:
        raise ExprError("chain elements need the localisation at x5, x6")
    stages = formula_stages(_generators(FractionField(ring.structure)))
    return {name: stages[j].gen(i) for name, (i, j) in _CHAIN_NAMES.items()}


#: The context of ``g2.TOWER_IDENTITIES``: the chain elements by name, the
#: quotient's generators x1..x6 and its parameters alpha, beta.
_TOWER_NAMES = (*_CHAIN_NAMES, *(f"x{i}" for i in range(1, 7)), "alpha", "beta")
_TOWER = VarContext.make(_TOWER_NAMES, invertible=_TOWER_NAMES)


def verify_localized_identities(ring, tower: dict | None = None) -> list[CheckItem]:
    """Each identity of ``g2.TOWER_IDENTITIES`` in the localised quotient
    ``ring``, read from its label and checked as the normal form of the
    numerator of lhs - rhs: the localised quotient is a domain in which
    the denominators t3, t4 are nonzero.  ``tower`` is
    ``chain_elements(ring)``, built here when not given; it is read, not
    changed."""
    tower = chain_elements(ring) if tower is None else tower
    fld = tower["t1"].field
    named = {**tower, **{f"x{i}": fld.var(f"x{i}") for i in range(1, 7)},
             "alpha": fld.element(ring.alpha_poly), "beta": fld.element(ring.beta_poly)}
    elements = [named[name] for name in _TOWER.names]
    items = []
    for label in TOWER_IDENTITIES:
        # the label without a leading "relation ", x(i,j) read as xij
        text = re.sub(r"x\((\d),(\d)\)", r"x\1\2", label.removeprefix("relation "))
        lhs, rhs = (_evaluate(side, _TOWER, elements) for side in text.split(" = "))
        items.append(check_item(label, ring.normal_form((lhs - rhs).num)))
    return items


def verify_chain_formulas(stages: dict[int, ChainStage]) -> list[CheckItem]:
    """The explicit X[i,j] formulas, then the T_i stability collapses."""
    items = []
    for (i, j), text in sorted(CHAIN_FORMULAS.items(), key=lambda kv: (-kv[0][1], kv[0][0])):
        expected = _evaluate(text, _LEVEL, stages[j + 1].gens)
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
        values = {lvl: _evaluate(ladder[lvl], _LEVEL, stages[lvl].gens) for lvl in levels}
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
        images = structure.generator_brackets(casimirs[name])
        for i, residue in zip(structure.context.generators(), images):
            items.append(check_item(
                f"{{{name}, {structure.context.names[i]}}} = 0", residue))
    return items
