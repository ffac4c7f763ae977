"""Built-in algebra: the rank-6 Poisson algebra of G2 type.

The definition file data/g2_algebra.json carries the bracket table, the
sigma/delta tables of the iterated Poisson-Ore presentation, the torus
weights and the two Casimirs Omega1, Omega2.  This module loads that file
(or a user-supplied one with the same schema) and keeps the golden
constants the verification suites compare against: the skew-symmetric
matrix of the target torus, the explicit change-of-variables formulas of
the deleting-derivations chain, the Omega pullback ladders, and the four
quotient rewrite identities.  The scalar derivations of the degenerate
quotients are derived from the weights, signed so that X5 -> X5.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .expr import ExprError, LaurentPoly, ProductBudget, VarContext, rational
from .linalg import integer_kernel
from .parse import parse_expr
from .poisson import PoissonOreData, PoissonStructure, WeightVector, euler_derivation


@dataclass(frozen=True)
class AlgebraData:
    context: VarContext
    structure: PoissonStructure
    ore: PoissonOreData
    weights: WeightVector | None
    casimirs: dict[str, LaurentPoly]


def _pair_key(key: str, rank: int) -> tuple[int, int]:
    try:
        i, j = (int(p) for p in key.split(","))
    except ValueError:
        raise ExprError(f"bad index pair {key!r}; expected 'i,j'") from None
    if not (1 <= i <= rank and 1 <= j <= rank) or i == j:
        raise ExprError(f"index pair {key!r} out of range")
    return i - 1, j - 1


_FIELD_KINDS = {"variables": list, "invertible": list, "parameters": list,
                "brackets": dict, "sigma": dict, "delta": dict,
                "weights": list, "casimirs": dict}


def load_algebra(source) -> AlgebraData:
    """Build an AlgebraData from a JSON definition file or parsed dict.

    Schema: {"variables": [...], "invertible": [...], "parameters": [...],
    "brackets": {"i,j": "expr"}, "sigma": {"i,j": rational},
    "delta": {"i,j": "expr"}, "weights": [[a, b], ...],
    "casimirs": {"name": "expr"}} -- the last two optional, expressions in
    the package grammar, indices 1-based.  The expressions of one
    definition share one ``MAX_PRODUCTS`` budget.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = source
    if not isinstance(data, dict):
        raise ExprError("algebra definition must be a JSON object")
    for field in ("variables", "brackets", "sigma"):
        if field not in data:
            raise ExprError(f"algebra definition misses {field!r}")
    for field, kind in _FIELD_KINDS.items():
        if field in data and not isinstance(data[field], kind):
            raise ExprError(f"algebra field {field!r} must be a JSON"
                            f" {'object' if kind is dict else 'array'}")
    for field in ("variables", "invertible", "parameters"):
        if not all(isinstance(name, str) for name in data.get(field, ())):
            raise ExprError(f"algebra field {field!r} must list names as"
                            " JSON strings")
    ctx = VarContext.make(data["variables"],
                          invertible=data.get("invertible", ()),
                          parameters=data.get("parameters", ()))
    budget = ProductBudget()
    table = {}
    for key, text in data["brackets"].items():
        i, j = _pair_key(key, ctx.rank)
        value = parse_expr(text, ctx, budget=budget)
        if j < i:
            i, j, value = j, i, -value
        if (i, j) in table:
            raise ExprError(f"duplicate bracket entry for {key!r}")
        table[(i, j)] = value
    structure = PoissonStructure(ctx, table)

    sigma = {}
    for key, value in data["sigma"].items():
        i, j = _pair_key(key, ctx.rank)
        if not j < i:
            raise ExprError(f"sigma key {key!r} must have i > j")
        sigma[(i, j)] = rational(value)
    delta = {}
    for key, text in data.get("delta", {}).items():
        i, j = _pair_key(key, ctx.rank)
        if not j < i:
            raise ExprError(f"delta key {key!r} must have i > j")
        delta[(i, j)] = parse_expr(text, ctx, budget=budget)
    ore = PoissonOreData(ctx, sigma, delta)

    weights = None
    if "weights" in data:
        if not all(isinstance(w, list) and len(w) == 2
                   and all(isinstance(c, int) for c in w) for w in data["weights"]):
            raise ExprError("weights must be [a, b] integer pairs")
        pairs = [tuple(w) for w in data["weights"]]
        gens = ctx.generators()
        if len(pairs) != len(gens):
            raise ExprError("weights must list one pair per generator")
        weights = WeightVector(ctx, dict(zip(gens, pairs)))
    casimirs = {name: parse_expr(text, ctx, budget=budget)
                for name, text in data.get("casimirs", {}).items()}
    return AlgebraData(ctx, structure, ore, weights, casimirs)


@functools.cache
def builtin_algebra() -> AlgebraData:
    """The built-in algebra, loaded once per process; callers share it and
    must not change its tables."""
    with resources.files("poisson_forge.data").joinpath("g2_algebra.json").open(
            encoding="utf-8") as handle:
        return load_algebra(json.load(handle))


def builtin_scalar_derivation(which: str) -> dict:
    """{"images": {name: text}} of the scalar derivation on the quotient
    'beta_zero' or 'alpha_zero': the Euler derivation whose lam spans the
    integer vectors killing the weight of the Casimir that stays live
    (Omega1, Omega2 respectively).  Sign rule: <lam, w(X5)> > 0."""
    alg = builtin_algebra()
    live = {"beta_zero": "Omega1", "alpha_zero": "Omega2"}[which]
    lam, = integer_kernel([[c] for c in alg.weights.weight_of(alg.casimirs[live])])
    a, b = alg.weights.weights[alg.context.index("X5")]
    sign = 1 if lam[0] * a + lam[1] * b > 0 else -1
    D = euler_derivation(alg.weights, [sign * c for c in lam])
    return {"images": {name: str(image) for name, image in D.images.items()}}


# The skew-symmetric matrix of the target Poisson affine space, as printed;
# the chain suite checks that the sigma table reproduces it entry by entry.
TORUS_MATRIX = [
    [0, 3, 1, 0, -1, -3],
    [-3, 0, 3, 3, 0, -3],
    [-1, -3, 0, 3, 1, 0],
    [0, -3, -3, 0, 3, 3],
    [1, 0, -1, -3, 0, 3],
    [3, 3, 0, -3, -3, 0],
]

# Explicit chain formulas, structurally: (i, j) -> list of terms
# (coefficient, ((i', j', power), ...)) read as  X[i,j] = sum of
# coeff * prod X[i',j']^power  over level-j' generators (j' = j + 1,
# with X[i,7] the original X_i).  The chain suite reproduces every one
# of them from the sigma/delta tables alone.
ChainTerm = tuple[str, tuple[tuple[int, int, int], ...]]
CHAIN_FORMULAS: dict[tuple[int, int], list[ChainTerm]] = {
    (1, 6): [("1", ((1, 7, 1),)), ("-1/2", ((5, 7, 1), (6, 7, -1)))],
    (2, 6): [("1", ((2, 7, 1),)), ("3/2", ((4, 7, 1), (6, 7, -1))),
             ("-3", ((3, 7, 1), (5, 7, 1), (6, 7, -1))),
             ("1", ((5, 7, 3), (6, 7, -2)))],
    (3, 6): [("1", ((3, 7, 1),)), ("-1", ((5, 7, 2), (6, 7, -1)))],
    (4, 6): [("1", ((4, 7, 1),)), ("-2/3", ((5, 7, 3), (6, 7, -1)))],
    (1, 5): [("1", ((1, 6, 1),)), ("-1", ((3, 6, 1), (5, 6, -1))),
             ("3/4", ((4, 6, 1), (5, 6, -2)))],
    (2, 5): [("1", ((2, 6, 1),)), ("-3", ((3, 6, 2), (5, 6, -1))),
             ("9/2", ((3, 6, 1), (4, 6, 1), (5, 6, -2))),
             ("-9/4", ((4, 6, 2), (5, 6, -3)))],
    (3, 5): [("1", ((3, 6, 1),)), ("-3/2", ((4, 6, 1), (5, 6, -1)))],
    (1, 4): [("1", ((1, 5, 1),)), ("-1/3", ((3, 5, 2), (4, 5, -1)))],
    (2, 4): [("1", ((2, 5, 1),)), ("-2/3", ((3, 5, 3), (4, 5, -1)))],
    (1, 3): [("1", ((1, 4, 1),)), ("-1/2", ((2, 4, 1), (3, 4, -1)))],
}

# T_i = X[i,2] = ... = X[i, level]: the level at which each generator
# stabilises (every later X[i,j] equals it; T_5 = X_5 and T_6 = X_6).
CHAIN_STABLE_LEVEL = {1: 3, 2: 4, 3: 5, 4: 6, 5: 7, 6: 7}

# Omega pullback ladders: level -> expression in the level generators,
# same structured term encoding.
OMEGA1_LADDER: dict[int, list[ChainTerm]] = {
    3: [("1", ((1, 3, 1), (3, 3, 1), (5, 3, 1)))],
    4: [("1", ((1, 4, 1), (3, 4, 1), (5, 4, 1))),
        ("-1/2", ((2, 4, 1), (5, 4, 1)))],
    5: [("1", ((1, 5, 1), (3, 5, 1), (5, 5, 1))),
        ("-1/2", ((2, 5, 1), (5, 5, 1)))],
    6: [("1", ((1, 6, 1), (3, 6, 1), (5, 6, 1))),
        ("-3/2", ((1, 6, 1), (4, 6, 1))),
        ("-1/2", ((2, 6, 1), (5, 6, 1))),
        ("1/2", ((3, 6, 2),))],
}
OMEGA2_LADDER: dict[int, list[ChainTerm]] = {
    4: [("1", ((2, 4, 1), (4, 4, 1), (6, 4, 1)))],
    5: [("1", ((2, 5, 1), (4, 5, 1), (6, 5, 1))),
        ("-2/3", ((3, 5, 3), (6, 5, 1)))],
    6: [("1", ((2, 6, 1), (4, 6, 1), (6, 6, 1))),
        ("-2/3", ((3, 6, 3), (6, 6, 1)))],
}

# The four rewrite identities of the quotient (x3^2, x4^2, x3^2*x4,
# x3*x4^2); each reduces to zero in normal form.
REWRITE_IDENTITIES: dict[str, tuple[str, str]] = {
    "x3^2": ("x3^2", "2*alpha + 3*x1*x4 + x2*x5 - 2*x1*x3*x5"),
    "x4^2": (
        "x4^2",
        "2/3*beta + 8/9*alpha*x3*x6 + 4/3*x1*x3*x4*x6 + 4/9*x2*x3*x5*x6"
        " - 16/9*alpha*x1*x5*x6 - 8/3*x1^2*x4*x5*x6 + 16/9*x1^2*x3*x5^2*x6"
        " - 8/9*x2*x5^3 - 8/3*alpha*x5^2 - 4*x1*x4*x5^2 + 8/3*x1*x3*x5^3"
        " + 2*x3*x4*x5 - 2/3*x2*x4*x6 - 8/9*x1*x2*x5^2*x6",
    ),
    "x3^2*x4": (
        "x3^2*x4",
        "2*alpha*x4 + x2*x4*x5 + 2*beta*x1 + 8/3*alpha*x1*x3*x6"
        " + 4*x1^2*x3*x4*x6 + 4/3*x1*x2*x3*x5*x6 - 8*x1^3*x4*x5*x6"
        " - 8/3*x1^2*x2*x5^2*x6 + 16/3*x1^3*x3*x5^2*x6 - 8/3*x1*x2*x5^3"
        " - 8*alpha*x1*x5^2 - 12*x1^2*x4*x5^2 + 8*x1^2*x3*x5^3"
        " + 4*x1*x3*x4*x5 - 2*x1*x2*x4*x6 - 16/3*alpha*x1^2*x5*x6",
    ),
    "x3*x4^2": (
        "x3*x4^2",
        "2/3*beta*x3 + 16/9*alpha^2*x6 + 16/3*alpha*x1*x4*x6"
        " + 16/9*alpha*x2*x5*x6 + 16/9*alpha*x1*x3*x5*x6 + 4/9*x2^2*x5^2*x6"
        " + 8/9*x1*x2*x3*x5^2*x6 - 64/9*alpha*x1^3*x5*x6^2"
        " - 160/9*alpha*x1^2*x5^2*x6 - 80/3*x1^3*x4*x5^2*x6"
        " - 64/9*x1^2*x2*x5^3*x6 - 8/9*x2*x3*x5^3 - 8/3*alpha*x3*x5^2"
        " + 4*x1*x3*x4*x5^2 + 160/9*x1^3*x3*x5^3*x6 - 16*x1^2*x4*x5^3"
        " - 8/3*x1*x2*x5^4 - 4/3*x1*x2*x4*x5*x6 + 8/3*beta*x1^2*x6"
        " + 32/9*alpha*x1^2*x3*x6^2 + 16/3*x1^3*x3*x4*x6^2"
        " + 16/9*x1^2*x2*x3*x5*x6^2 - 32/3*x1^4*x4*x5*x6^2"
        " - 8/3*x1^2*x2*x4*x6^2 + 4*alpha*x4*x5 + 2*x2*x4*x5^2"
        " + 4*beta*x1*x5 + 64/9*x1^4*x3*x5^2*x6^2 - 2/3*x2*x3*x4*x6"
        " - 32/3*alpha*x1*x5^3 + 32/3*x1^2*x3*x5^4 + 32/3*x1^2*x3*x4*x5*x6"
        " - 32/9*x1^3*x2*x5^2*x6^2",
    ),
}
