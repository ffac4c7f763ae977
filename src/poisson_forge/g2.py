"""Built-in algebra: the rank-6 Poisson algebra of G2 type.

The definition file data/g2_algebra.json carries the bracket table, the
torus weights and the two Casimirs Omega1, Omega2; the sigma/delta data of
the iterated Poisson-Ore presentation are read off the bracket table in
generator order.  This module loads that file (or a user-supplied one with
the same schema) through ``read_object``, the one check of both input
files (the algebra and a ``decompose`` spec), which refuses a field it
does not know.  It keeps the golden constants the verification suites
compare against: the skew-symmetric matrix of the target torus, and as
text in the package grammar, written as the package prints it, the
explicit change-of-variables formulas of the deleting-derivations chain,
the Omega pullback ladders, the localisation-tower identities (each
label is the identity it states) and the four quotient rewrite
identities; ``golden_poly`` parses each of these texts once per process
and context, for the chain and the quotient alike.  The scalar
derivations of the degenerate quotients are derived from the weights,
signed so that X5 -> X5.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from decimal import Decimal
from importlib import resources
from pathlib import Path

from .expr import (ExprError, LaurentPoly, ProductBudget, VarContext,
                   WorkLimitError)
from .linalg import integer_kernel
from .parse import parse_expr
from .poisson import PoissonOreData, PoissonStructure, WeightVector, euler_derivation


@dataclass(frozen=True)
class AlgebraData:
    context: VarContext
    structure: PoissonStructure
    weights: WeightVector | None
    casimirs: dict[str, LaurentPoly]

    @functools.cached_property
    def ore(self) -> PoissonOreData:
        """The Poisson-Ore presentation of the bracket table in generator
        order, read off once on first use; ExprError when the table is
        not in that form."""
        return PoissonOreData(self.structure)


def _pair_key(key: str, rank: int) -> tuple[int, int]:
    try:
        # int also reads other scripts' digits and "_" separators
        if not key.isascii() or "_" in key:
            raise ValueError(key)
        i, j = (int(p) for p in key.split(","))
    except ValueError:
        raise ExprError(f"bad index pair {key!r}; expected 'i,j'") from None
    if not (1 <= i <= rank and 1 <= j <= rank) or i == j:
        raise ExprError(f"index pair {key!r} out of range")
    return i - 1, j - 1


#: Most exponent entries (terms times rank) the expressions of one
#: definition may store.  Their memory grows as rank^3 for a full table:
#: the rank-100 files of the tests store 495000, and a rank-200 table of
#: 19900 one-term entries would store 3980000 (94 MB).
MAX_STORED_EXPONENTS = 1_000_000

#: Most bytes ``read_json`` takes from a file: about three times the
#: 318 KB rank-200 algebra file of the tests.
MAX_FILE_BYTES = 1_000_000


def read_json(path) -> object:
    """The JSON value in the file at ``path``, UTF-8.  At most
    ``MAX_FILE_BYTES`` are read (a longer file raises ``WorkLimitError``),
    and every decoder error raises ``ExprError``: text that is not JSON
    or not UTF-8, nesting too deep, or an integer past Python's limit on
    its digits.  A number with a fraction or an exponent loads as its
    exact ``Decimal``, never as a float, so ``expr.rational`` sees it as
    written."""
    with open(path, "rb") as handle:
        raw = handle.read(MAX_FILE_BYTES + 1)
    if len(raw) > MAX_FILE_BYTES:
        raise WorkLimitError(f"{path} is larger than {MAX_FILE_BYTES} bytes")
    try:
        return json.loads(raw.decode("utf-8"), parse_float=Decimal)
    except RecursionError:
        raise ExprError(f"{path} nests JSON values too deeply") from None
    except ValueError as err:
        raise ExprError(f"{path}: {err}") from None


#: The JSON kind of each Python type a field of an input file may hold.
_KINDS = {dict: "object", list: "array", int: "integer"}


def read_object(source, what: str, required: dict, optional: dict) -> dict:
    """The JSON object of a ``what`` at ``source`` (a path for
    ``read_json``, or a value parsed already), checked against its
    fields: ``required`` and ``optional`` map each field name to the
    Python type its value must have exactly, so JSON ``true`` is no
    integer.  ExprError when the value is no JSON object, misses a
    required field, holds a field of neither map, or holds a field of
    another kind."""
    data = read_json(source) if isinstance(source, (str, Path)) else source
    if type(data) is not dict:
        raise ExprError(f"{what} must be a JSON object")
    for field in required:
        if field not in data:
            raise ExprError(f"{what} misses {field!r}")
    for field, value in data.items():
        kind = required.get(field, optional.get(field))
        if kind is None:
            raise ExprError(f"{what} has an unknown field {field!r}; its fields"
                            f" are {', '.join(map(repr, {**required, **optional}))}")
        if type(value) is not kind:
            raise ExprError(f"{what} field {field!r} must be a JSON {_KINDS[kind]}")
    return data


def load_algebra(source, budget: ProductBudget | None = None) -> AlgebraData:
    """Build an AlgebraData from a JSON definition file or parsed dict.

    Schema: {"variables": [...], "invertible": [...], "parameters": [...],
    "brackets": {"i,j": "expr"}, "weights": [[a, b], ...],
    "casimirs": {"name": "expr"}} -- only "variables" and "brackets"
    required, no other field allowed (``read_object``), expressions in
    the package grammar, indices 1-based.  The Poisson-Ore data (``ore``)
    are read off the brackets in generator order.  The expressions of one
    definition share one ``MAX_PRODUCTS`` budget (``budget``, a fresh one
    when none is given), and together store at most
    ``MAX_STORED_EXPONENTS`` exponent entries.
    """
    data = read_object(source, "algebra definition",
                       {"variables": list, "brackets": dict},
                       {"invertible": list, "parameters": list, "weights": list,
                        "casimirs": dict})
    for field in ("variables", "invertible", "parameters"):
        if not all(isinstance(name, str) for name in data.get(field, ())):
            raise ExprError(f"algebra definition field {field!r} must list names as"
                            " JSON strings")
    ctx = VarContext.make(data["variables"],
                          invertible=data.get("invertible", ()),
                          parameters=data.get("parameters", ()))
    budget = ProductBudget() if budget is None else budget
    stored = 0

    def parsed(text):
        nonlocal stored
        value = parse_expr(text, ctx, budget=budget)
        stored += len(value.terms) * ctx.rank
        if stored > MAX_STORED_EXPONENTS:
            raise WorkLimitError("algebra definition stores more than"
                                 f" {MAX_STORED_EXPONENTS} exponent entries")
        return value

    table = {}
    for key, text in data["brackets"].items():
        i, j = _pair_key(key, ctx.rank)
        value = parsed(text)
        if j < i:
            i, j, value = j, i, -value
        if (i, j) in table:
            raise ExprError(f"duplicate bracket entry for {key!r}")
        table[(i, j)] = value
    structure = PoissonStructure(ctx, table)

    weights = None
    if "weights" in data:
        # JSON true and false load as bool, a subclass of int
        if not all(isinstance(w, list) and len(w) == 2
                   and all(type(c) is int for c in w) for w in data["weights"]):
            raise ExprError("weights must be [a, b] integer pairs")
        pairs = [tuple(w) for w in data["weights"]]
        gens = ctx.generators()
        if len(pairs) != len(gens):
            raise ExprError("weights must list one pair per generator")
        weights = WeightVector(ctx, dict(zip(gens, pairs)))
    casimirs = {name: parsed(text)
                for name, text in data.get("casimirs", {}).items()}
    return AlgebraData(ctx, structure, weights, casimirs)


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


# Unbounded, but only the golden texts below are read through it; callers
# read the shared result and never change it.
@functools.cache
def golden_poly(text: str, context: VarContext) -> LaurentPoly:
    """``text``, a golden text of this module, parsed in ``context``: each
    (text, context) is parsed once per process."""
    return parse_expr(text, context)


# The skew-symmetric matrix of the target Poisson affine space, as printed;
# the chain suite checks that the mu scalars of the bracket table reproduce
# it entry by entry.
TORUS_MATRIX = [
    [0, 3, 1, 0, -1, -3],
    [-3, 0, 3, 3, 0, -3],
    [-1, -3, 0, 3, 1, 0],
    [0, -3, -3, 0, 3, 3],
    [1, 0, -1, -3, 0, 3],
    [3, 3, 0, -3, -3, 0],
]

# Explicit chain formulas: (i, j) -> X[i,j] as text in the generators
# X1..X6 of level j + 1 (level 7 is X itself), as the package prints it.
# The chain suite reproduces every one of them from the bracket table alone.
CHAIN_FORMULAS: dict[tuple[int, int], str] = {
    (1, 6): "X1 - 1/2*X5*X6^-1",
    (2, 6): "X2 + 3/2*X4*X6^-1 - 3*X3*X5*X6^-1 + X5^3*X6^-2",
    (3, 6): "X3 - X5^2*X6^-1",
    (4, 6): "X4 - 2/3*X5^3*X6^-1",
    (1, 5): "X1 - X3*X5^-1 + 3/4*X4*X5^-2",
    (2, 5): "X2 - 3*X3^2*X5^-1 + 9/2*X3*X4*X5^-2 - 9/4*X4^2*X5^-3",
    (3, 5): "X3 - 3/2*X4*X5^-1",
    (1, 4): "X1 - 1/3*X3^2*X4^-1",
    (2, 4): "X2 - 2/3*X3^3*X4^-1",
    (1, 3): "X1 - 1/2*X2*X3^-1",
}

# T_i = X[i,2] = ... = X[i, level]: the level at which each generator
# stabilises (every later X[i,j] equals it; T_5 = X_5 and T_6 = X_6).
CHAIN_STABLE_LEVEL = {1: 3, 2: 4, 3: 5, 4: 6, 5: 7, 6: 7}

# Omega pullback ladders: level -> the Casimir as text in the generators
# X1..X6 of that level, as printed.
OMEGA1_LADDER: dict[int, str] = {
    3: "X1*X3*X5",
    4: "-1/2*X2*X5 + X1*X3*X5",
    5: "-1/2*X2*X5 + X1*X3*X5",
    6: "-3/2*X1*X4 - 1/2*X2*X5 + 1/2*X3^2 + X1*X3*X5",
}
OMEGA2_LADDER: dict[int, str] = {
    4: "X2*X4*X6",
    5: "X2*X4*X6 - 2/3*X3^3*X6",
    6: "X2*X4*X6 - 2/3*X3^3*X6",
}

# The identities of the localisation tower, each label read as the identity
# it states: a leading "relation " dropped, x(i,j) the tower element X[i,j],
# t_i = T_i, x_i the quotient generators and alpha, beta its parameters.
TOWER_IDENTITIES = (
    "t5 = x5",
    "relation z2*t5 = 2*(z1*t3*t5 - alpha)",
    "relation t3^3*t5*t6 = 3*z1*t3*t4*t5*t6 - 3/2*beta*t5 - 3*alpha*t4*t6",
    "t1*t3*t5 = alpha",
    "t2*t4*t6 = beta",
    "f1 = t1 + 1/2*t2*t3^-1",
    "x(3,6) = t3 + 3/2*t4*t5^-1",
    "z1 = f1 + 1/3*t3^2*t4^-1",
    "x1 = x(1,6) + 1/2*t5*t6^-1",
    "z2 = t2 + 2/3*t3^3*t4^-1",
    "x3 = x(3,6) + t5^2*t6^-1",
    "x(1,6) = z1 + x(3,6)*t5^-1 - 3/4*t4*t5^-2",
    "x4 = t4 + 2/3*t5^3*t6^-1",
)

# The four rewrite identities of the quotient: each monomial and its normal
# form, whose difference reduces to zero.
REWRITE_IDENTITIES: dict[str, str] = {
    "x3^2": "2*alpha + 3*x1*x4 + x2*x5 - 2*x1*x3*x5",
    "x4^2": (
        "2/3*beta + 8/9*alpha*x3*x6 + 4/3*x1*x3*x4*x6 + 4/9*x2*x3*x5*x6"
        " - 16/9*alpha*x1*x5*x6 - 8/3*x1^2*x4*x5*x6 + 16/9*x1^2*x3*x5^2*x6"
        " - 8/9*x2*x5^3 - 8/3*alpha*x5^2 - 4*x1*x4*x5^2 + 8/3*x1*x3*x5^3"
        " + 2*x3*x4*x5 - 2/3*x2*x4*x6 - 8/9*x1*x2*x5^2*x6"
    ),
    "x3^2*x4": (
        "2*alpha*x4 + x2*x4*x5 + 2*beta*x1 + 8/3*alpha*x1*x3*x6"
        " + 4*x1^2*x3*x4*x6 + 4/3*x1*x2*x3*x5*x6 - 8*x1^3*x4*x5*x6"
        " - 8/3*x1^2*x2*x5^2*x6 + 16/3*x1^3*x3*x5^2*x6 - 8/3*x1*x2*x5^3"
        " - 8*alpha*x1*x5^2 - 12*x1^2*x4*x5^2 + 8*x1^2*x3*x5^3"
        " + 4*x1*x3*x4*x5 - 2*x1*x2*x4*x6 - 16/3*alpha*x1^2*x5*x6"
    ),
    "x3*x4^2": (
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
        " - 32/9*x1^3*x2*x5^2*x6^2"
    ),
}
