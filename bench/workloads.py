"""The three benchmark workloads.

Each workload class builds the program's side in ``__init__`` (the timed
set-up: the import of poisson_forge, the built-in algebra and every ring
or structure the batch uses), makes its seeded inputs when ``ops()`` lists
the batch (after the set-up clock has stopped), and judges one round of
outputs with ``check()`` through the outside oracles.  The batch is a
pure function of the seed; a round is the whole batch, run in list order.

Why these workloads: ``verify-all`` is the headline use and touches every
layer; ``normal-form`` stresses quotient reduction and coefficient
arithmetic and never reaches the bracket or the linear algebra;
``centre-search`` stresses the bracket and the RREF with little
reduction.  An optimisation of one of these layers is therefore
exercised by one workload and bypassed by another.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

# Suites cheap enough for the smoke mode; jacobi and casimir keep the
# sympy agreement check in play.
SMOKE_SUITES = ["jacobi", "casimir", "pl2", "quotient", "localization", "grading"]

# Nested parentheses deep enough to exceed the default recursion limit.
NESTED_DEPTH = 3000


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    # a named fault of the program, kept as an op until it is mended: its
    # failure is counted but does not make the run incorrect
    known_fault: bool = False


# Stands in the outputs of a round for an op that raised.
FAILED = object()


class ContractBreach(Exception):
    """A CLI call ended otherwise than in a typed error with exit 2."""


def _late(owner, name: str, *args):
    """Call ``owner.name(*args)``, looked up only when the op runs, so that
    a traced round reaches the instrumented function."""
    return getattr(owner, name)(*args)


def _rational(rng: random.Random, top: int = 9) -> Fraction:
    value = Fraction(0)
    while value == 0:
        value = Fraction(rng.randint(-top, top), rng.randint(1, 4))
    return value


def _text(terms: list[tuple[Fraction, dict[str, int]]]) -> str:
    """Expression text of a sum of monomials, in the package grammar."""
    parts = []
    for coeff, powers in terms:
        factors = [str(coeff)] + [name if e == 1 else f"{name}^{e}"
                                  for name, e in powers.items() if e]
        parts.append("*".join(factors))
    return " + ".join(parts)


def _term_dict(terms, names) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for coeff, powers in terms:
        key = tuple(powers.get(name, 0) for name in names)
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


# -- verify-all -------------------------------------------------------------------

class VerifyAll:
    """The suites of ``poisson-forge verify all``, one op per suite.

    Each suite goes through ``cli.main(["verify", name])`` in SUITE_NAMES
    order with the default seed, exactly as the command line runs it.  The
    inputs do not depend on the benchmark seed.
    """

    name = "verify-all"

    def __init__(self, seed: int, smoke: bool = False):
        from poisson_forge import cli, g2
        from poisson_forge.suites import SUITE_NAMES
        self.cli = cli
        # set-up as users pay it; each suite then loads the algebra again
        self.algebra = g2.builtin_algebra()
        self.suites = list(SMOKE_SUITES if smoke else SUITE_NAMES)

    def ops(self) -> list[Op]:
        return [Op(f"verify {name}", functools.partial(self._verify, name))
                for name in self.suites]

    def _verify(self, name: str):
        out = io.StringIO()
        code = self.cli.main(["verify", name], out=out)
        return code, out.getvalue()

    @staticmethod
    def digest(output):
        return output

    def check(self, outputs) -> list[str]:
        failures = []
        texts = {}
        for name, output in zip(self.suites, outputs):
            if output is FAILED:
                continue
            code, text = output
            failures += oracles.check_suite_text(name, code, text)
            texts[name] = text
        alg = oracles.SympyAlgebra()
        if "jacobi" in texts:
            failures += oracles.check_agreement("jacobi", texts["jacobi"],
                                                alg.jacobi_verdicts())
        if "casimir" in texts:
            failures += oracles.check_agreement("casimir", texts["casimir"],
                                                alg.casimir_verdicts())
        return failures


# -- normal-form ------------------------------------------------------------------

# ring key -> (alpha, beta, localized)
RINGS = {
    "sym": ("symbolic", "symbolic", False),
    "1,1": (1, 1, False),
    "1,0": (1, 0, False),
    "0,1": (0, 1, False),
    "loc": ("symbolic", "symbolic", True),
}

# The one-shot reductions: (ring, [(sum of monomial exponents, power)]).
# Shapes are fixed; the seed draws every coefficient and a degree-one
# multiplier, so a batch costs about the same for every seed.
LARGE = [
    ("sym", [([{"x3": 1}], 16)]),
    ("1,1", [([{"x3": 1}], 20)]),
    ("1,0", [([{"x4": 1}], 9)]),
    ("0,1", [([{"x3": 1}], 6), ([{"x4": 1}], 5)]),
    ("sym", [([{"x3": 1}, {"x4": 1}], 7)]),
    ("1,1", [([{"x1": 1}, {"x3": 1}, {"x4": 1}, {"x5": 1}], 6)]),
    ("loc", [([{"x3": 1}, {"x4": 1, "x5": -1}, {"x6": -1}], 6)]),
]
SMOKE_LARGE = [
    ("sym", [([{"x3": 1}], 8)]),
    ("1,1", [([{"x4": 1}], 5)]),
    ("loc", [([{"x3": 1}, {"x4": 1, "x5": -1}], 4)]),
]
# The small ops repeat this cycle of 20 products of two reduced elements:
# (ring, (x3, x4) exponents of the terms of each factor).  It follows the
# normal_form calls one in-process ``verify all`` makes (2278 with a
# polynomial input): terms in 1/2/3/4/more for 18/34/28/8/4% of calls
# there, 20/35/30/10/5% here; terms needing a rewrite 0/1/2/3+ for
# 54/35/9/2% there, 50/35/10/5% here; rings (1,1)/(1,0)/localised/
# symbolic/other 48/41/5/4/2% there, 45/40/5/5/5% here.
SMALL_CYCLE = [
    ("1,1", [(1, 0)], [(0, 1)]),
    ("1,0", [(1, 1)], [(0, 0)]),
    ("1,1", [(1, 0)], [(1, 0)]),
    ("1,0", [(0, 1)], [(0, 1)]),
    ("1,1", [(1, 0)], [(0, 1), (0, 0)]),
    ("1,0", [(0, 1)], [(1, 0), (0, 0)]),
    ("1,1", [(0, 0)], [(1, 1), (1, 0)]),
    ("loc", [(1, 0)], [(0, 0), (0, 1)]),
    ("1,0", [(1, 0)], [(1, 0), (0, 1)]),
    ("1,1", [(1, 0)], [(1, 1), (0, 0)]),
    ("1,0", [(1, 0)], [(1, 0), (1, 0)]),
    ("1,1", [(0, 0)], [(1, 0), (0, 1), (1, 1)]),
    ("sym", [(1, 0)], [(0, 0), (0, 1), (0, 0)]),
    ("1,0", [(0, 1)], [(1, 0), (0, 0), (1, 0)]),
    ("1,1", [(1, 0)], [(1, 0), (0, 1), (0, 0)]),
    ("1,0", [(1, 0)], [(0, 1), (1, 0), (0, 0)]),
    ("1,1", [(1, 1)], [(1, 0), (0, 1), (0, 0)]),
    ("1,0", [(1, 0), (0, 0)], [(0, 1), (0, 0)]),
    ("1,1", [(1, 0), (0, 1)], [(0, 1), (0, 0)]),
    ("0,1", [(1, 0), (0, 1), (0, 0)], [(1, 0), (1, 0), (1, 0), (0, 0)]),
]
# as many small ops as that ``verify all`` makes normal_form calls
SMALL_COUNT, SMOKE_SMALL_COUNT = 114 * len(SMALL_CYCLE), 2 * len(SMALL_CYCLE)


class NormalForm:
    """A seeded batch of ``QuotientRing.normal_form`` calls, one op each.

    A few large one-shot reductions of powers and powers of sums, many
    small incremental ones (the product of two reduced elements, as
    ``QuotientElement.__mul__`` makes it), and the two ``nf`` command-line
    inputs that today escape as tracebacks.
    """

    name = "normal-form"

    def __init__(self, seed: int, smoke: bool = False):
        from poisson_forge import cli, g2
        from poisson_forge.quotient import QuotientRing
        self.cli = cli
        self.algebra = g2.builtin_algebra()
        self.rings = {key: QuotientRing(alpha=a, beta=b, localized=loc)
                      for key, (a, b, loc) in RINGS.items()}
        self.names = self.rings["sym"].context.names
        self.seed = seed
        self.smoke = smoke

    @functools.cached_property
    def cases(self) -> list[tuple]:
        """(label, ring key, factors over names, program input) per op."""
        from poisson_forge.expr import LaurentPoly
        from poisson_forge.quotient import QuotientElement
        rng = random.Random(self.seed)
        names = self.names
        cases = []
        for k, (key, shape) in enumerate(SMOKE_LARGE if self.smoke else LARGE):
            mult = {rng.choice(("x1", "x2", "x5", "x6")): 1}
            factors = [([(_rational(rng), mult)], 1)]
            for monomials, power in shape:
                factors.append(([(_rational(rng), m) for m in monomials], power))
            text = " * ".join(f"({_text(terms)})^{power}" for terms, power in factors)
            described = [(_term_dict(terms, names), power) for terms, power in factors]
            cases.append((f"large {k} on {key}", key, described, text))
        for k in range(SMOKE_SMALL_COUNT if self.smoke else SMALL_COUNT):
            key, *patterns = SMALL_CYCLE[k % len(SMALL_CYCLE)]
            ring = self.rings[key]
            a, b = (self._reduced_terms(rng, key, pattern) for pattern in patterns)
            elements = tuple(QuotientElement(ring, LaurentPoly(ring.context, _term_dict(t, names)))
                             for t in (a, b))
            described = [(_term_dict(a, names), 1), (_term_dict(b, names), 1)]
            cases.append((f"small {k} on {key}", key, described, elements))
        return cases

    @staticmethod
    def _reduced_terms(rng: random.Random, key: str, pattern):
        """Terms over the quotient basis with the given (x3, x4) exponents."""
        symbolic = RINGS[key][0] == "symbolic"
        low = -2 if RINGS[key][2] else 0
        terms = []
        for e3, e4 in pattern:
            powers = {"x3": e3, "x4": e4}
            for _ in range(2):
                name = rng.choice(("x1", "x2", "x5", "x6"))
                powers[name] = powers.get(name, 0) + 1
            if low:
                for name in ("x5", "x6"):
                    powers[name] = powers.get(name, 0) + rng.randint(low, 0)
            if symbolic and rng.random() < 0.3:
                powers[rng.choice(("alpha", "beta"))] = 1
            terms.append((_rational(rng), powers))
        return terms

    def ops(self) -> list[Op]:
        ops = []
        for label, key, _, program_input in self.cases:
            ring = self.rings[key]
            if isinstance(program_input, str):
                call = functools.partial(_late, ring, "normal_form", program_input)
            else:
                a, b = program_input
                call = functools.partial(_element_product, a, b)
            ops.append(Op(label, call))
        ops.append(Op("cli nf 1/0", functools.partial(self._cli_nf, "1/0"),
                      known_fault=True))
        nested = "(" * NESTED_DEPTH + "x1" + ")" * NESTED_DEPTH
        ops.append(Op(f"cli nf nested {NESTED_DEPTH}",
                      functools.partial(self._cli_nf, nested), known_fault=True))
        return ops

    def _cli_nf(self, expr: str) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.main(["nf", expr], out=out)
        if code != 2 or not err.getvalue().startswith("error:"):
            raise ContractBreach(f"nf {expr[:12]!r} exited {code}")
        return code

    @staticmethod
    def digest(output):
        return output if isinstance(output, int) else output.terms

    def check(self, outputs) -> list[str]:
        failures = []
        rng = random.Random(f"points {self.seed}")
        alg = oracles.SympyAlgebra()
        points = {}
        for key, (a, b, _) in RINGS.items():
            alpha = None if a == "symbolic" else Fraction(a)
            beta = None if b == "symbolic" else Fraction(b)
            points[key] = alg.variety_points(rng, alpha, beta, 2)
        symbolic = self.rings["sym"]
        for (label, key, factors, program_input), output in zip(self.cases, outputs):
            if output is FAILED:
                continue
            names = list(output.context.names)
            if names != list(self.names):
                failures.append(f"{label}: output over an unexpected context")
                continue
            failures += oracles.check_normal_form(factors, output.terms, names,
                                                  points[key], label)
            alpha, beta, _ = RINGS[key]
            if alpha != "symbolic":
                if not isinstance(program_input, str):
                    program_input = program_input[0].poly * program_input[1].poly
                reference = symbolic.normal_form(program_input)
                failures += oracles.check_specialisation(
                    output.terms, reference.terms, names,
                    Fraction(alpha), Fraction(beta), label)
        return failures


def _element_product(a, b):
    return (a * b).poly


# -- centre-search ------------------------------------------------------------------

AMBIENT_DEGREES, SMOKE_AMBIENT_DEGREES = (2, 3, 4, 5, 6), (2, 3, 4)
QUOTIENT_DEGREES, SMOKE_QUOTIENT_DEGREES = (2, 3, 4), (2, 3)
# f has degree 2, so these searches sit below the median op of the
# batch and its op_p50_ms does not hang on the seed.
HAM_COUNT, HAM_DEGREE = 2, 2


class CentreSearch:
    """Bounded centre and inner-derivation searches, one op per call.

    The ambient centre at degrees 2..6, the centre of the (1,1) quotient
    at degrees 2..4, the inner search for the beta=0 scalar derivation at
    degree 4 (which must fail), and inner searches for the hamiltonian
    derivations of seeded f of degree 2 on the (1,1) quotient (which must
    recover f without its constant term).
    """

    name = "centre-search"

    def __init__(self, seed: int, smoke: bool = False):
        from poisson_forge import g2
        from poisson_forge.quotient import QuotientRing, parse_derivation
        self.algebra = g2.builtin_algebra()
        self.ring11 = QuotientRing(alpha=1, beta=1)
        self.ring10 = QuotientRing(alpha=1, beta=0)
        self.theta = parse_derivation(
            g2.builtin_scalar_derivation("beta_zero")["images"], self.ring10)
        self.ambient_degrees = SMOKE_AMBIENT_DEGREES if smoke else AMBIENT_DEGREES
        self.quotient_degrees = SMOKE_QUOTIENT_DEGREES if smoke else QUOTIENT_DEGREES
        self.search_degree = 2 if smoke else 4
        self.ham_degree = HAM_DEGREE
        self.seed = seed

    @functools.cached_property
    def hams(self) -> list[tuple]:
        """(images of ham_f, f without its constant term) per seeded f."""
        from poisson_forge.expr import LaurentPoly
        from poisson_forge.quotient import hamiltonian_quotient_images
        rng = random.Random(self.seed)
        names = self.ring11.context.names
        hams = []
        for _ in range(HAM_COUNT):
            terms = [(_rational(rng), {})]
            for _ in range(3):
                powers = {"x3": rng.randint(0, 1), "x4": rng.randint(0, 1)}
                while sum(powers.values()) < self.ham_degree:
                    name = rng.choice(("x1", "x2", "x5", "x6"))
                    powers[name] = powers.get(name, 0) + 1
                terms.append((_rational(rng), powers))
            f_terms = _term_dict(terms, names)
            f = LaurentPoly(self.ring11.context, f_terms)
            expected = {m: c for m, c in f_terms.items() if any(m)}
            hams.append((hamiltonian_quotient_images(f, self.ring11), expected))
        return hams

    def ops(self) -> list[Op]:
        from poisson_forge import quotient
        centre = functools.partial(_late, quotient, "bounded_centre")
        search = functools.partial(_late, quotient, "bounded_inner_search")
        ops = [Op(f"ambient centre d{d}",
                  functools.partial(centre, self.algebra.structure, d))
               for d in self.ambient_degrees]
        ops += [Op(f"quotient (1,1) centre d{d}", functools.partial(centre, self.ring11, d))
                for d in self.quotient_degrees]
        ops.append(Op(f"inner search beta=0 d{self.search_degree}",
                      functools.partial(search, self.theta, self.ring10,
                                        self.search_degree)))
        ops += [Op(f"inner search ham_f {k} d{self.ham_degree}",
                   functools.partial(search, images, self.ring11, self.ham_degree))
                for k, (images, _) in enumerate(self.hams)]
        return ops

    @staticmethod
    def digest(output):
        if output is None:
            return None
        if isinstance(output, list):
            return [p.terms for p in output]
        return output.terms

    def check(self, outputs) -> list[str]:
        failures = []
        alg = oracles.SympyAlgebra()
        ambient_names = list(self.algebra.context.names)
        n_amb, n_quo = len(self.ambient_degrees), len(self.quotient_degrees)
        for d, basis in zip(self.ambient_degrees, outputs[:n_amb]):
            if basis is not FAILED:
                failures += oracles.check_ambient_centre(
                    alg, d, [p.terms for p in basis], ambient_names)
        for d, basis in zip(self.quotient_degrees, outputs[n_amb:n_amb + n_quo]):
            if basis is not FAILED:
                failures += oracles.check_scalar_centre(
                    [p.terms for p in basis], f"quotient (1,1) centre d{d}")
        searches = outputs[n_amb + n_quo:]
        expectations = [None] + [expected for _, expected in self.hams]
        for k, (found, expected) in enumerate(zip(searches, expectations)):
            if found is FAILED:
                continue
            failures += oracles.check_inner_search(
                None if found is None else found.terms, expected, f"inner search {k}")
        return failures


WORKLOADS = {cls.name: cls for cls in (VerifyAll, NormalForm, CentreSearch)}
