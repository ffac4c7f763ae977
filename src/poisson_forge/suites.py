"""The built-in verification suites behind ``poisson-forge verify``.

Every suite runs on the built-in algebra data and returns a Report whose
items are exact identities (zero residue or golden-value comparison).
The torus suite is the only randomized one; it is seeded and reproducible.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import g2
from .chain import (builtin_chain, verify_central_ladders, verify_chain_formulas,
                    verify_centrality, verify_stage_contract,
                    verify_torus_relations)
from .expr import LaurentPoly
from .parse import parse_expr
from .poisson import (DerivationSpec, EtaError, PoissonStructure, WeightVector,
                      check_grading, check_jacobi, jacobi_residues)
from .quotient import (QuotientRing, bounded_centre, bounded_inner_search,
                       check_casimirs, check_quotient_derivation,
                       hamiltonian_quotient_images, parse_derivation,
                       quotient_jacobi_items, spans_same_space,
                       verify_localized_identities)
from .report import Report, check_item
from .torus import (Decomposition, DecompositionError, TorusStructure,
                    apply_decomposition, central_lattice, decompose_derivation)

DEFAULT_SEED = 20250809
TORUS_ROUNDS = 100


def _timed(builder):
    def run(**kwargs):
        start = time.perf_counter()
        name, checks = builder(**kwargs)
        return Report.from_checks(name, checks, time.perf_counter() - start)
    return run


def _triple_items(structure: PoissonStructure):
    names = structure.context.names
    return [check_item(f"jacobi ({names[i]},{names[j]},{names[k]})", residue)
            for (i, j, k), residue in jacobi_residues(structure)]


def _mutations(structure: PoissonStructure):
    """The sixteen single-coefficient mutations: +1 on the leading
    coefficient of each of the 15 table entries, plus the distinguished
    {X3, X1} -> -X1*X3 - 2*X2 perturbation."""
    ctx = structure.context
    cases = []
    for (i, j), value in sorted(structure.table.items()):
        lead, coeff = value.sorted_terms()[0]
        bumped = dict(value.terms)
        bumped[lead] = coeff + 1
        table = dict(structure.table)
        table[(i, j)] = LaurentPoly(ctx, bumped)
        cases.append((f"mutation ({ctx.names[i]},{ctx.names[j]}) leading"
                      " coefficient +1 is detected",
                      PoissonStructure(ctx, table)))
    table = dict(structure.table)
    table[(0, 2)] = parse_expr("X1*X3 + 2*X2", ctx)
    cases.append(("mutation {X3,X1} -> -X1*X3 - 2*X2 is detected",
                  PoissonStructure(ctx, table)))
    return [(label, check_jacobi(mutated) is not None,
             "mutation passed the Jacobi check") for label, mutated in cases]


@_timed
def suite_jacobi():
    alg = g2.builtin_algebra()
    return "jacobi", _triple_items(alg.structure) + _mutations(alg.structure)


@_timed
def suite_casimir():
    alg = g2.builtin_algebra()
    return "casimir", verify_centrality(alg.structure, alg.casimirs)


@_timed
def suite_pdda():
    alg = g2.builtin_algebra()
    stages = builtin_chain()
    items = []
    try:
        etas = tuple(alg.ore.eta(i) for i in (2, 3, 4, 5))
        items.append(("eta values (eta3, eta4, eta5, eta6) = (2, 6, 2, 6)",
                      etas == (2, 6, 2, 6), str(etas)))
    except EtaError as err:
        items.append(("eta values (eta3, eta4, eta5, eta6) = (2, 6, 2, 6)",
                      False, str(err)))
    items += verify_chain_formulas(stages)
    items += verify_torus_relations(stages[2], g2.TORUS_MATRIX, alg.ore)
    for stage in stages.values():
        items += verify_stage_contract(stage, alg.ore)
    return "pdda", items


@_timed
def suite_pullback():
    casimirs = g2.builtin_algebra().casimirs
    return "pullback", verify_central_ladders(builtin_chain(), casimirs)


@_timed
def suite_pl2():
    return "pl2", check_casimirs(QuotientRing())


@_timed
def suite_quotient():
    return "quotient", quotient_jacobi_items(QuotientRing())


@_timed
def suite_localization():
    return "localization", verify_localized_identities(QuotientRing(localized=True))


@_timed
def suite_torus(seed: int = DEFAULT_SEED):
    torus = TorusStructure.make(g2.TORUS_MATRIX)
    lattice = central_lattice(torus)
    items = [("central lattice of the torus matrix is"
              " [(1,0,1,0,1,0), (0,1,0,1,0,1)]",
              lattice == [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]], str(lattice))]
    rng = random.Random(seed)
    failures = []
    rejected = []
    for case in range(TORUS_ROUNDS):
        gamma, theta = _random_decomposition(torus, lattice, rng)
        D = _derivation_of(torus, gamma, theta)
        try:
            dec = decompose_derivation(D, torus)
        except DecompositionError as err:
            failures.append(f"case {case}: {err}")
            rejected.append(f"case {case}")
            continue
        if dec.gamma != gamma or dec.theta_images != theta:
            failures.append(f"case {case}: decomposition differs from input")
    items.append((f"{TORUS_ROUNDS} seeded decomposition roundtrips recover"
                  " (gamma, theta) exactly", not failures,
                  "; ".join(failures[:3]) or "0"))
    # decompose_derivation checks c_g against every generator, which is
    # what makes every witness choice give the same answer
    items.append(("compatibility holds across all witness choices",
                  not rejected, "; ".join(rejected[:3]) or "0"))
    return "torus", items


def _random_decomposition(torus, lattice, rng):
    ctx = torus.context
    gamma = ctx.zero()
    for _ in range(rng.randint(1, 4)):
        g = tuple(rng.randint(-2, 2) for _ in range(torus.rank))
        if torus.is_central(g):
            continue
        gamma = gamma + torus.monomial(
            g, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    theta = {}
    for name in torus.names:
        img = ctx.zero()
        for _ in range(rng.randint(0, 2)):
            coords = [rng.randint(-1, 1) for _ in lattice]
            vec = [sum(c * b[i] for c, b in zip(coords, lattice))
                   for i in range(torus.rank)]
            img = img + torus.monomial(vec, rng.randint(-5, 5))
        theta[name] = img
    return gamma, theta


def _derivation_of(torus, gamma, theta):
    return DerivationSpec(torus.context,
                          apply_decomposition(Decomposition(gamma, theta), torus))


@_timed
def suite_derivations():
    # the non-localised rings share one context, so each scalar derivation
    # is parsed once and checked on several rings
    items = []
    beta0 = QuotientRing(alpha="symbolic", beta=0)
    theta = parse_derivation(g2.builtin_scalar_derivation("beta_zero")["images"],
                             beta0)
    for label, ok, residue in check_quotient_derivation(theta, beta0):
        items.append((f"scalar derivation (beta=0 quotient): {label}", ok, residue))

    alpha0 = QuotientRing(alpha=0, beta="symbolic")
    tilde = parse_derivation(g2.builtin_scalar_derivation("alpha_zero")["images"],
                             alpha0)
    for label, ok, residue in check_quotient_derivation(tilde, alpha0):
        items.append((f"scalar derivation (alpha=0 quotient): {label}", ok, residue))

    generic = QuotientRing()
    failures = {label: residue for label, ok, residue
                in check_quotient_derivation(theta, generic) if not ok}
    expected = {"D preserves the Omega2 relation": "2*beta"}
    items.append(("scalar derivation fails for symbolic beta with residue"
                  " exactly 2*beta", failures == expected, str(failures)))

    ring10 = QuotientRing(alpha=1, beta=0)
    found = bounded_inner_search(theta, ring10, degree=4)
    items.append(("inner search (degree <= 4) finds no hamiltonian form of"
                  " the scalar derivation on the beta=0 quotient",
                  found is None, str(found)))

    ring11 = QuotientRing(alpha=1, beta=1)
    ham = hamiltonian_quotient_images("x3", ring11)
    recovered = bounded_inner_search(ham, ring11, degree=2)
    items.append(("inner search recovers x3 from its hamiltonian derivation",
                  recovered == ring11.context.var("x3"), str(recovered)))
    return "derivations", items


@_timed
def suite_centre():
    alg = g2.builtin_algebra()
    ctx = alg.context
    omega1, omega2 = alg.casimirs["Omega1"], alg.casimirs["Omega2"]
    items = []
    expectations = {2: [ctx.one()], 3: [ctx.one(), omega1],
                    4: [ctx.one(), omega1, omega2]}
    for degree, expected in expectations.items():
        basis = bounded_centre(alg.structure, degree)
        label = ("ambient centre at degree <= %d is spanned by {%s}"
                 % (degree, ", ".join(["1"] + [f"Omega{k}" for k in
                                               range(1, len(expected))])))
        items.append((label, spans_same_space(basis, expected),
                      f"dimension {len(basis)}"))
    ring11 = QuotientRing(alpha=1, beta=1)
    basis = bounded_centre(ring11, 4)
    items.append(("quotient centre at degree <= 4 is the scalars",
                  spans_same_space(basis, [ring11.context.one()]),
                  f"dimension {len(basis)}"))
    return "centre", items


@_timed
def suite_grading():
    alg = g2.builtin_algebra()
    items = []
    failure = check_grading(alg.structure, alg.weights)
    items.append(("weight vector [(1,0),(3,1),(2,1),(3,2),(1,1),(0,1)]"
                  " grades the bracket table", failure is None, str(failure)))
    for name, expected in (("Omega1", (4, 2)), ("Omega2", (6, 4))):
        got = alg.weights.weight_of(alg.casimirs[name])
        items.append((f"{name} is homogeneous of weight {expected}",
                      got == expected, str(got)))
    torus = TorusStructure.make(g2.TORUS_MATRIX).structure
    w = WeightVector(torus.context, alg.weights.weights)
    items.append(("the same weights grade the target torus table",
                  check_grading(torus, w) is None, "inhomogeneous entry"))
    return "grading", items


_BUILDERS = {
    "jacobi": suite_jacobi,
    "casimir": suite_casimir,
    "pdda": suite_pdda,
    "pullback": suite_pullback,
    "pl2": suite_pl2,
    "quotient": suite_quotient,
    "localization": suite_localization,
    "torus": suite_torus,
    "derivations": suite_derivations,
    "centre": suite_centre,
    "grading": suite_grading,
}
SUITE_NAMES = list(_BUILDERS)


def run_suites(names, seed: int = DEFAULT_SEED) -> list[Report]:
    """Run the named suites (or all of them) in the order given."""
    if "all" in names:
        names = SUITE_NAMES
    for name in names:
        if name not in _BUILDERS:
            raise KeyError(f"unknown suite {name!r}")
    return [_BUILDERS[name](**({"seed": seed} if name == "torus" else {}))
            for name in names]
