"""Acceptance gate: the ten exact verification criteria, one test each.

All arithmetic is exact; every tolerance is exact equality (zero residue).
Each test prints a single PASS/FAIL line; run with ``pytest -s`` to see
them as the suite executes, or use ``poisson-forge verify all`` for the
same content as a report.
"""

import random
from fractions import Fraction

from poisson_forge import g2
from poisson_forge.chain import (builtin_chain, verify_central_ladders,
                                 verify_chain_formulas, verify_centrality,
                                 verify_localized_identities,
                                 verify_torus_relations)
from poisson_forge.expr import LaurentPoly
from poisson_forge.parse import parse_expr
from poisson_forge.poisson import (DerivationSpec, PoissonStructure,
                                   check_grading, check_jacobi)
from poisson_forge.quotient import (QuotientRing, bounded_centre,
                                    bounded_inner_search, check_casimirs,
                                    check_quotient_derivation,
                                    hamiltonian_quotient_images,
                                    parse_derivation, quotient_jacobi_items,
                                    spans_same_space)
from poisson_forge.suites import DEFAULT_SEED
from poisson_forge.torus import (Decomposition, TorusStructure,
                                 apply_decomposition, central_lattice,
                                 decompose_derivation)

ALG = g2.builtin_algebra()


def _verdict(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def _collect(checks):
    return [f"{label}: {residue}" for label, ok, residue in checks if not ok]


def test_criterion_01_jacobi_suite():
    failures = []
    if check_jacobi(ALG.structure) is not None:
        failures.append("builtin table fails the Jacobi check")
    # sixteen single-coefficient mutations: +1 on each entry's leading
    # coefficient, plus the distinguished {X3,X1} -> -X1*X3 - 2*X2 change
    mutated_tables = []
    for (i, j), value in sorted(ALG.structure.table.items()):
        lead, coeff = value.sorted_terms()[0]
        bumped = dict(value.terms)
        bumped[lead] = coeff + 1
        table = dict(ALG.structure.table)
        table[(i, j)] = LaurentPoly(ALG.context, bumped)
        mutated_tables.append(((i, j), table))
    named = dict(ALG.structure.table)
    named[(0, 2)] = parse_expr("X1*X3 + 2*X2", ALG.context)
    mutated_tables.append(("{X3,X1}", named))
    assert len(mutated_tables) == 16
    for tag, table in mutated_tables:
        if check_jacobi(PoissonStructure(ALG.context, table)) is None:
            failures.append(f"mutation {tag} was not detected")
    _verdict(1, "Jacobi passes on all 20 generator triples and every one of"
                " 16 single-coefficient mutations fails", failures)


def test_criterion_02_casimir_suite():
    checks = verify_centrality(ALG.structure, ALG.casimirs)
    assert len(checks) == 12
    _verdict(2, "{Omega1, Xj} = 0 and {Omega2, Xj} = 0 for j = 1..6",
             _collect(checks))


def test_criterion_03_pdda_suite():
    failures = []
    etas = tuple(ALG.ore.eta(i) for i in (2, 3, 4, 5))
    if etas != (2, 6, 2, 6):
        failures.append(f"eta values {etas}")
    stages = builtin_chain()
    formulas = verify_chain_formulas(stages)
    assert len(formulas) == 16  # ten corrective formulas + six T collapses
    failures += _collect(formulas)
    torus = verify_torus_relations(stages[2], g2.TORUS_MATRIX, ALG.ore)
    assert sum(1 for label, _, _ in torus if label.startswith("{T")) == 15
    failures += _collect(torus)
    _verdict(3, "the generic chain reproduces the eleven explicit"
                " change-of-variables formulas with eta = (2,6,2,6) and"
                " reaches the torus of the printed matrix", failures)


def test_criterion_04_pullback_suite():
    checks = verify_central_ladders(builtin_chain(), ALG.casimirs)
    assert sum(1 for label, _, _ in checks if label.startswith("Omega1")) == 4
    assert sum(1 for label, _, _ in checks if label.startswith("Omega2")) == 3
    _verdict(4, "both Casimir pullback ladders verify line by line",
             _collect(checks))


def test_criterion_05_quotient_suite():
    ring = QuotientRing()  # both parameters symbolic
    failures = _collect(check_casimirs(ring))
    jacobi = quotient_jacobi_items(ring)
    assert len(jacobi) == 20
    failures += _collect(jacobi)
    _verdict(5, "normal_form(Omega1) = alpha, normal_form(Omega2) = beta,"
                " the four rewrite identities reduce to 0 and the quotient"
                " table satisfies Jacobi mod the ideal", failures)


def test_criterion_06_localization_suite():
    checks = verify_localized_identities(QuotientRing(localized=True))
    assert len(checks) == 13
    _verdict(6, "the localisation-tower identities hold exactly with"
                " symbolic parameters", _collect(checks))


def test_criterion_07_torus_suite():
    failures = []
    torus = TorusStructure.make(g2.TORUS_MATRIX)
    lattice = central_lattice(torus)
    if lattice != [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]]:
        failures.append(f"central lattice {lattice}")
    rng = random.Random(DEFAULT_SEED)
    for case in range(100):
        gamma, theta = _random_decomposition(torus, lattice, rng)
        D = DerivationSpec(torus.context, apply_decomposition(
            Decomposition(gamma, theta), torus))
        dec = decompose_derivation(D, torus)
        if dec.gamma != gamma or dec.theta_images != theta:
            failures.append(f"roundtrip {case} drifted")
        # c_g = a_g(e_y) / lam(g, e_y) for every y with lam(g, e_y) != 0,
        # where D(t_y) t_y^-1 = sum_g a_g(e_y) t^g
        a = [(D.images[name] * torus.context.monomial({name: -1})).terms
             for name in torus.names]
        for g, c in dec.gamma.terms.items():
            for y in range(torus.rank):
                pairing = sum(g[k] * torus.lam[k][y] for k in range(torus.rank))
                if pairing and a[y].get(g, 0) / pairing != c:
                    failures.append(
                        f"witness choice changed the answer in case {case}")
    _verdict(7, "canonical central lattice plus 100 seeded decomposition"
                " roundtrips, witness-independent", failures)


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


def test_criterion_08_derivation_suite():
    failures = []
    beta0 = QuotientRing(alpha="symbolic", beta=0)
    theta = parse_derivation(
        g2.builtin_scalar_derivation("beta_zero")["images"], beta0)
    failures += _collect(check_quotient_derivation(theta, beta0))

    alpha0 = QuotientRing(alpha=0, beta="symbolic")
    tilde = parse_derivation(
        g2.builtin_scalar_derivation("alpha_zero")["images"], alpha0)
    failures += _collect(check_quotient_derivation(tilde, alpha0))

    generic = QuotientRing()
    theta_generic = parse_derivation(
        g2.builtin_scalar_derivation("beta_zero")["images"], generic)
    broken = {label: residue for label, ok, residue
              in check_quotient_derivation(theta_generic, generic) if not ok}
    if broken != {"D preserves the Omega2 relation": "2*beta"}:
        failures.append(f"symbolic-beta failure pattern was {broken}")

    ring10 = QuotientRing(alpha=1, beta=0)
    theta10 = parse_derivation(
        g2.builtin_scalar_derivation("beta_zero")["images"], ring10)
    found = bounded_inner_search(theta10, ring10, degree=4)
    if found is not None:
        failures.append(f"scalar derivation looked hamiltonian: {found}")

    ring11 = QuotientRing(alpha=1, beta=1)
    ham = hamiltonian_quotient_images("x3", ring11)
    recovered = bounded_inner_search(ham, ring11, degree=2)
    if recovered != ring11.context.var("x3"):
        failures.append(f"recovered {recovered} instead of x3")
    _verdict(8, "the two scalar derivations check out on their quotients,"
                " fail with residue 2*beta when beta is symbolic, are not"
                " hamiltonian up to degree 4, and ham(x3) inverts", failures)


def test_criterion_09_centre_suite():
    failures = []
    ctx = ALG.context
    omega1, omega2 = ALG.casimirs["Omega1"], ALG.casimirs["Omega2"]
    for degree, expected in ((2, [ctx.one()]), (3, [ctx.one(), omega1]),
                             (4, [ctx.one(), omega1, omega2])):
        basis = bounded_centre(ALG.structure, degree)
        if not spans_same_space(basis, expected):
            failures.append(
                f"ambient degree {degree}: dimension {len(basis)}")
    ring11 = QuotientRing(alpha=1, beta=1)
    basis = bounded_centre(ring11, 4)
    if not spans_same_space(basis, [ring11.context.one()]):
        failures.append(f"quotient degree 4: dimension {len(basis)}")
    _verdict(9, "bounded centres: span{1}, span{1, Omega1},"
                " span{1, Omega1, Omega2} ambient; scalars in the quotient",
             failures)


def test_criterion_10_grading_suite():
    failures = []
    if check_grading(ALG.structure, ALG.weights) is not None:
        failures.append("weight vector does not grade the table")
    for name, expected in (("Omega1", (4, 2)), ("Omega2", (6, 4))):
        got = ALG.weights.weight_of(ALG.casimirs[name])
        if got != expected:
            failures.append(f"{name} weight {got}")
    _verdict(10, "the torus weights grade the bracket table; Omega1 and"
                 " Omega2 are homogeneous of weights (4,2) and (6,4)",
             failures)
