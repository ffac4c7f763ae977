"""Acceptance gate: the ten exact verification criteria, one test each.

Each criterion is the verdict of its suites in one ``run_suites``: every
check of each suite passes, each check that the golden report
``tests/data/verify_all.json`` lists is there, and the suite holds the
number of checks given here.  All arithmetic is exact; every tolerance is
exact equality (zero residue).  Each test prints a single PASS/FAIL line;
run with ``pytest -s`` to see them as the suite executes, or use
``poisson-forge verify all`` for the checks themselves.
"""

import json
from pathlib import Path

import pytest

from poisson_forge.suites import SUITE_NAMES, run_suites

GOLDEN = {suite["suite"]: [item["label"] for item in suite["items"]]
          for suite in json.loads((Path(__file__).parent / "data" / "verify_all.json")
                                  .read_text(encoding="utf-8"))["suites"]}

# criterion -> (its PASS line, {suite: number of checks})
CRITERIA = {
    1: ("Jacobi passes on all 20 generator triples and every one of 16"
        " single-coefficient mutations fails", {"jacobi": 36}),
    2: ("{Omega1, Xj} = 0 and {Omega2, Xj} = 0 for j = 1..6", {"casimir": 12}),
    3: ("the generic chain reproduces the eleven explicit change-of-variables"
        " formulas with eta = (2,6,2,6) and reaches the torus of the printed"
        " matrix", {"pdda": 88}),
    4: ("both Casimir pullback ladders verify line by line", {"pullback": 7}),
    5: ("normal_form(Omega1) = alpha, normal_form(Omega2) = beta, the four"
        " rewrite identities reduce to 0 and the quotient table satisfies"
        " Jacobi mod the ideal", {"pl2": 6, "quotient": 20}),
    6: ("the localisation-tower identities hold exactly with symbolic"
        " parameters", {"localization": 13}),
    7: ("canonical central lattice plus 100 seeded decomposition roundtrips,"
        " witness-independent", {"torus": 3}),
    8: ("the two scalar derivations check out on their quotients, fail with"
        " residue 2*beta when beta is symbolic, are not hamiltonian up to"
        " degree 4, and ham(x3) inverts", {"derivations": 37}),
    9: ("bounded centres: span{1}, span{1, Omega1}, span{1, Omega1, Omega2}"
        " ambient; scalars in the quotient", {"centre": 4}),
    10: ("the torus weights grade the bracket table; Omega1 and Omega2 are"
         " homogeneous of weights (4,2) and (6,4)", {"grading": 4}),
}


@pytest.fixture(scope="module")
def reports():
    """{suite: its checks} from one run of every suite."""
    return {report.suite: report.items for report in run_suites(SUITE_NAMES)}


def criterion_failures(reports, counts):
    """Each failing check of the suites in ``counts``, each golden check
    missing from them, and each suite whose number of checks differs."""
    failures = []
    for suite, count in counts.items():
        items = reports[suite]
        labels = {item.label for item in items}
        failures += [f"{suite}: {item.label}: {item.residue}"
                     for item in items if not item.ok]
        failures += [f"{suite}: no check {label}"
                     for label in GOLDEN[suite] if label not in labels]
        if len(items) != count:
            failures.append(f"{suite}: {len(items)} checks, not {count}")
    return failures


def _verdict(reports, number):
    description, counts = CRITERIA[number]
    failures = criterion_failures(reports, counts)
    print(f"{'FAIL' if failures else 'PASS'} criterion {number}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def test_criterion_01_jacobi_suite(reports):
    _verdict(reports, 1)


def test_criterion_02_casimir_suite(reports):
    _verdict(reports, 2)


def test_criterion_03_pdda_suite(reports):
    _verdict(reports, 3)


def test_criterion_04_pullback_suite(reports):
    _verdict(reports, 4)


def test_criterion_05_quotient_suite(reports):
    _verdict(reports, 5)


def test_criterion_06_localization_suite(reports):
    _verdict(reports, 6)


def test_criterion_07_torus_suite(reports):
    _verdict(reports, 7)


def test_criterion_08_derivation_suite(reports):
    _verdict(reports, 8)


def test_criterion_09_centre_suite(reports):
    _verdict(reports, 9)


def test_criterion_10_grading_suite(reports):
    _verdict(reports, 10)


def test_criteria_cover_every_suite():
    # each suite belongs to exactly one criterion, so no suite can join
    # verify all without a criterion row
    covered = [suite for _, counts in CRITERIA.values() for suite in counts]
    assert sorted(covered) == sorted(SUITE_NAMES)


def test_failing_or_missing_check_fails_its_own_criterion(reports):
    # negative controls on patched reports: one failing check, then one
    # check dropped, in the second suite of criterion 5
    first, *rest = reports["quotient"]
    failing = {**reports, "quotient": [first._replace(ok=False, residue="x1"), *rest]}
    missing = {**reports, "quotient": rest}
    for patched, expected in (
            (failing, [f"quotient: {first.label}: x1"]),
            (missing, [f"quotient: no check {first.label}",
                       "quotient: 19 checks, not 20"])):
        failures = {number: criterion_failures(patched, counts)
                    for number, (_, counts) in CRITERIA.items()}
        assert {n: f for n, f in failures.items() if f} == {5: expected}
