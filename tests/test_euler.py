"""Euler derivations x_i -> <lam, w_i> x_i of the built-in Z^2 grading."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_forge import g2
from poisson_forge.poisson import (WeightVector, check_grading, check_poisson_derivation,
                                   euler_derivation)
from poisson_forge.quotient import QuotientRing, check_quotient_derivation, parse_derivation

ALG = g2.builtin_algebra()
SYM = QuotientRing()

# The images the two scalar derivations had when they were shipped as
# hand-written data files, before they were derived from the grading.
SHIPPED_IMAGES = {
    "beta_zero": {"x1": "-x1", "x2": "-x2", "x3": "0",
                  "x4": "x4", "x5": "x5", "x6": "2*x6"},
    "alpha_zero": {"x1": "-2*x1", "x2": "-3*x2", "x3": "-x3",
                   "x4": "0", "x5": "x5", "x6": "3*x6"},
}


@pytest.mark.parametrize("which", sorted(SHIPPED_IMAGES))
def test_builtin_scalar_derivation_keeps_the_shipped_images(which):
    derived = parse_derivation(g2.builtin_scalar_derivation(which)["images"], SYM)
    assert derived == parse_derivation(SHIPPED_IMAGES[which], SYM)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_euler_derivation_is_a_poisson_derivation(lam):
    assert check_poisson_derivation(euler_derivation(ALG.weights, lam),
                                    ALG.structure) is None


def _killed(lam, weight):
    return lam[0] * weight[0] + lam[1] * weight[1] == 0


@pytest.mark.parametrize("alpha, beta", [(1, 0), (0, 1), (1, 1)])
def test_euler_derivation_descends_exactly_when_lam_kills_live_casimirs(alpha, beta):
    # E(Omega_k) = <lam, wt Omega_k> Omega_k, and Omega_k - parameter_k
    # lies in the ideal, so E preserves the relation iff lam kills the
    # weight or the parameter is zero
    ring = QuotientRing(alpha=alpha, beta=beta)
    weights = WeightVector(ring.context, ALG.weights.weights)
    live = [ALG.weights.weight_of(ALG.casimirs[name])
            for name, value in (("Omega1", alpha), ("Omega2", beta)) if value]
    descended = []
    for lam in ((a, b) for a in range(-3, 4) for b in range(-3, 4)):
        items = check_quotient_derivation(euler_derivation(weights, lam), ring)
        passes = all(ok for _, ok, _ in items)
        assert passes == all(_killed(lam, w) for w in live), (lam, items)
        if passes:
            descended.append(lam)
    expected = {(1, 0): [(-1, 2), (0, 0), (1, -2)],
                (0, 1): [(-2, 3), (0, 0), (2, -3)],
                (1, 1): [(0, 0)]}[(alpha, beta)]
    assert descended == expected


def test_euler_derivation_needs_the_grading():
    # negative control: with w(x3) bumped to (2,2) the weights no longer
    # grade the bracket table, and some Euler derivation stops being one
    weights = dict(ALG.weights.weights)
    weights[ALG.context.index("X3")] = (2, 2)
    bumped = WeightVector(ALG.context, weights)
    assert check_grading(ALG.structure, bumped) is not None
    assert any(check_poisson_derivation(euler_derivation(bumped, lam),
                                        ALG.structure) is not None
               for lam in ((1, 0), (0, 1)))
