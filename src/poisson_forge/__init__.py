"""poisson-forge: exact symbolic computation with Poisson polynomial algebras.

Subpackages by role:

- ``expr`` / ``parse``: exact rationals, sparse Laurent polynomials over a
  declared variable context, and the text expression grammar.
- ``poisson``: bracket tables, Jacobi/derivation checks, gradings and the
  iterated Poisson-Ore presentation read off a bracket table.
- ``chain``: the deleting-derivations change of variables, its target-torus
  relations, the pullback of the Casimirs and the localisation tower of the
  localised quotient.
- ``torus``: Poisson group algebras over Z^n, centre lattices and the
  inner-plus-central decomposition of Poisson derivations.
- ``quotient``: the normal-form quotient by the Casimir relations, its
  bracket, derivation checks and bounded-degree centre/inner searches.
- ``cli`` / ``suites`` / ``report``: the poisson-forge command line and the
  machine-readable verification suites.
"""

from .expr import LaurentPoly, Rational, VarContext
from .parse import parse_expr

__all__ = ["LaurentPoly", "Rational", "VarContext", "parse_expr"]
__version__ = "0.1.0"
