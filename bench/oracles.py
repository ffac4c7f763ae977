"""Outside oracles for the benchmark's outputs.

Nothing here calls the reduction, bracket or linear-algebra code of
poisson_forge.  The checks read the program's results as plain term dicts
(exponent tuple -> Fraction) and judge them with their own arithmetic:

- normal forms: every term is reduced (x3, x4 exponents at most 1), and
  the input and its normal form take the same exact value at seeded
  rational points of the variety Omega1 = alpha, Omega2 = beta;
- centres: brackets rebuilt with sympy from the algebra's JSON table,
  the dimension count of Q[Omega1, Omega2] in bounded degree, and an
  exact rank test of the span;
- Jacobi and Casimir centrality recomputed with sympy, for comparison
  with the verdicts of the verification suites.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

ALGEBRA_JSON = (Path(__file__).resolve().parent.parent
                / "src" / "poisson_forge" / "data" / "g2_algebra.json")

Terms = dict[tuple[int, ...], Fraction]


# -- exact evaluation ---------------------------------------------------------

def evaluate(terms: Terms, names, point: dict[str, Fraction]) -> Fraction:
    """Exact value of a term dict over ``names`` at ``point``."""
    values = [point.get(name, Fraction(0)) for name in names]
    powers: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for exps, coeff in terms.items():
        term = Fraction(coeff)
        for i, e in enumerate(exps):
            if e:
                key = (i, e)
                if key not in powers:
                    powers[key] = values[i] ** e
                term *= powers[key]
        total += term
    return total


def evaluate_product(factors, names, point) -> Fraction:
    """Value of a product of powered sums, ``[(terms, power), ...]``."""
    value = Fraction(1)
    for terms, power in factors:
        value *= evaluate(terms, names, point) ** power
    return value


def _random_rational(rng: random.Random) -> Fraction:
    value = Fraction(0)
    while value == 0:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return value


# -- the algebra rebuilt with sympy -----------------------------------------------

class SympyAlgebra:
    """The bracket table and Casimirs of the JSON definition, in sympy."""

    def __init__(self, path: Path = ALGEBRA_JSON):
        import sympy
        self.sympy = sympy
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        self.names = list(data["variables"])
        self.gens = sympy.symbols(self.names)
        local = dict(zip(self.names, self.gens))
        parse = lambda text: sympy.expand(
            sympy.sympify(text.replace("^", "**"), locals=local))
        n = len(self.gens)
        self.table = [[sympy.Integer(0)] * n for _ in range(n)]
        for key, text in data["brackets"].items():
            i, j = (int(part) - 1 for part in key.split(","))
            value = parse(text)
            self.table[i][j] = value
            self.table[j][i] = -value
        self.casimirs = {name: parse(text)
                         for name, text in data["casimirs"].items()}

    def bracket(self, f, g):
        sp = self.sympy
        df = [sp.diff(f, x) for x in self.gens]
        dg = [sp.diff(g, x) for x in self.gens]
        n = len(self.gens)
        return sp.expand(sum(self.table[i][j] * df[i] * dg[j]
                             for i in range(n) for j in range(n)
                             if self.table[i][j] != 0 and df[i] != 0
                             and dg[j] != 0))

    def to_sympy(self, terms: Terms, names):
        sp = self.sympy
        local = dict(zip(self.names, self.gens))
        syms = [local[name.upper()] for name in names]
        return sp.Add(*[sp.Rational(c.numerator, c.denominator)
                        * sp.Mul(*[s ** e for s, e in zip(syms, exps) if e])
                        for exps, c in terms.items()])

    def jacobi_verdicts(self) -> dict[str, bool]:
        """'jacobi (Xi,Xj,Xk)' -> whether the Jacobiator vanishes."""
        x, t, n = self.gens, self.table, len(self.gens)
        out = {}
        for i, j, k in itertools.combinations(range(n), 3):
            jac = (self.bracket(x[i], t[j][k]) + self.bracket(x[j], t[k][i])
                   + self.bracket(x[k], t[i][j]))
            label = f"jacobi ({self.names[i]},{self.names[j]},{self.names[k]})"
            out[label] = self.sympy.expand(jac) == 0
        return out

    def casimir_verdicts(self) -> dict[str, bool]:
        """'{OmegaK, Xi} = 0' -> whether the bracket vanishes."""
        return {f"{{{name}, {self.names[i]}}} = 0":
                self.bracket(omega, self.gens[i]) == 0
                for name, omega in sorted(self.casimirs.items())
                for i in range(len(self.gens))}

    # -- points of the variety Omega1 = alpha, Omega2 = beta -----------------
    def variety_points(self, rng: random.Random, alpha: Fraction | None,
                       beta: Fraction | None, count: int) -> list[dict]:
        """Seeded rational points with every coordinate nonzero.

        x1, x3, x4, x5 (and a symbolic alpha or beta) are drawn; x2 then
        solves Omega1 = alpha and x6 solves Omega2 = beta, since each
        Casimir is linear in that variable.  Keys are x1..x6, alpha, beta.
        """
        sp = self.sympy
        X = self.gens
        omega1 = sp.Poly(self.casimirs["Omega1"], X[1])
        omega2 = sp.Poly(self.casimirs["Omega2"], X[5])
        if omega1.degree() != 1 or omega2.degree() != 1:
            raise ValueError("Omega1 must be linear in X2 and Omega2 in X6")
        a1, b1 = omega1.all_coeffs()
        a2, b2 = omega2.all_coeffs()
        points = []
        while len(points) < count:
            a = alpha if alpha is not None else _random_rational(rng)
            b = beta if beta is not None else _random_rational(rng)
            free = {X[i]: _random_rational(rng) for i in (0, 2, 3, 4)}
            subs = {s: sp.Rational(v.numerator, v.denominator)
                    for s, v in free.items()}
            lead1 = a1.subs(subs)
            if lead1 == 0:
                continue
            subs[X[1]] = (sp.Rational(a.numerator, a.denominator)
                          - b1.subs(subs)) / lead1
            lead2 = a2.subs(subs)
            if lead2 == 0 or subs[X[1]] == 0:
                continue
            subs[X[5]] = (sp.Rational(b.numerator, b.denominator)
                          - b2.subs(subs)) / lead2
            if subs[X[5]] == 0:
                continue
            point = {f"x{i + 1}": Fraction(int(subs[X[i]].p), int(subs[X[i]].q))
                     for i in range(6)}
            point["alpha"], point["beta"] = a, b
            points.append(point)
        return points


# -- normal forms ---------------------------------------------------------------

def check_normal_form(factors, output: Terms, names, points,
                      label: str) -> list[str]:
    """Reducedness plus equality of values on the variety."""
    i3, i4 = names.index("x3"), names.index("x4")
    bad = [exps for exps in output if not (0 <= exps[i3] <= 1 and 0 <= exps[i4] <= 1)]
    if bad:
        return [f"{label}: {len(bad)} unreduced terms, e.g. {bad[0]}"]
    for k, point in enumerate(points):
        want = evaluate_product(factors, names, point)
        got = evaluate(output, names, point)
        if want != got:
            return [f"{label}: value at point {k} is {got}, input gives {want}"]
    return []


def specialise(terms: Terms, names, alpha: Fraction, beta: Fraction) -> Terms:
    """Substitute numeric alpha, beta into a symbolic term dict."""
    ia, ib = names.index("alpha"), names.index("beta")
    out: Terms = {}
    for exps, c in terms.items():
        value = c * alpha ** exps[ia] * beta ** exps[ib]
        key = tuple(0 if i in (ia, ib) else e for i, e in enumerate(exps))
        total = out.get(key, Fraction(0)) + value
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def check_specialisation(numeric: Terms, symbolic: Terms, names,
                         alpha: Fraction, beta: Fraction, label: str) -> list[str]:
    if specialise(symbolic, names, alpha, beta) != dict(numeric):
        return [f"{label}: differs from the symbolic normal form at"
                f" alpha={alpha}, beta={beta}"]
    return []


# -- centres and inner derivations ------------------------------------------------

def _rank(rows: list[Terms]) -> int:
    """Exact rank of sparse rational rows (own elimination, no pivoting tricks)."""
    pivots: dict[tuple, Terms] = {}
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items() if v}
        for key in sorted(pivots):
            if key in row:
                factor = row[key]
                for k, v in pivots[key].items():
                    s = row.get(k, Fraction(0)) - factor * v
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
        if row:
            lead = min(row)
            scale = row[lead]
            row = {k: v / scale for k, v in row.items()}
            for key, prow in pivots.items():
                if lead in prow:
                    factor = prow[lead]
                    for k, v in row.items():
                        s = prow.get(k, Fraction(0)) - factor * v
                        if s:
                            prow[k] = s
                        else:
                            prow.pop(k, None)
            pivots[lead] = row
    return len(pivots)


def casimir_monomials(degree: int) -> list[tuple[int, int]]:
    """(a, b) with 3a + 4b <= degree: Omega1^a Omega2^b has degree 3a + 4b."""
    return [(a, b) for a in range(degree // 3 + 1)
            for b in range(degree // 4 + 1) if 3 * a + 4 * b <= degree]


def _poly_terms(expr, gens) -> Terms:
    poly = expr.as_poly(*gens)
    return {tuple(m): Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}


def check_ambient_centre(alg: SympyAlgebra, degree: int, basis: list[Terms],
                         names) -> list[str]:
    label = f"ambient centre d{degree}"
    expected = casimir_monomials(degree)
    if len(basis) != len(expected):
        return [f"{label}: dimension {len(basis)}, expected {len(expected)}"]
    exprs = []
    for k, terms in enumerate(basis):
        if not terms:
            return [f"{label}: basis vector {k} is zero"]
        if max(sum(exps) for exps in terms) > degree:
            return [f"{label}: basis vector {k} exceeds degree {degree}"]
        expr = alg.to_sympy(terms, names)
        for x in alg.gens:
            if alg.bracket(expr, x) != 0:
                return [f"{label}: basis vector {k} does not commute with {x}"]
        exprs.append(expr)
    rows = [_poly_terms(e, alg.gens) for e in exprs]
    if _rank(rows) != len(rows):
        return [f"{label}: basis vectors are linearly dependent"]
    omega1, omega2 = alg.casimirs["Omega1"], alg.casimirs["Omega2"]
    for a, b in expected:
        target = alg.sympy.expand(omega1 ** a * omega2 ** b)
        target_row = _poly_terms(target, alg.gens)
        if _rank(rows + [target_row]) != len(rows):
            return [f"{label}: Omega1^{a}*Omega2^{b} is not in the span"]
    return []


def check_scalar_centre(basis: list[Terms], label: str) -> list[str]:
    if len(basis) != 1:
        return [f"{label}: dimension {len(basis)}, expected 1 (the scalars)"]
    (terms,) = basis
    if len(terms) != 1 or any(any(exps) for exps in terms):
        return [f"{label}: basis vector is not a nonzero scalar"]
    return []


def check_inner_search(found: Terms | None, expected: Terms | None,
                       label: str) -> list[str]:
    """``expected`` is None for an outer derivation, else f without its
    constant term."""
    if expected is None:
        return [] if found is None else [f"{label}: expected no preimage"]
    if found is None:
        return [f"{label}: no preimage found"]
    if dict(found) != dict(expected):
        return [f"{label}: preimage differs from the seeded f"]
    return []


# -- verification suites --------------------------------------------------------

def report_items(text: str) -> dict[str, bool]:
    """label -> passed, read from the text rendering of a suite report."""
    items = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[ok  ] "):
            items[line[7:]] = True
        elif line.startswith("[FAIL] "):
            items[line[7:].split("  residue: ")[0]] = False
    return items


def check_suite_text(name: str, code: int, text: str) -> list[str]:
    if code != 0:
        return [f"suite {name}: exit code {code}"]
    lines = text.splitlines()
    if not lines or lines[0] != f"suite {name}: PASS" or lines[-1] != "overall: PASS":
        return [f"suite {name}: report is not a PASS"]
    items = report_items(text)
    if not items or not all(items.values()):
        return [f"suite {name}: failing items"]
    return []


def check_agreement(name: str, text: str, verdicts: dict[str, bool]) -> list[str]:
    """Every item the sympy recheck covers must carry the same verdict."""
    items = report_items(text)
    missing = sorted(set(verdicts) - set(items))
    if missing:
        return [f"suite {name}: report lacks {missing[0]!r}"]
    differing = [label for label, ok in verdicts.items() if items[label] != ok]
    if differing:
        return [f"suite {name}: sympy disagrees on {differing[0]!r}"]
    return []
