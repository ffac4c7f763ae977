"""Bracket evaluation, Jacobi/derivation checks, eta, gradings."""

import itertools
import re
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from poisson_forge import g2
from poisson_forge.chain import localize_structure
from poisson_forge.expr import ContextMismatch, ExprError, VarContext
from poisson_forge.parse import parse_expr
from poisson_forge.expr import LaurentPoly
from poisson_forge.poisson import (DerivationSpec, EtaError, ExponentPacking,
                                   PoissonOreData, PoissonStructure,
                                   WeightVector, check_grading, check_jacobi,
                                   derivation_residues, exponents_up_to,
                                   hamiltonian_derivation, jacobiator)
from poisson_forge.quotient import QuotientRing
from poisson_forge.torus import TorusStructure
from tests.test_expr import small_polys

ALG = g2.builtin_algebra()
CTX = ALG.context
S = ALG.structure
LOCAL = localize_structure(S, ["X5", "X6"])


def log_canonical(rank=3, entries=((0, 1, 2), (0, 2, -1), (1, 2, 5))):
    ctx = VarContext.make([f"y{i}" for i in range(rank)])
    table = {(i, j): ctx.monomial({f"y{i}": 1, f"y{j}": 1}, c)
             for i, j, c in entries}
    return PoissonStructure(ctx, table)


class TestBracket:
    def test_table_value(self):
        lhs = S.bracket(CTX.var("X2"), CTX.var("X1"))
        assert lhs == parse_expr("-3*X1*X2", CTX)

    @given(small_polys(CTX, names=("X1", "X2", "X3")))
    def test_antisymmetry(self, f):
        assert S.bracket(f, f).is_zero()

    def test_leibniz_on_inverse(self):
        # Oracle: 0 = {X6, X5*X5^-1} = {X6,X5}*X5^-1 + X5*{X6,X5^-1},
        # so {X6, X5^-1} = 3*X5^-1*X6.
        ctx = LOCAL.context
        lhs = LOCAL.bracket(ctx.var("X6"), ctx.monomial({"X5": -1}))
        assert lhs == parse_expr("3*X5^-1*X6", ctx)

    def test_casimirs_are_central(self):
        for omega in ALG.casimirs.values():
            for i in CTX.generators():
                assert S.bracket(omega, S.gen(i)).is_zero()

    @given(small_polys(CTX, names=("X1", "X3", "X5")),
           small_polys(CTX, names=("X2", "X4", "X6"), max_terms=2),
           small_polys(CTX, names=("X1", "X4", "X5"), max_terms=2))
    def test_leibniz_rule(self, f, g, h):
        lhs = S.bracket(f, g * h)
        rhs = S.bracket(f, g) * h + g * S.bracket(f, h)
        assert lhs == rhs

    def test_parameters_are_central(self):
        from tests.test_expr import QCTX
        table = {(0, 1): QCTX.monomial({"x1": 1, "x2": 1}, 3)}
        struct = PoissonStructure(QCTX, table)
        assert struct.bracket(QCTX.var("alpha"), QCTX.var("x1")).is_zero()


def reference_bracket(structure, f, g):
    """The bi-derivation formula spelled out with partial derivatives."""
    names = structure.context.names
    result = structure.context.zero()
    for (i, j), b in structure.table.items():
        cross = (f.partial(names[i]) * g.partial(names[j])
                 - f.partial(names[j]) * g.partial(names[i]))
        result = result + b * cross
    return result


def laurent_polys(ctx, low=0, max_terms=3):
    """Polynomials in every variable of ctx; exponents of the invertible
    ones range down to ``low``."""
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)

    def exponent(inv):
        return st.integers(min_value=low if inv else 0, max_value=2)

    def build(termlist):
        p = ctx.zero()
        for coeff, exps in termlist:
            p = p + ctx.monomial(dict(zip(ctx.names, exps)), coeff)
        return p

    term = st.tuples(coeffs, st.tuples(*[exponent(inv) for inv in ctx.invertible]))
    return st.lists(term, max_size=max_terms).map(build)


# rational entries, one of them not a monomial
YCTX = VarContext.make(["y0", "y1", "y2"])
RATIONAL = PoissonStructure(YCTX, {(0, 1): parse_expr("1/2*y0*y1 - 2/3*y2^2", YCTX),
                                   (1, 2): parse_expr("5/4*y1*y2", YCTX)})


class TestBracketReference:
    def check(self, structure, f, g):
        value = structure.bracket(f, g)
        assert value == reference_bracket(structure, f, g)
        assert all(type(c) is Fraction for c in value.terms.values())

    @given(laurent_polys(CTX), laurent_polys(CTX))
    def test_builtin(self, f, g):
        self.check(S, f, g)

    @given(laurent_polys(LOCAL.context, low=-2), laurent_polys(LOCAL.context, low=-2))
    def test_localized_negative_exponents(self, f, g):
        self.check(LOCAL, f, g)

    @given(laurent_polys(RATIONAL.context), laurent_polys(RATIONAL.context))
    def test_rational_table(self, f, g):
        self.check(RATIONAL, f, g)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            S.bracket(LOCAL.context.var("X1"), CTX.var("X2"))


# negative x5, x6 exponents and alpha, beta exponents
LOCAL_QUOTIENT = QuotientRing(localized=True).structure
TORUS = TorusStructure.make(g2.TORUS_MATRIX).structure
# one exponent shift in two slots: x^m * {y0, y1} / y0 and x^m * {y0, y2} / y0
# both hold x^m * y2
SHARED_SHIFT = PoissonStructure(YCTX, {(0, 1): parse_expr("y0*y2 + y1", YCTX),
                                       (0, 2): parse_expr("3*y0*y2", YCTX)})


class TestGeneratorBrackets:
    def check(self, structure, f):
        ctx = structure.context
        images = structure.generator_brackets(f)
        assert images == [structure.bracket(f, ctx.var(ctx.names[i]))
                          for i in ctx.generators()]
        assert all(type(c) is Fraction and c
                   for image in images for c in image.terms.values())

    @given(laurent_polys(CTX))
    def test_builtin(self, f):
        self.check(S, f)

    @given(laurent_polys(LOCAL_QUOTIENT.context, low=-2))
    def test_localized_quotient_structure(self, f):
        self.check(LOCAL_QUOTIENT, f)

    @given(laurent_polys(TORUS.context, low=-2))
    def test_rank6_torus(self, f):
        self.check(TORUS, f)

    @given(laurent_polys(RATIONAL.context))
    def test_rational_table(self, f):
        self.check(RATIONAL, f)

    @given(laurent_polys(SHARED_SHIFT.context))
    def test_one_shift_in_two_slots(self, f):
        self.check(SHARED_SHIFT, f)

    def test_one_shift_in_two_slots_on_a_generator(self):
        y0 = YCTX.var("y0")
        self.check(SHARED_SHIFT, y0)
        assert SHARED_SHIFT.generator_brackets(y0) == [
            YCTX.zero(), parse_expr("y0*y2 + y1", YCTX), parse_expr("3*y0*y2", YCTX)]

    @pytest.mark.parametrize("m", [(1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1),
                                   (2, -1, 2, -1, 2, -1)])
    def test_central_torus_monomials_have_zero_images(self, m):
        # every (slot, shift) group of a central monomial sums to zero
        f = LaurentPoly(TORUS.context, {m: Fraction(3, 2)})
        self.check(TORUS, f)
        assert all(image.is_zero() for image in TORUS.generator_brackets(f))

    def test_torus_groups_keep_the_non_central_pairing(self):
        # t1*t2*t3*t5 is t2 times the central t1*t3*t5: in the group of
        # each slot g only lam(e2, e_g) survives
        ctx = TORUS.context
        f = parse_expr("t1*t2*t3*t5 - 2*t2^-1", ctx)
        self.check(TORUS, f)
        lam = TorusStructure.make(g2.TORUS_MATRIX).lam
        for g, image in enumerate(TORUS.generator_brackets(f)):
            unit = tuple(int(v == g) for v in range(6))
            assert image == LaurentPoly(ctx, {
                tuple(map(add, (1, 1, 1, 0, 1, 0), unit)): lam[1][g],
                tuple(map(add, (0, -1, 0, 0, 0, 0), unit)): 2 * lam[1][g]})

    def test_zero(self):
        for structure in (S, LOCAL_QUOTIENT, TORUS):
            images = structure.generator_brackets(structure.context.zero())
            assert len(images) == len(structure.context.generators())
            assert all(image.is_zero() for image in images)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            S.generator_brackets(LOCAL.context.var("X1"))

    @pytest.mark.parametrize("structure", [S, LOCAL_QUOTIENT, TORUS],
                             ids=["builtin", "localized-quotient", "torus"])
    def test_basis_monomials_match_monomial_brackets(self, structure):
        # the packed rows of bracket_rows, read back per monomial and
        # unpacked: slot in the low bits, the exponents above it,
        # numerators over the table's den; no entry is zero
        ctx = structure.context
        monomials = list(structure.basis_monomials(3))
        packing = ExponentPacking(ctx, 3 + structure._shift_reach)
        slot_mask = (1 << packing.low) - 1
        rows = structure.monomial_brackets(monomials, packing,
                                           tuple(range(len(ctx.generators()))))
        packed = [{} for _ in monomials]
        for key, row in rows.items():
            for idx, n in row.items():
                packed[idx][key] = n
        for m, image in zip(monomials, packed):
            expected = [{} for _ in ctx.generators()]
            for key, n in image.items():
                expected[key & slot_mask][packing.exponents(key)] = Fraction(
                    n, structure._den)
            got = structure.generator_brackets(LaurentPoly(ctx, {m: 1}))
            assert [image.terms for image in got] == expected

    def test_cancelled_images_leave_no_zero_entry_and_no_empty_row(self):
        # {y0, y2} = y0*y2 and {y1, y2} = -y1*y2, so
        # {y0^a y1^b y2^c, y2} = (a - b) y0^a y1^b y2^c cancels inside one
        # monomial when a = b: its entry is dropped, and so is the row
        # (slot of y2, y0^a y1^a y2^(c+1)), which no other monomial reaches
        structure = log_canonical(entries=((0, 2, 1), (1, 2, -1)))
        assert structure.generating_slots == (0, 1, 2)
        monomials, rows, scale, key = structure.bracket_rows(3)
        assert all(row and all(row.values()) for row in rows.values())
        for m in ((1, 1, 0), (1, 1, 1)):
            assert key(2, tuple(map(add, m, (0, 0, 1)))) not in rows
            assert not any(monomials.index(m) in rows.get(key(2, mm), ())
                           for mm in monomials)
        row = rows[key(2, (2, 0, 1))]  # {y0^2, y2} = 2 y0^2 y2
        assert row == {monomials.index((2, 0, 0)): 2 * scale}


@pytest.mark.parametrize("n", range(7))
def test_exponents_up_to_is_the_lex_sorted_filter(n):
    for degree in range(-1, 6):
        expected = sorted(e for e in itertools.product(range(degree + 1), repeat=n)
                          if sum(e) <= degree) if degree >= 0 else []
        assert exponents_up_to(n, degree) == expected


class TestJacobi:
    def test_builtin_table_passes(self):
        assert check_jacobi(S) is None

    def test_log_canonical_passes(self):
        assert check_jacobi(log_canonical()) is None

    def test_named_mutation_fails(self):
        # {X3, X1} changed to -X1*X3 - 2*X2, i.e. stored {X1, X3} gains +X2.
        # Hand evaluation: the first failing triple is (X1, X2, X4) with
        # jacobiator 12*X2*X3^2 (triple (X1, X2, X3) still passes).
        table = dict(S.table)
        table[(0, 2)] = parse_expr("X1*X3 + 2*X2", CTX)
        mutated = PoissonStructure(CTX, table)
        assert jacobiator(mutated, 0, 1, 2).is_zero()
        result = check_jacobi(mutated)
        assert result is not None
        triple, residue = result
        assert triple == (0, 1, 3)
        assert residue == parse_expr("12*X2*X3^2", CTX)

    def test_every_coefficient_slot_mutation_fails(self):
        for (i, j), value in sorted(S.table.items()):
            for monomial in value.terms:
                table = dict(S.table)
                bumped = dict(value.terms)
                bumped[monomial] = bumped[monomial] + 1
                table[(i, j)] = type(value)(CTX, bumped)
                assert check_jacobi(PoissonStructure(CTX, table)) is not None, \
                    f"mutating {monomial} in entry {(i, j)} kept Jacobi"


class TestDerivationCheck:
    def test_zero_derivation_passes(self):
        D = DerivationSpec(CTX, {name: CTX.zero() for name in CTX.names})
        assert all(r.is_zero() for _, r in derivation_residues(D, S))

    @given(small_polys(CTX, names=("X1", "X3", "X6"), max_terms=3))
    def test_hamiltonian_passes(self, f):
        D = hamiltonian_derivation(f, S)
        assert all(r.is_zero() for _, r in derivation_residues(D, S))

    def test_diagonal_weight_one_on_x1_fails(self):
        # D(X1) = X1, other images 0, so D multiplies each term by its X1
        # degree.  A pair (X1, Xj) fails where {X1, Xj} has a term of X1
        # degree other than 1, and any other pair where its bracket has X1
        # in it.  The (X1, X2) pair is unharmed since {X2, X1} = -3*X1*X2;
        # the first failure is (X1, X3): D({X1,X3}) - ... = -X2.
        # (Hand-checked: D(X1*X3 + X2) = X1*X3 while {D(X1), X3} = X1*X3 + X2.)
        images = {name: CTX.zero() for name in CTX.names}
        images["X1"] = CTX.var("X1")
        D = DerivationSpec(CTX, images)
        failures = {pair: r for pair, r in derivation_residues(D, S) if not r.is_zero()}
        assert list(failures) == [(0, 2), (0, 3), (0, 4), (0, 5)]
        assert failures[(0, 2)] == -CTX.var("X2")

    def test_hamiltonian_of_casimir_is_zero(self):
        D = hamiltonian_derivation(ALG.casimirs["Omega1"], S)
        assert all(img.is_zero() for img in D.images.values())
        D1 = hamiltonian_derivation(CTX.one(), S)
        assert all(img.is_zero() for img in D1.images.values())

    def test_hamiltonian_in_log_canonical_torus(self):
        struct = log_canonical()
        ctx = struct.context
        D = hamiltonian_derivation(ctx.var("y0"), struct)
        assert D.images["y1"] == ctx.monomial({"y0": 1, "y1": 1}, 2)
        assert D.images["y2"] == ctx.monomial({"y0": 1, "y2": 1}, -1)


class TestOreData:
    def test_eta_values(self):
        assert [ALG.ore.eta(i) for i in (2, 3, 4, 5)] == [2, 6, 2, 6]

    def test_eta_undefined_for_zero_delta(self):
        with pytest.raises(EtaError, match="undefined"):
            ALG.ore.eta(1)

    def test_eta_inconsistent(self):
        # {c, a} = c*a + b and {c, b} = 2*c*b + a: delta_c swaps a and b,
        # and eta reads -1 on a but 1 on b
        ctx = VarContext.make(["a", "b", "c"])
        table = {(0, 2): parse_expr("-a*c - b", ctx),
                 (1, 2): parse_expr("-2*b*c - a", ctx)}
        ore = PoissonOreData(PoissonStructure(ctx, table))
        with pytest.raises(EtaError, match="inconsistent"):
            ore.eta(2)

    def test_eta_needs_scalar_ratio(self):
        # {c, a} = c*a + a + b and {c, b} = 2*c*b: on a the commutator is
        # -b, no multiple of delta_c(a) = a + b
        ctx = VarContext.make(["a", "b", "c"])
        table = {(0, 2): parse_expr("-a*c - a - b", ctx),
                 (1, 2): parse_expr("-2*b*c", ctx)}
        ore = PoissonOreData(PoissonStructure(ctx, table))
        with pytest.raises(EtaError, match="not a scalar"):
            ore.eta(2)

    def test_table_consistent_with_ore_presentation(self):
        # {X_i, X_j} = mu_ij X_j X_i + delta_i(X_j) for j < i, each side
        # read off the table separately
        for i in range(1, 6):
            delta = ALG.ore.delta_images(i)
            for j in range(i):
                expected = (ALG.ore.mu(i, j) * CTX.var(CTX.names[i]) * CTX.var(CTX.names[j])
                            + delta[CTX.names[j]])
                assert S.entry(i, j) == expected

    def test_tables_read_off_the_brackets(self):
        # the sigma scalars and the ten delta entries the algebra file
        # stored before they were read off its bracket table
        assert [[ALG.ore.mu(i, j) for j in range(6)] for i in range(6)] \
            == g2.TORUS_MATRIX
        stored = {(3, 1): "-X2", (4, 1): "-2*X3^2", (4, 2): "-4*X3^3",
                  (5, 1): "-2*X3", (5, 2): "-6*X3^2", (5, 3): "-3*X4",
                  (6, 1): "-3*X5", (6, 2): "9*X4 - 18*X3*X5",
                  (6, 3): "-6*X5^2", (6, 4): "-4*X5^3"}
        derived = {(i + 1, j + 1): str(image)
                   for i in range(6)
                   for j, image in enumerate(ALG.ore.delta_images(i).values())
                   if not image.is_zero()}
        assert derived == {key: str(parse_expr(text, CTX))
                           for key, text in stored.items()}

    @pytest.mark.parametrize("entry, message", [
        ("-a*c - c", "delta_3(X_1) = c holds X_3 or a later generator"),
        ("-a*c - a*c^2", "delta_3(X_1) = a*c^2 holds X_3"),
        ("-2*a^2*c", "delta_3(X_1) = 2*a^2*c holds X_3"),
    ], ids=["x_i", "x_i-squared", "no-mu-term"])
    def test_table_out_of_ore_form_raises(self, entry, message):
        # the rest of {X_i, X_j} beyond mu_ij X_i X_j must be free of X_i
        # and later generators
        ctx = VarContext.make(["a", "b", "c"])
        table = {(0, 2): parse_expr(entry, ctx)}
        with pytest.raises(ExprError, match=re.escape(message)):
            PoissonOreData(PoissonStructure(ctx, table))

    def test_later_generator_in_delta_raises(self):
        # {b, a} = b*a + c: c comes after b
        ctx = VarContext.make(["a", "b", "c"])
        table = {(0, 1): parse_expr("-a*b - c", ctx)}
        with pytest.raises(ExprError, match="delta_2\\(X_1\\) = c holds X_2"):
            PoissonOreData(PoissonStructure(ctx, table))

    def test_parameter_in_delta_is_a_scalar(self):
        # a parameter is no generator: {b, a} = b*a + q*a is Poisson-Ore
        ctx = VarContext.make(["a", "b", "q"], parameters=["q"])
        table = {(0, 1): parse_expr("-a*b - q*a", ctx)}
        ore = PoissonOreData(PoissonStructure(ctx, table))
        assert ore.mu(1, 0) == 1 and ore.mu(0, 1) == -1
        assert ore.delta_images(1) == {"a": parse_expr("q*a", ctx)}


class TestGrading:
    def test_builtin_weights_grade_the_table(self):
        assert check_grading(S, ALG.weights) is None

    def test_casimir_weights(self):
        assert ALG.weights.weight_of(ALG.casimirs["Omega1"]) == (4, 2)
        assert ALG.weights.weight_of(ALG.casimirs["Omega2"]) == (6, 4)

    def test_zero_weights_pass_trivially(self):
        # The trivial torus action is a Poisson automorphism action, so the
        # all-zero weight vector grades any table.
        w = WeightVector(CTX, {i: (0, 0) for i in CTX.generators()})
        assert check_grading(S, w) is None

    def test_bad_weights_fail(self):
        # All generators of weight (1,0): {X1, X3} = X1*X3 + X2 mixes
        # weights (2,0) and (1,0).
        w = WeightVector(CTX, {i: (1, 0) for i in CTX.generators()})
        result = check_grading(S, w)
        assert result is not None
        pair, term, got, expected = result
        assert pair == (0, 2) and expected == (2, 0)

    def test_inhomogeneous_detection(self):
        assert ALG.weights.weight_of(parse_expr("X1 + X2", CTX)) is None


class TestLoader:
    def test_builtin_algebra_loaded_once(self):
        assert g2.builtin_algebra() is g2.builtin_algebra()

    def test_reversed_bracket_key_normalises(self):
        data = {"variables": ["a", "b"], "brackets": {"2,1": "-3*a*b"}}
        alg = g2.load_algebra(data)
        assert alg.structure.table[(0, 1)] == parse_expr("3*a*b", alg.context)

    def test_duplicate_bracket_rejected(self):
        data = {"variables": ["a", "b"],
                "brackets": {"1,2": "a*b", "2,1": "-a*b"}}
        with pytest.raises(Exception, match="duplicate"):
            g2.load_algebra(data)

    def test_missing_field_rejected(self):
        with pytest.raises(Exception, match="brackets"):
            g2.load_algebra({"variables": ["a"]})

    def test_load_from_file(self, tmp_path):
        import json
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({
            "variables": ["a", "b"], "brackets": {"1,2": "2*a*b"},
            "weights": [[1, 0], [0, 1]],
            "casimirs": {}}))
        alg = g2.load_algebra(str(path))
        assert alg.ore.mu(1, 0) == -2
        assert alg.weights.weights[1] == (0, 1)

    def test_boolean_weights_rejected(self):
        # JSON true and false load as bool, a subclass of int
        data = {"variables": ["a", "b"], "brackets": {},
                "weights": [[True, False], [0, 1]]}
        with pytest.raises(ExprError, match="integer pairs"):
            g2.load_algebra(data)

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(Exception, match="one pair per generator"):
            g2.load_algebra({"variables": ["a", "b"], "brackets": {},
                             "weights": [[1, 0]]})
