"""The deleting-derivations chain, its torus target and the Omega ladders."""

from fractions import Fraction

import pytest

from poisson_forge import g2
from poisson_forge.chain import (ChainStage, FractionField, TruncationError,
                                 builtin_chain, chain_step, localize_structure,
                                 run_chain, verify_central_ladders,
                                 verify_chain_formulas,
                                 verify_stage_contract, verify_torus_relations)
from poisson_forge.expr import VarContext
from poisson_forge.parse import parse_expr
from poisson_forge.poisson import PoissonOreData, PoissonStructure

ALG = g2.builtin_algebra()
LOCAL = localize_structure(ALG.structure, ["X5", "X6"])
LCTX = LOCAL.context
STAGES = builtin_chain()
CASIMIRS_LOCAL = {name: omega.into(LCTX)
                  for name, omega in ALG.casimirs.items()}


def poly(stage_gen):
    assert stage_gen.is_polynomial(), f"unexpected denominator: {stage_gen}"
    return stage_gen.num


class TestFractionField:
    def test_cancellation(self):
        fld = FractionField(LOCAL)
        t4 = parse_expr("X4 - 2/3*X5^3*X6^-1", LCTX)
        frac = fld.element(t4 * t4 * LCTX.var("X1")) * fld.element(t4).inverse()
        assert frac.is_polynomial()
        assert frac.num == t4 * LCTX.var("X1")

    def test_cross_multiplied_equality(self):
        fld = FractionField(LOCAL)
        t4 = parse_expr("X4 - 2/3*X5^3*X6^-1", LCTX)
        a = fld.element(LCTX.var("X1") * t4) * fld.element(t4).inverse()
        assert a == fld.var("X1")

    def test_monomial_inverse_stays_polynomial(self):
        fld = FractionField(LOCAL)
        assert fld.var("X6").inverse().is_polynomial()

    def test_nonzero_denominator_registered_once(self):
        fld = FractionField(LOCAL)
        t4 = parse_expr("X4 - 2/3*X5^3*X6^-1", LCTX)
        fld.element(t4).inverse()
        fld.element(t4).inverse()
        assert len(fld.factors) == 1


class TestChain:
    def test_level6_formulas_frozen(self):
        expected = {
            1: "X1 - 1/2*X5*X6^-1",
            2: "X2 + 3/2*X4*X6^-1 - 3*X3*X5*X6^-1 + X5^3*X6^-2",
            3: "X3 - X5^2*X6^-1",
            4: "X4 - 2/3*X5^3*X6^-1",
            5: "X5",
            6: "X6",
        }
        for i, text in expected.items():
            assert poly(STAGES[6].gen(i)) == parse_expr(text, LCTX)

    def test_level5_t3_collapses(self):
        assert poly(STAGES[5].gen(3)) == parse_expr("X3 - 3/2*X4*X5^-1", LCTX)
        # the i >= j branch: X[4,5] = X[4,6], X[5,5] = X5
        assert STAGES[5].gen(4) == STAGES[6].gen(4)
        assert STAGES[5].gen(5) == STAGES[6].gen(5)

    def test_all_explicit_formulas(self):
        items = verify_chain_formulas(STAGES)
        assert len(items) == 16  # 10 corrective formulas + 6 stability collapses
        for label, ok, residue in items:
            assert ok, f"{label}: residue {residue}"

    def test_torus_relations(self):
        items = verify_torus_relations(STAGES[2], g2.TORUS_MATRIX, ALG.ore)
        assert len(items) == 16  # matrix golden check + 15 bracket pairs
        for label, ok, residue in items:
            assert ok, f"{label}: residue {residue}"

    def test_first_torus_pair_value(self):
        t1, t2 = STAGES[2].gen(1), STAGES[2].gen(2)
        assert t1.bracket(t2) == 3 * t1 * t2

    def test_stage_contracts_all_levels(self):
        for level, stage in STAGES.items():
            for label, ok, residue in verify_stage_contract(stage, ALG.ore):
                assert ok, f"{label}: residue {residue}"

    def test_series_depths(self):
        worst = max(max(stage.depths.values(), default=0)
                    for stage in STAGES.values())
        assert worst <= 3  # delta^4 always annihilates

    def test_ladders(self):
        items = verify_central_ladders(STAGES, CASIMIRS_LOCAL)
        assert [label for label, _, _ in items] == [
            "Omega1 ladder: level 3 = level 4",
            "Omega1 ladder: level 4 = level 5",
            "Omega1 ladder: level 5 = level 6",
            "Omega1 ladder: level 6 = polynomial form",
            "Omega2 ladder: level 4 = level 5",
            "Omega2 ladder: level 5 = level 6",
            "Omega2 ladder: level 6 = polynomial form",
        ]
        for label, ok, residue in items:
            assert ok, f"{label}: residue {residue}"

    def test_idempotence_on_toral_stage(self):
        # delta_2 = 0, so the last step keeps every generator unchanged.
        step = chain_step(STAGES[3], ALG.ore)
        assert step.gens == STAGES[3].gens

    def test_idempotence_on_log_canonical_structure(self):
        # {y_i, y_j} = mu_ij y_j y_i with mu the negated table coefficients.
        ctx = VarContext.make(["y1", "y2", "y3"])
        table = {(0, 1): ctx.monomial({"y1": 1, "y2": 1}, 2),
                 (0, 2): ctx.monomial({"y1": 1, "y3": 1}, -1),
                 (1, 2): ctx.monomial({"y2": 1, "y3": 1}, 5)}
        struct = localize_structure(PoissonStructure(ctx, table),
                                    ["y1", "y2", "y3"])
        ore = PoissonOreData(struct.context,
                             {(1, 0): Fraction(-2), (2, 0): Fraction(1),
                              (2, 1): Fraction(-5)}, {})
        stages = run_chain(struct, ore)
        for level, stage in stages.items():
            assert stage.gens == stages[4].gens

    def test_stage6_mutation_breaks_the_contract(self):
        # Drop the -1/2*X5*X6^-1 term of X[1,6].  Hand oracle at level 6:
        # {X6, X1} - 3*X1*X6 = -3*X5, so the (6,1) contract fails with
        # residue -3*X5.
        fld = STAGES[6].gens[0].field
        mutated_gens = (fld.var("X1"),) + STAGES[6].gens[1:]
        mutated6 = ChainStage(6, mutated_gens)
        contract = verify_stage_contract(mutated6, ALG.ore)
        failing = {label: residue for label, ok, residue in contract if not ok}
        assert failing["level 6: {X[6,6], X[1,6]} log-canonical"] == "-3*X5"

    def test_mutated_chain_fails_torus_relations(self):
        # Propagating the dropped term through the explicit formulas gives
        # T1' = T1 + 1/2*T5*T6^-1, and {T1', Tj} - mu_1j T1' Tj =
        # 1/2 (mu_5j - mu_6j - mu_1j) T5 T6^-1 Tj, nonzero exactly for
        # j in {2, 3, 5, 6}.
        fld = STAGES[6].gens[0].field
        envs = dict(STAGES)
        envs[6] = ChainStage(6, (fld.var("X1"),) + STAGES[6].gens[1:])
        from poisson_forge.chain import _eval_terms
        for (i, j) in [(1, 5), (1, 4), (1, 3)]:
            value = _eval_terms(g2.CHAIN_FORMULAS[(i, j)], envs)
            gens = list(STAGES[j].gens)
            gens[i - 1] = value
            envs[j] = ChainStage(j, tuple(gens))
        envs[2] = ChainStage(2, envs[3].gens)
        t1 = envs[2].gen(1)
        assert t1 == STAGES[2].gen(1) + fld.element(
            parse_expr("1/2*X5*X6^-1", LCTX))
        torus = verify_torus_relations(envs[2], g2.TORUS_MATRIX, ALG.ore)
        failed = {label for label, ok, _ in torus if not ok}
        assert failed == {
            "{T1, T2} = 3*T1*T2",
            "{T1, T3} = 1*T1*T3",
            "{T1, T5} = -1*T1*T5",
            "{T1, T6} = -3*T1*T6",
        }

    def test_truncation_bound_enforced(self):
        # sigma_2(y1) = y1, delta_2(y1) = y1^3 satisfies the eta relation
        # with eta = -2 but is not locally nilpotent; the series must be
        # cut off by the bound.
        ctx = VarContext.make(["y1", "y2"], invertible=["y2"])
        table = {(0, 1): parse_expr("-y1*y2 - y1^3", VarContext.make(
            ["y1", "y2"], invertible=["y2"]))}
        struct = PoissonStructure(ctx, table)
        ore = PoissonOreData(ctx, {(1, 0): Fraction(1)},
                             {(1, 0): ctx.monomial({"y1": 3})})
        assert ore.eta(1) == -2
        with pytest.raises(TruncationError):
            run_chain(struct, ore)


class TestTorusOracle:
    """{T_i, T_j} = M_ij T_i T_j checked outside the package: the level-2
    generators as sympy rational functions num / den_poly(), the bracket
    from the ambient table through sympy.diff, both sides evaluated exactly
    at seeded rational points."""

    POINTS = 3

    @pytest.fixture(scope="class")
    def residues(self):
        """residues(shift) -> [(pair, {T_i, T_j} - (M_ij + shift) T_i T_j at
        each point)] over the 15 pairs."""
        import random

        import sympy

        names = ALG.context.names
        symbols = dict(zip(names, sympy.symbols(names)))

        def to_sympy(p):
            return sympy.Add(*[
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[symbols[name] ** e
                              for name, e in zip(p.context.names, m) if e])
                for m, c in p.terms.items()])

        table = {(names[i], names[j]): to_sympy(value)
                 for (i, j), value in ALG.structure.table.items()}
        gens = [to_sympy(t.num) / to_sympy(t.den_poly()) for t in STAGES[2].gens]
        grads = [{name: sympy.diff(t, s) for name, s in symbols.items()}
                 for t in gens]
        rng = random.Random(20251018)
        values = []
        for _ in range(self.POINTS):
            point = {s: sympy.Rational(rng.choice([-1, 1]) * rng.randint(1, 9),
                                       rng.randint(1, 9))
                     for s in symbols.values()}
            dens = [to_sympy(t.den_poly()).xreplace(point) for t in STAGES[2].gens]
            assert all(dens), "a seeded point is a pole of some T_i"
            values.append(([t.xreplace(point) for t in gens],
                           [{x: d.xreplace(point) for x, d in g.items()}
                            for g in grads],
                           {k: b.xreplace(point) for k, b in table.items()}))

        def at_shift(shift):
            out = []
            n = len(gens)
            for a in range(n):
                for b in range(a + 1, n):
                    m_ab = g2.TORUS_MATRIX[a][b] + shift
                    per_point = []
                    for t, grad, brackets in values:
                        lhs = sum(value * (grad[a][x] * grad[b][y]
                                           - grad[a][y] * grad[b][x])
                                  for (x, y), value in brackets.items())
                        per_point.append(lhs - m_ab * t[a] * t[b])
                    out.append(((a + 1, b + 1), per_point))
            return out
        return at_shift

    def test_torus_matrix_holds_at_seeded_points(self, residues):
        pairs = residues(0)
        assert len(pairs) == 15
        for pair, per_point in pairs:
            assert per_point == [0] * self.POINTS, pair

    def test_shifted_matrix_fails_on_every_pair(self, residues):
        # negative control: M_ij + 1 leaves -T_i T_j, nonzero at the points
        for pair, per_point in residues(1):
            assert any(per_point), pair


class TestChainFormulaOracle:
    """g2.CHAIN_FORMULAS and the Omega ladders checked outside the
    package: every X[i,j] built in sympy from the formulas alone, from
    X[i,7] = X_i down, with X[i,j] = X[i,j+1] where no formula is given;
    the bracket from the ambient table through sympy.diff; both sides
    evaluated exactly at seeded rational points.  No run_chain and no
    FractionElement."""

    POINTS = 3

    @pytest.fixture(scope="class")
    def oracle(self):
        """oracle(formulas, ladders) -> (stage contract residues, ladder
        residues), each [(label, [value at each point])]."""
        import random

        import sympy

        names = ALG.context.names
        symbols = dict(zip(names, sympy.symbols(names)))

        def to_sympy(p):
            return sympy.Add(*[
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[symbols[name] ** e
                              for name, e in zip(p.context.names, m) if e])
                for m, c in p.terms.items()])

        table = {(names[i], names[j]): to_sympy(value)
                 for (i, j), value in ALG.structure.table.items()}
        omegas = {name: to_sympy(omega) for name, omega in ALG.casimirs.items()}
        rng = random.Random(20261018)
        points = [{s: sympy.Rational(rng.choice([-1, 1]) * rng.randint(1, 9),
                                     rng.randint(1, 9))
                   for s in symbols.values()} for _ in range(self.POINTS)]

        def evaluate(terms, gens):
            return sympy.Add(*[sympy.Rational(coeff) * sympy.Mul(
                *[gens[(i, j)] ** e for i, j, e in powers])
                for coeff, powers in terms])

        def run(formulas, ladders):
            gens = {(i, 7): symbols[names[i - 1]] for i in range(1, 7)}
            for j in range(6, 1, -1):
                for i in range(1, 7):
                    terms = formulas.get((i, j))
                    gens[(i, j)] = (gens[(i, j + 1)] if terms is None
                                    else evaluate(terms, gens))
            grads = {key: {x: sympy.diff(g, s) for x, s in symbols.items()}
                     for key, g in gens.items()}
            at = [({key: g.xreplace(pt) for key, g in gens.items()},
                   {key: {x: d.xreplace(pt) for x, d in grad.items()}
                    for key, grad in grads.items()},
                   {k: b.xreplace(pt) for k, b in table.items()})
                  for pt in points]
            contract = []
            for j in range(6, 1, -1):
                for l in range(j, 7):
                    for i in range(1, l):
                        mu = g2.TORUS_MATRIX[l - 1][i - 1]
                        per_point = []
                        for value, grad, brackets in at:
                            gl, gi = grad[(l, j)], grad[(i, j)]
                            lhs = sum(b * (gl[x] * gi[y] - gl[y] * gi[x])
                                      for (x, y), b in brackets.items())
                            per_point.append(
                                lhs - mu * value[(l, j)] * value[(i, j)])
                        contract.append((f"level {j}: X[{l},{j}], X[{i},{j}]",
                                         per_point))
            ladder = []
            for name, levels in ladders.items():
                for level, terms in sorted(levels.items()):
                    sym = evaluate(terms, {(i, j): gens[(i, j)]
                                           for (i, j) in gens if j == level})
                    ladder.append((f"{name} level {level}",
                                   [(sym - omegas[name]).xreplace(pt)
                                    for pt in points]))
            return contract, ladder
        return run

    LADDERS = {"Omega1": g2.OMEGA1_LADDER, "Omega2": g2.OMEGA2_LADDER}

    @pytest.fixture(scope="class")
    def shipped(self, oracle):
        return oracle(g2.CHAIN_FORMULAS, self.LADDERS)

    def test_formulas_satisfy_the_stage_contract(self, shipped):
        contract, _ = shipped
        assert len(contract) == 55
        for label, per_point in contract:
            assert per_point == [0] * self.POINTS, label

    def test_each_ladder_level_is_its_omega(self, shipped):
        _, ladder = shipped
        assert len(ladder) == 7
        for label, per_point in ladder:
            assert per_point == [0] * self.POINTS, label

    def test_bumped_formula_coefficient_fails(self, oracle):
        # negative controls: X[1,6] = X1 - 1/3*X5*X6^-1 instead of -1/2,
        # and the Omega2 level-5 ladder with -1/3 instead of -2/3
        formulas = dict(g2.CHAIN_FORMULAS)
        formulas[(1, 6)] = [("1", ((1, 7, 1),)), ("-1/3", ((5, 7, 1), (6, 7, -1)))]
        ladders = dict(self.LADDERS)
        ladders["Omega2"] = dict(g2.OMEGA2_LADDER)
        ladders["Omega2"][5] = [("1", ((2, 5, 1), (4, 5, 1), (6, 5, 1))),
                                ("-1/3", ((3, 5, 3), (6, 5, 1)))]
        contract, ladder = oracle(formulas, ladders)
        assert any(any(per_point) for _, per_point in contract)
        failed = [label for label, per_point in ladder if any(per_point)]
        assert "Omega2 level 5" in failed
