"""The deleting-derivations chain, its torus target and the Omega ladders."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from poisson_forge import chain, g2, suites
from poisson_forge.chain import (ChainStage, FractionElement, FractionField,
                                 TruncationError, builtin_chain,
                                 chain_elements, chain_step,
                                 localize_structure, run_chain,
                                 verify_central_ladders, verify_chain_formulas,
                                 verify_log_canonical)
from poisson_forge.expr import ExprError, LaurentPoly, VarContext, divide_exact
from poisson_forge.parse import parse_expr
from poisson_forge.poisson import PoissonOreData, PoissonStructure
from poisson_forge.quotient import QuotientRing

ALG = g2.builtin_algebra()
GOLDEN_CHAIN_TEXT = (Path(__file__).parent / "data" / "chain.txt").read_text(
    encoding="utf-8")
LOCAL = localize_structure(ALG.structure, ["X5", "X6"])
LCTX = LOCAL.context
STAGES = builtin_chain()
CASIMIRS_LOCAL = {name: omega.into(LCTX)
                  for name, omega in ALG.casimirs.items()}


def poly(stage_gen):
    assert not stage_gen.den, f"unexpected denominator: {stage_gen}"
    return stage_gen.num


class TestFractionField:
    def test_cancellation(self):
        fld = FractionField(LOCAL)
        t4 = parse_expr("X4 - 2/3*X5^3*X6^-1", LCTX)
        frac = fld.element(t4 * t4 * LCTX.var("X1")) * fld.element(t4).inverse()
        assert not frac.den
        assert frac.num == t4 * LCTX.var("X1")

    def test_cross_multiplied_equality(self):
        fld = FractionField(LOCAL)
        t4 = parse_expr("X4 - 2/3*X5^3*X6^-1", LCTX)
        a = fld.element(LCTX.var("X1") * t4) * fld.element(t4).inverse()
        assert a == fld.var("X1")

    def test_monomial_inverse_stays_polynomial(self):
        fld = FractionField(LOCAL)
        assert not fld.var("X6").inverse().den

    def test_nonzero_denominator_registered_once(self):
        fld = FractionField(LOCAL)
        t4 = parse_expr("X4 - 2/3*X5^3*X6^-1", LCTX)
        fld.element(t4).inverse()
        fld.element(t4).inverse()
        assert len(fld.factors) == 1


class EagerFraction:
    """The reference: a fraction over a FractionField that cancels the
    registered factors out of its numerator after every operation, as
    FractionElement did before it cancelled on read."""

    def __init__(self, field, num, den):
        self.field = field
        den = {} if num.is_zero() else {k: v for k, v in den.items() if v}
        for label in sorted(den):
            factor = field.factors[label]
            while den[label] > 0:
                quotient = divide_exact(num, factor)
                if quotient is None:
                    break
                num = quotient
                den[label] -= 1
            if den[label] == 0:
                del den[label]
        self.num, self.den = num, den

    def den_poly(self):
        p = self.field.context.one()
        for label, power in self.den.items():
            p = p * self.field.factors[label] ** power
        return p

    def _scaled_to(self, den):
        num = self.num
        for label, power in den.items():
            extra = power - self.den.get(label, 0)
            if extra:
                num = num * self.field.factors[label] ** extra
        return num

    def __add__(self, other):
        den = {k: max(self.den.get(k, 0), other.den.get(k, 0))
               for k in set(self.den) | set(other.den)}
        return EagerFraction(self.field,
                             self._scaled_to(den) + other._scaled_to(den), den)

    def __sub__(self, other):
        return self + EagerFraction(self.field, -other.num, other.den)

    def __mul__(self, other):
        den = {k: self.den.get(k, 0) + other.den.get(k, 0)
               for k in set(self.den) | set(other.den)}
        return EagerFraction(self.field, self.num * other.num, den)

    def inverse(self):
        try:
            inverse = self.num.monomial_inverse()
        except ExprError:
            label = self.field.register(self.num)
            return EagerFraction(self.field, self.den_poly(), {label: 1})
        return EagerFraction(self.field, self.den_poly() * inverse, {})

    def bracket(self, other):
        br = self.field.structure.bracket
        a, c = self.num, other.num
        b, d = self.den_poly(), other.den_poly()
        num = (br(a, c) * b * d - br(b, c) * a * d - br(a, d) * c * b
               + br(b, d) * a * c)
        den = {k: 2 * self.den.get(k, 0) + 2 * other.den.get(k, 0)
               for k in set(self.den) | set(other.den)}
        return EagerFraction(self.field, num, den)

    def __str__(self):
        if not self.den:
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num} * ({self.den_poly()})^-1"


# A chain of its own, not the shared one of builtin_chain: inverting
# generators registers factors in its field.
PROPERTY_STAGES = run_chain(LOCAL, ALG.ore)
GENERATORS = st.tuples(st.sampled_from(sorted(PROPERTY_STAGES)), st.integers(1, 6))
EXPRESSIONS = st.recursive(
    st.tuples(st.sampled_from(["gen", "inverse"]), GENERATORS),
    lambda inner: st.tuples(st.sampled_from(["+", "-", "*", "bracket"]), inner, inner),
    max_leaves=4)


def evaluate(tree, lazy: bool):
    op = tree[0]
    if op in ("gen", "inverse"):
        level, i = tree[1]
        gen = PROPERTY_STAGES[level].gen(i)
        if not lazy:
            gen = EagerFraction(gen.field, gen.num, dict(gen.den))
        return gen.inverse() if op == "inverse" else gen
    left, right = evaluate(tree[1], lazy), evaluate(tree[2], lazy)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    return left.bracket(right)


@pytest.fixture
def divisions(monkeypatch):
    """The (f, g) of every divide_exact call the chain module makes."""
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return divide_exact(f, g)

    monkeypatch.setattr(chain, "divide_exact", counted)
    return calls


@pytest.fixture
def brackets(monkeypatch):
    """The (self, other) of every FractionElement.bracket call."""
    calls = []
    bracket = FractionElement.bracket

    def counted(self, other):
        calls.append((self, other))
        return bracket(self, other)

    monkeypatch.setattr(FractionElement, "bracket", counted)
    return calls


def log_canonical(stages):
    """The one log-canonical check of ``stages`` against the shipped torus
    matrix, as suite_pdda makes it."""
    return verify_log_canonical(stages, g2.TORUS_MATRIX, ALG.ore)


def is_contract(label):
    return label.endswith("log-canonical")


class TestCancellationOnRead:
    @given(EXPRESSIONS)
    @example(("bracket", ("gen", (2, 1)), ("gen", (2, 2))))
    @example(("*", ("gen", (4, 1)), ("inverse", (4, 4))))
    @example(("bracket", ("inverse", (3, 1)), ("gen", (6, 2))))
    @example(("-", ("*", ("gen", (3, 1)), ("inverse", (3, 1))), ("gen", (7, 5))))
    def test_matches_eager_reference(self, tree):
        value, reference = evaluate(tree, lazy=True), evaluate(tree, lazy=False)
        assert isinstance(value, FractionElement)
        # str first: nothing has read the value yet
        assert str(value) == str(reference)
        assert value.num == reference.num
        assert value.den == reference.den
        assert value.den_poly() == reference.den_poly()

    def test_contract_checks_make_no_divisions(self, divisions):
        # chain_step left the stages in lowest terms, and the checks only
        # add, multiply, bracket and test for zero
        items = log_canonical(STAGES)
        assert len(items) == 71 and all(ok for _, ok, _ in items)
        assert divisions == []
        # printing a stage reads what chain_step already reduced
        lines = [f"X[{i},{level}] = {STAGES[level].gen(i)}"
                 for level in range(6, 1, -1) for i in range(1, 7)]
        assert lines == GOLDEN_CHAIN_TEXT.splitlines()[:30]
        assert divisions == []

    def test_reading_reduces_once(self, divisions):
        fld = FractionField(LOCAL)
        t4 = parse_expr("X4 - 2/3*X5^3*X6^-1", LCTX)
        frac = fld.element(t4 * LCTX.var("X1")) * fld.element(t4).inverse()
        assert divisions == []
        assert not frac.den and frac.num == LCTX.var("X1")
        assert str(frac) == "X1" and frac.den == {}
        assert divisions == [(t4 * LCTX.var("X1"), t4)]

    def test_inverse_registers_lowest_terms(self):
        fld = FractionField(LOCAL)
        t4 = parse_expr("X4 - 2/3*X5^3*X6^-1", LCTX)
        frac = fld.element(t4 * LCTX.var("X1")) * fld.element(t4).inverse()
        assert str(frac.inverse()) == "1 * (X1)^-1"
        assert list(fld.factors.values()) == [t4, LCTX.var("X1")]


# Elements that hold registered denominators, per pool in a field of its
# own: the localisation tower of the localised quotient and the chain.
# Each is built when drawn, as reading an element reduces its pair in place.
TOWER = chain_elements(QuotientRing(localized=True))
DENOMINATOR_POOLS = [
    [lambda: TOWER["f1"], lambda: TOWER["t1"], lambda: TOWER["t2"],
     lambda: TOWER["t1"] * TOWER["t2"],
     lambda: TOWER["t1"] * TOWER["t3"]],  # held unreduced: t3 cancels
    [lambda: PROPERTY_STAGES[4].gen(1), lambda: PROPERTY_STAGES[4].gen(2),
     lambda: PROPERTY_STAGES[3].gen(1),
     lambda: PROPERTY_STAGES[3].gen(1) * PROPERTY_STAGES[4].gen(2)],
]


@st.composite
def with_denominators(draw):
    """(an element holding registered denominators, the pool it is from)."""
    pool = draw(st.sampled_from(DENOMINATOR_POOLS))
    x = draw(st.sampled_from(pool))()
    assert x._den
    return x, pool


def power_by_products(x, n):
    """x^n as |n| products of x, or of its inverse for n < 0."""
    base = x if n >= 0 else x.inverse()
    result = x.field.element(x.field.context.one())
    for _ in range(abs(n)):
        result = result * base
    return result


class TestPowerAndDifference:
    @given(with_denominators(), st.integers(-3, 3))
    def test_power_is_the_repeated_product(self, drawn, n):
        x, _ = drawn
        value, reference = x ** n, power_by_products(x, n)
        assert str(value) == str(reference)
        assert (value.num, value.den) == (reference.num, reference.den)

    @given(with_denominators(), st.data())
    def test_difference_is_the_sum_with_the_negation(self, drawn, data):
        x, pool = drawn
        ctx = x.field.context
        y = data.draw(st.one_of(
            st.integers(-5, 5),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            st.sampled_from([ctx.var(ctx.names[i]) + Fraction(1, 2)
                             for i in ctx.generators()]),
            st.sampled_from(pool).map(lambda build: build())))
        value, reference = x - y, x + (-y)
        assert (value.num, value.den) == (reference.num, reference.den)
        assert value + y == x
        # and against y lifted by hand, past the coercion of ``+``
        if not isinstance(y, FractionElement):
            y = x.field.element(y if isinstance(y, LaurentPoly) else ctx.scalar(y))
        assert value == x + FractionElement(x.field, -y._num, y._den)


class TestChain:
    def test_builtin_chain_runs_once_per_process(self):
        assert builtin_chain() is builtin_chain() is STAGES
        assert list(STAGES) == [7, 6, 5, 4, 3, 2]

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
        items = [item for item in log_canonical(STAGES) if not is_contract(item.label)]
        assert len(items) == 16  # matrix golden check + 15 bracket pairs
        for label, ok, residue in items:
            assert ok, f"{label}: residue {residue}"

    def test_first_torus_pair_value(self):
        t1, t2 = STAGES[2].gen(1), STAGES[2].gen(2)
        assert t1.bracket(t2) == 3 * t1 * t2

    def test_stage_contracts_all_levels(self):
        items = [item for item in log_canonical(STAGES) if is_contract(item.label)]
        assert len(items) == 55
        for label, ok, residue in items:
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
        ore = PoissonOreData(struct)
        assert [ore.mu(1, 0), ore.mu(2, 0), ore.mu(2, 1)] == [-2, 1, -5]
        stages = run_chain(struct, ore)
        for level, stage in stages.items():
            assert stage.gens == stages[4].gens

    def test_stage6_mutation_breaks_the_contract(self):
        # Drop the -1/2*X5*X6^-1 term of X[1,6].  Hand oracle at level 6:
        # {X6, X1} - 3*X1*X6 = -3*X5, so the (6,1) contract fails with
        # residue -3*X5.
        # The levels below keep the chain's own generators and pass.
        fld = STAGES[6].gens[0].field
        stages = dict(STAGES)
        stages[6] = ChainStage(6, (fld.var("X1"),) + STAGES[6].gens[1:])
        failing = {label: residue for label, ok, residue in log_canonical(stages)
                   if not ok}
        assert failing == {"level 6: {X[6,6], X[1,6]} log-canonical": "-3*X5"}

    def test_level4_mutation_residue_keeps_its_denominator(self):
        # X[6,4] + X1 in place of X[6,4]: only its five (6, i) items of
        # level 4 fail, their residues printed in lowest terms, T4^2 left
        # in the denominator of the (6,2) one
        fld = STAGES[4].gens[0].field
        stages = dict(STAGES)
        stages[4] = ChainStage(4, STAGES[4].gens[:5] + (STAGES[4].gen(6) + fld.var("X1"),))
        failing = {label: residue for label, ok, residue in log_canonical(stages)
                   if not ok}
        assert sorted(failing) == [f"level 4: {{X[6,4], X[{i},4]}} log-canonical"
                                   for i in range(1, 6)]
        assert failing["level 4: {X[6,4], X[2,4]} log-canonical"] == (
            "(-2*X2*X3^2*X4 - 3*X2*X4^2*X5*X6^-1 - 3*X3^2*X4^2*X6^-1"
            " - 9/2*X4^3*X5*X6^-2 + 4*X2*X3*X4*X5^2*X6^-1 + 4/3*X3^5"
            " + 8*X3^3*X4*X5*X6^-1 + 15*X3*X4^2*X5^2*X6^-2"
            " + 4/3*X2*X3^2*X5^3*X6^-1 + 2*X2*X4*X5^4*X6^-2"
            " - 20/3*X3^4*X5^2*X6^-1 - 18*X3^2*X4*X5^3*X6^-2"
            " - 8/3*X2*X3*X5^5*X6^-2 + 8*X3^3*X5^4*X6^-2)"
            " * (X4^2 - 4/3*X4*X5^3*X6^-1 + 4/9*X5^6*X6^-2)^-1")
        assert failing["level 4: {X[6,4], X[5,4]} log-canonical"] == "2*X3 + 2*X1*X5"

    def test_chain_contract_brackets_each_pair_once(self, brackets):
        # a chain step keeps the generators it does not change as the same
        # objects, so the 55 contract items of the chain hold 25 distinct
        # generator pairs, each bracketed once, and the 15 torus relations
        # of level 2 read the contract's brackets of the same generators
        items = log_canonical(STAGES)
        assert len(items) == 71 and all(ok for _, ok, _ in items)
        assert sum(is_contract(label) for label, _, _ in items) == 55
        assert len(brackets) == 25

    def test_pdda_brackets_each_contract_pair_once(self, brackets):
        # its 25 contract pairs; the 15 torus relations of level 2 read
        # the contract's brackets of the same generators
        items = suites.suite_pdda()
        assert sum(label.endswith("log-canonical") for label, _, _ in items) == 55
        assert len(brackets) == 25

    def test_pdda_wrong_matrix_entry_fails_its_torus_item(self, brackets, monkeypatch):
        # negative control: the torus items subtract the matrix's own
        # entry from the contract's bracket, so one wrong entry of
        # TORUS_MATRIX fails its item and the comparison with sigma
        matrix = [list(row) for row in g2.TORUS_MATRIX]
        matrix[0][1] += 1
        matrix[1][0] -= 1
        monkeypatch.setattr(g2, "TORUS_MATRIX", matrix)
        failing = [label for label, ok, _ in suites.suite_pdda() if not ok]
        assert failing == ["matrix matches the sigma table", "{T1, T2} = 4*T1*T2"]
        assert len(brackets) == 25

    def test_swapped_generator_fails_at_its_level(self, brackets):
        # negative control: X[6,4] + X1, a new object, in place of X[6,4]
        # at level 4 alone.  Its pairs (6, 3..5), bracketed at the levels
        # above, are bracketed again at level 4 and fail there with
        # (6, 1..2).  Level 3 holds the chain's own X[6,4] again: its pairs
        # (6, 3..5) were bracketed at level 5 and above, and only (6, 2),
        # which the chain first brackets at level 4, is bracketed again.
        # Levels 3 and 2 pass
        fld = STAGES[4].gens[0].field
        stages = dict(STAGES)
        stages[4] = ChainStage(4, STAGES[4].gens[:5] + (STAGES[4].gen(6) + fld.var("X1"),))
        failing = sorted(label for label, ok, _ in log_canonical(stages) if not ok)
        assert failing == [f"level 4: {{X[6,4], X[{i},4]}} log-canonical"
                           for i in range(1, 6)]
        assert len(brackets) == 25 + 3 + 1

    def test_equal_new_generator_is_bracketed_again(self, brackets):
        # a residue is reused only for the identical objects: X[1,2] + 0 is
        # equal to X[1,2] but a new object, so its pairs (3..6, 1), which
        # level 3 bracketed, are bracketed again at level 2, and they pass
        stages = dict(STAGES)
        stages[2] = ChainStage(2, (STAGES[2].gen(1) + 0,) + STAGES[2].gens[1:])
        assert stages[2].gen(1) is not STAGES[2].gen(1)
        assert all(ok for _, ok, _ in log_canonical(stages))
        assert len(brackets) == 25 + 4

    def test_mutated_chain_fails_torus_relations(self):
        # Propagating the dropped term through the explicit formulas gives
        # T1' = T1 + 1/2*T5*T6^-1, and {T1', Tj} - mu_1j T1' Tj =
        # 1/2 (mu_5j - mu_6j - mu_1j) T5 T6^-1 Tj, nonzero exactly for
        # j in {2, 3, 5, 6}.
        fld = STAGES[6].gens[0].field
        envs = dict(STAGES)
        envs[6] = ChainStage(6, (fld.var("X1"),) + STAGES[6].gens[1:])
        for (i, j) in [(1, 5), (1, 4), (1, 3)]:
            value = chain._evaluate(g2.CHAIN_FORMULAS[(i, j)], chain._LEVEL,
                                    envs[j + 1].gens)
            gens = list(STAGES[j].gens)
            gens[i - 1] = value
            envs[j] = ChainStage(j, tuple(gens))
        envs[2] = ChainStage(2, envs[3].gens)
        t1 = envs[2].gen(1)
        assert t1 == STAGES[2].gen(1) + fld.element(
            parse_expr("1/2*X5*X6^-1", LCTX))
        failed = {label for label, ok, _ in log_canonical(envs)
                  if not ok and not is_contract(label)}
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
        ore = PoissonOreData(struct)
        assert ore.delta_images(1) == {"y1": ctx.monomial({"y1": 3})}
        assert ore.eta(1) == -2
        with pytest.raises(TruncationError):
            run_chain(struct, ore)


def sympy_algebra():
    """(symbols, to_sympy, table) for the oracles below: a sympy symbol per
    generator of ALG, a converter of polynomials whose variables carry
    those names, and the bracket table of ALG as sympy polynomials."""
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
    return symbols, to_sympy, table


def seeded_points(symbols, seed, count):
    """``count`` points, each a nonzero rational p/q with |p|, q <= 9 per
    symbol, drawn from random.Random(seed)."""
    import random

    import sympy

    rng = random.Random(seed)
    return [{s: sympy.Rational(rng.choice([-1, 1]) * rng.randint(1, 9),
                               rng.randint(1, 9))
             for s in symbols.values()} for _ in range(count)]


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
        import sympy

        symbols, to_sympy, table = sympy_algebra()
        gens = [to_sympy(t.num) / to_sympy(t.den_poly()) for t in STAGES[2].gens]
        grads = [{name: sympy.diff(t, s) for name, s in symbols.items()}
                 for t in gens]
        values = []
        for point in seeded_points(symbols, 20251018, self.POINTS):
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
        import sympy

        symbols, to_sympy, table = sympy_algebra()
        names = ALG.context.names
        omegas = {name: to_sympy(omega) for name, omega in ALG.casimirs.items()}
        points = seeded_points(symbols, 20261018, self.POINTS)

        def evaluate(text, level, gens):
            """``text`` with X[i,level] put in for Xi."""
            return sympy.sympify(text.replace("^", "**"), locals={
                f"X{i}": gens[(i, level)] for i in range(1, 7)})

        def run(formulas, ladders):
            gens = {(i, 7): symbols[names[i - 1]] for i in range(1, 7)}
            for j in range(6, 1, -1):
                for i in range(1, 7):
                    text = formulas.get((i, j))
                    gens[(i, j)] = (gens[(i, j + 1)] if text is None
                                    else evaluate(text, j + 1, gens))
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
                for level, text in sorted(levels.items()):
                    sym = evaluate(text, level, gens)
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
        formulas[(1, 6)] = "X1 - 1/3*X5*X6^-1"
        ladders = dict(self.LADDERS)
        ladders["Omega2"] = dict(g2.OMEGA2_LADDER)
        ladders["Omega2"][5] = "X2*X4*X6 - 1/3*X3^3*X6"
        contract, ladder = oracle(formulas, ladders)
        assert any(any(per_point) for _, per_point in contract)
        failed = [label for label, per_point in ladder if any(per_point)]
        assert "Omega2 level 5" in failed


GOLDEN_TEXTS = [
    *((f"X[{i},{j}]", text) for (i, j), text in g2.CHAIN_FORMULAS.items()),
    *((f"{name} level {level}", text)
      for name, ladder in (("Omega1", g2.OMEGA1_LADDER), ("Omega2", g2.OMEGA2_LADDER))
      for level, text in ladder.items())]


class TestGoldenText:
    """The chain formulas and ladders of g2 are written as the package
    prints them, so each reads as what it shows."""

    @pytest.mark.parametrize("text", [text for _, text in GOLDEN_TEXTS],
                             ids=[name for name, _ in GOLDEN_TEXTS])
    def test_text_is_its_printed_form(self, text):
        assert str(parse_expr(text, chain._LEVEL)) == text

    def test_level6_formulas_are_the_chain_lines(self):
        # level 7 is X itself, so X[i,6] prints as its formula
        lines = dict(line.split(" = ", 1) for line in GOLDEN_CHAIN_TEXT.splitlines())
        for i in range(1, 5):
            assert g2.CHAIN_FORMULAS[i, 6] == lines[f"X[{i},6]"]
