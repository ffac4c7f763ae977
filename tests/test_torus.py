"""Centre lattices and the inner-plus-central derivation decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from poisson_forge import g2
from poisson_forge.linalg import hnf_rows, integer_kernel
from poisson_forge.poisson import DerivationSpec, check_poisson_derivation
from poisson_forge.torus import (Decomposition, DecompositionError,
                                 TorusStructure, apply_decomposition,
                                 central_lattice, decompose_derivation,
                                 verify_decomposition)

M6 = TorusStructure.make(g2.TORUS_MATRIX)
RANK2 = TorusStructure.make([[0, 1], [-1, 0]])


class TestLinalg:
    def test_hnf_canonicalises(self):
        assert hnf_rows([[2, 0, 2], [1, 0, 1], [0, 3, 0]]) == [[1, 0, 1], [0, 3, 0]]

    def test_kernel_saturates(self):
        # Over Q the kernel of [[0,0],[0,1]] is spanned by (1,0); any
        # integer multiple generates the same saturated lattice.
        assert integer_kernel([[0, 0], [0, 1]]) == [[1, 0]]

    @given(st.data())
    def test_hnf_is_invariant_under_unimodular_rows(self, data):
        # U*A spans the same lattice as A, and the HNF is unique per lattice.
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        A = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m),
                               min_size=n, max_size=n))
        UA = [list(row) for row in A]
        ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                        st.integers(-3, 3), st.booleans())
        for i, j, k, swap in data.draw(st.lists(ops, max_size=8)):
            if swap:
                UA[i], UA[j] = UA[j], UA[i]
            elif i != j:
                UA[i] = [a + k * b for a, b in zip(UA[i], UA[j])]
            else:
                UA[i] = [-a for a in UA[i]]
        assert hnf_rows(UA) == hnf_rows(A)

    @given(st.data())
    def test_integer_kernel_annihilates_rational_matrix(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 3))
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        mat = data.draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                                 min_size=n, max_size=n))
        kernel = integer_kernel(mat)
        for v in kernel:
            assert len(v) == n and all(isinstance(a, int) for a in v)
            assert all(sum(v[i] * mat[i][j] for i in range(n)) == 0
                       for j in range(m))
        assert hnf_rows(kernel) == kernel


class TestCentralLattice:
    def test_builtin_matrix(self):
        assert central_lattice(M6) == [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]]

    def test_zero_matrix(self):
        torus = TorusStructure.make([[0, 0, 0]] * 3)
        assert central_lattice(torus) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_nonsingular_matrix(self):
        assert central_lattice(RANK2) == []

    def test_lattice_generators_are_casimir_monomials(self):
        # The two basis vectors correspond to T1*T3*T5 and T2*T4*T6, and
        # those monomials bracket to zero with every generator.
        struct = M6.structure()
        ctx = M6.context
        for vec in central_lattice(M6):
            mono = M6.monomial(vec)
            for name in M6.names:
                assert struct.bracket(mono, ctx.var(name)).is_zero()

    def test_antisymmetry_required(self):
        with pytest.raises(Exception, match="antisymmetric"):
            TorusStructure.make([[0, 1], [1, 0]])

    def test_hamiltonian_of_t3_is_log_canonical(self):
        # ham_{t3}(t_i) = lam(e3, e_i) t3 t_i with the built-in matrix row.
        from poisson_forge.poisson import hamiltonian_derivation
        struct = M6.structure()
        D = hamiltonian_derivation(M6.context.var("t3"), struct)
        for i, name in enumerate(M6.names):
            expected = M6.lam[2][i] * M6.context.monomial({"t3": 1, name: 1})
            assert D.images[name] == expected


class TestDecomposition:
    def test_rank2_example(self):
        # D(t1) = t1*t2, D(t2) = 0: oracle ham_{-t2}(t1) = {-t2, t1} =
        # lam(e2, e1) * (-t2) * t1 = t1*t2, so gamma = -t2 and theta = 0.
        ctx = RANK2.context
        D = DerivationSpec(ctx, {"t1": ctx.monomial({"t1": 1, "t2": 1}),
                                 "t2": ctx.zero()})
        dec = decompose_derivation(D, RANK2)
        assert dec.gamma == -ctx.var("t2")
        assert all(img.is_zero() for img in dec.theta_images.values())
        assert verify_decomposition(D, dec, RANK2)

    def test_scalar_derivation(self):
        # D(t_i) = c_i t_i decomposes as gamma = 0, theta(e_i) = c_i * 1.
        ctx = RANK2.context
        D = DerivationSpec(ctx, {"t1": 5 * ctx.var("t1"),
                                 "t2": Fraction(-1, 3) * ctx.var("t2")})
        dec = decompose_derivation(D, RANK2)
        assert dec.gamma.is_zero()
        assert dec.theta_images["t1"] == ctx.scalar(5)
        assert dec.theta_images["t2"] == ctx.scalar("-1/3")

    def test_compatibility_violation_detected(self):
        ctx = RANK2.context
        D = DerivationSpec(ctx, {"t1": ctx.monomial({"t1": 1, "t2": 1}),
                                 "t2": ctx.monomial({"t2": 2}, 5)})
        with pytest.raises(DecompositionError, match="compatibility"):
            decompose_derivation(D, RANK2)

    def test_witness_independence(self):
        D = _random_derivation(M6, random.Random(7))
        low = decompose_derivation(D, M6, witness="smallest")
        high = decompose_derivation(D, M6, witness="largest")
        assert low.gamma == high.gamma
        assert low.theta_images == high.theta_images

    def test_perturbed_theta_fails(self):
        ctx = RANK2.context
        D = DerivationSpec(ctx, {"t1": ctx.monomial({"t1": 1, "t2": 1}),
                                 "t2": ctx.zero()})
        dec = decompose_derivation(D, RANK2)
        bad = Decomposition(dec.gamma,
                            {"t1": dec.theta_images["t1"] + 1,
                             "t2": dec.theta_images["t2"]})
        assert not verify_decomposition(D, bad, RANK2)

    def test_gamma_plus_central_still_verifies(self):
        # Adding a centre-lattice monomial to gamma contributes nothing to
        # ham_gamma, so the equation (not the support invariant) still holds.
        D = _random_derivation(M6, random.Random(11))
        dec = decompose_derivation(D, M6)
        central = M6.monomial([1, 0, 1, 0, 1, 0])
        fat = Decomposition(dec.gamma + central, dec.theta_images)
        assert verify_decomposition(D, fat, M6)

    def test_split_supports(self):
        # ham part has support outside C, theta part inside C.
        rng = random.Random(3)
        D = _random_derivation(M6, rng)
        dec = decompose_derivation(D, M6)
        for g in dec.gamma.terms:
            assert not M6.is_central(g)
        for img in dec.theta_images.values():
            for g in img.terms:
                assert M6.is_central(g)

    def test_roundtrips(self):
        rng = random.Random(20250809)
        for _ in range(25):
            gamma, theta = _random_pair(M6, rng)
            dec_in = Decomposition(gamma, theta)
            D = DerivationSpec(M6.context, apply_decomposition(dec_in, M6))
            dec = decompose_derivation(D, M6)
            assert dec.gamma == gamma
            assert dec.theta_images == theta

    def test_random_inputs_are_poisson_derivations(self):
        rng = random.Random(5)
        gamma, theta = _random_pair(M6, rng)
        D = DerivationSpec(M6.context,
                           apply_decomposition(Decomposition(gamma, theta), M6))
        assert check_poisson_derivation(D, M6.structure()) is None


def _random_exponent(rng):
    return rng.randint(-2, 2)


def _random_pair(torus, rng):
    """Random gamma with support outside C and random additive theta."""
    ctx = torus.context
    lattice = central_lattice(torus)
    gamma = ctx.zero()
    for _ in range(rng.randint(1, 4)):
        g = tuple(_random_exponent(rng) for _ in range(torus.rank))
        if torus.is_central(g):
            continue
        gamma = gamma + torus.monomial(g, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
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


def _random_derivation(torus, rng):
    gamma, theta = _random_pair(torus, rng)
    return DerivationSpec(torus.context,
                          apply_decomposition(Decomposition(gamma, theta), torus))
