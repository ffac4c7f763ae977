"""Centre lattices and the inner-plus-central derivation decomposition."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_forge import g2
from poisson_forge.linalg import hnf_rows, integer_kernel
from poisson_forge.poisson import (DerivationSpec, check_poisson_derivation,
                                   hamiltonian_derivation)
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
        struct = M6.structure()
        D = hamiltonian_derivation(M6.context.var("t3"), struct)
        for i, name in enumerate(M6.names):
            expected = M6.lam[2][i] * M6.context.monomial({"t3": 1, name: 1})
            assert D.images[name] == expected

    @given(st.data())
    def test_hamiltonian_is_log_canonical(self, data):
        # ham_gamma(t_i) = sum_g c_g lam(g, e_i) t^g t_i on random tori,
        # with lam(g, e_i) computed here from the matrix, not by the torus.
        n = data.draw(st.integers(1, 5))
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        lam = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lam[i][j] = data.draw(entries)
                lam[j][i] = -lam[i][j]
        torus = TorusStructure.make(lam)
        ctx = torus.context
        exponents = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        support = data.draw(st.lists(exponents, max_size=4))
        gamma = ctx.zero()
        for g in support:
            gamma = gamma + torus.monomial(g, data.draw(entries))
        struct = torus.structure()
        images = hamiltonian_derivation(gamma, struct).images
        for i, name in enumerate(torus.names):
            expected = ctx.zero()
            for g, c in gamma.terms.items():
                pairing = sum(g[k] * lam[k][i] for k in range(n))
                expected = expected + torus.monomial(g, c * pairing) * ctx.var(name)
            assert images[name] == expected
        for g in support + list(itertools.product((-1, 0, 1), repeat=n)):
            brackets_to_zero = all(
                struct.bracket(torus.monomial(g), ctx.var(name)).is_zero()
                for name in torus.names)
            assert torus.is_central(g) == brackets_to_zero

    def test_derived_data_built_once(self):
        torus = TorusStructure.make([[0, 1], [-1, 0]])
        assert torus.context is torus.context
        assert torus.structure() is torus.structure()


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
        # every y with lam(g, e_y) != 0 reads the same c_g off the images
        D = _random_derivation(M6, random.Random(7))
        dec = decompose_derivation(D, M6)
        ratios = _witness_ratios(D, M6)
        assert ratios and any(len(_witnesses(M6, g)) > 1 for g in ratios)
        assert {g: {c} for g, c in dec.gamma.terms.items()} == ratios

    @settings(max_examples=150)
    @given(st.data())
    def test_rejects_exactly_the_incompatible_images(self, data):
        # Genuine derivations ham_gamma + D_theta on random tori, half of
        # them with an extra term t^g t_x in the image of t_x.  The
        # decomposition must raise iff a_g(e_x) lam(g, e_y) = a_g(e_y)
        # lam(g, e_x) fails for some support g and generator pair (x, y),
        # checked here on all pairs; otherwise every witness y gives c_g.
        n = data.draw(st.integers(1, 4))
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        # some zeros in lam, not mostly zeros as fractions() would draw
        pairs = st.sampled_from(
            [Fraction(v) for v in ("1", "-2", "1/2", "-3/2", "2/3", "0")])
        lam = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lam[i][j] = data.draw(pairs)
                lam[j][i] = -lam[i][j]
        torus = TorusStructure.make(lam)
        ctx = torus.context
        exponents = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        gamma = ctx.zero()
        for g in data.draw(st.lists(exponents, max_size=3)):
            gamma = gamma + torus.monomial(g, data.draw(entries))
        lattice = central_lattice(torus)
        coords = st.lists(st.integers(-1, 1), min_size=len(lattice),
                          max_size=len(lattice))
        theta = {}
        for name in torus.names:
            img = ctx.zero()
            for cs in data.draw(st.lists(coords, max_size=2)):
                vec = [sum(c * b[i] for c, b in zip(cs, lattice)) for i in range(n)]
                img = img + torus.monomial(vec, data.draw(entries))
            theta[name] = img
        images = apply_decomposition(Decomposition(gamma, theta), torus)
        if data.draw(st.booleans()):
            x = data.draw(st.sampled_from(range(n)))
            # a support k*e_x pairs to zero with e_x, so a wrong term there
            # shows only at x itself, never at the witness
            g = data.draw(exponents | st.integers(-2, 2).map(
                lambda k: [k if i == x else 0 for i in range(n)]))
            name = torus.names[x]
            images[name] = images[name] + torus.monomial(
                g, data.draw(entries.filter(bool))) * ctx.var(name)
        D = DerivationSpec(ctx, images)

        compatible = all(
            a[x] * _pairing(torus, g, y) == a[y] * _pairing(torus, g, x)
            for g, a in _image_coefficients(D, torus).items()
            for x in range(n) for y in range(n))
        if not compatible:
            with pytest.raises(DecompositionError, match="compatibility"):
                decompose_derivation(D, torus)
            return
        dec = decompose_derivation(D, torus)
        assert {g: {c} for g, c in dec.gamma.terms.items()} \
            == _witness_ratios(D, torus)
        for img in dec.theta_images.values():
            assert all(torus.is_central(g) for g in img.terms)
        assert verify_decomposition(D, dec, torus)

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


def _image_coefficients(D, torus):
    """{g: [a_g(e_1), ..., a_g(e_n)]} with D(t_x) t_x^-1 = sum_g a_g(e_x) t^g."""
    ctx = torus.context
    coeffs = {}
    for x, name in enumerate(torus.names):
        shifted = D.images[name] * ctx.monomial({name: -1})
        for g, c in shifted.terms.items():
            coeffs.setdefault(g, [Fraction(0)] * torus.rank)[x] = c
    return coeffs


def _pairing(torus, g, y):
    """lam(g, e_y), computed here from the matrix, not by the torus."""
    return sum(g[k] * torus.lam[k][y] for k in range(torus.rank))


def _witnesses(torus, g):
    return [y for y in range(torus.rank) if _pairing(torus, g, y)]


def _witness_ratios(D, torus):
    """{g: {a_g(e_y) / lam(g, e_y) for every witness y}} over the supports
    outside the centre lattice."""
    return {g: {a[y] / _pairing(torus, g, y) for y in _witnesses(torus, g)}
            for g, a in _image_coefficients(D, torus).items()
            if _witnesses(torus, g)}


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
