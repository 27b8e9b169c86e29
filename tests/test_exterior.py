"""Unit tests for the exterior algebra and Clifford operator layer."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodge_residue.exterior import (
    FLAVORS,
    MAX_DIMENSION,
    LinearOp,
    clifford,
    clifford_generator,
    clifford_word,
    trace_product,
)
from hodge_residue.scalars import GaussianRational
from flat_reference import contract_lower, wedge_raise
from matrix_reference import column, from_entries
from mixed_rationals import mixed_vector
from word_reference import add, generator_word, scale, zero


def anticommutator(a: LinearOp, b: LinearOp) -> LinearOp:
    return add(a @ b, b @ a)


class TestWedgeAndContraction:
    def test_wedge_raise_on_vacuum(self):
        # e_2 ^ 1 = e_2
        assert column(wedge_raise(3, 2), 0b000) == {0b010: 1}

    def test_wedge_prepends_with_anticommutation_sign(self):
        # e_2 ^ e_1 = -(e_1 ^ e_2); e_1 ^ e_2 is already in increasing order
        assert column(wedge_raise(3, 2), 0b001) == {0b011: -1}
        assert column(wedge_raise(3, 1), 0b010) == {0b011: 1}

    def test_contraction_is_adjoint_shape(self):
        # iota_1 (e_1 ^ e_2) = e_2 and iota_2 (e_1 ^ e_2) = -e_1
        assert column(contract_lower(3, 1), 0b011) == {0b010: 1}
        assert column(contract_lower(3, 2), 0b011) == {0b001: -1}

    def test_wedge_nilpotent_contraction_nilpotent(self):
        n = 4
        for j in range(1, n + 1):
            eps = wedge_raise(n, j)
            iota = contract_lower(n, j)
            assert eps @ eps == zero(n)
            assert iota @ iota == zero(n)
            assert anticommutator(eps, iota) == LinearOp.identity(n)


class TestCliffordRelations:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_generator_relations(self, n):
        ident = LinearOp.identity(n)
        null = zero(n)
        for i in range(1, n + 1):
            ci = clifford_generator("c", n, i)
            hi = clifford_generator("chat", n, i)
            assert ci @ ci == scale(ident, -1)
            assert hi @ hi == ident
            for j in range(1, n + 1):
                cj = clifford_generator("c", n, j)
                hj = clifford_generator("chat", n, j)
                assert anticommutator(ci, hj) == null
                if i != j:
                    assert anticommutator(ci, cj) == null
                    assert anticommutator(hi, hj) == null

    def test_vector_action_squares_to_norm(self):
        u = (Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(2))
        norm = sum(x * x for x in u)
        n = len(u)
        cu = clifford("c", u)
        hu = clifford("chat", u)
        assert cu @ cu == scale(LinearOp.identity(n), -norm)
        assert hu @ hu == scale(LinearOp.identity(n), norm)

    def test_clifford_word_is_product_of_actions(self):
        n = 4
        u = (Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(3))
        v = (Fraction(0), Fraction(2), Fraction(1), Fraction(-1, 2))
        word = clifford_word(n, [("c", u), ("chat", v)])
        assert word == clifford("c", u) @ clifford("chat", v)

    def test_clifford_rejects_unknown_flavor(self):
        with pytest.raises(ValueError):
            clifford("x", (Fraction(1), Fraction(0)))

    @pytest.mark.parametrize("n,j,message", [
        (4, 0, "direction index must satisfy 1 <= j <= n, got 0"),
        (MAX_DIMENSION + 1, 1, f"dimension n must satisfy 1 <= n <= {MAX_DIMENSION}, got {MAX_DIMENSION + 1}"),
    ], ids=["j=0", "n=MAX_DIMENSION+1"])
    def test_generator_rejects_bad_index_and_dimension(self, n, j, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            clifford_generator("c", n, j)

    def test_generator_word_flattens_products(self):
        n = 3
        word = generator_word(n, [("c", 1), ("chat", 2), ("c", 3)])
        expected = (
            clifford_generator("c", n, 1)
            @ clifford_generator("chat", n, 2)
            @ clifford_generator("c", n, 3)
        )
        assert word == expected


class TestTraces:
    def test_identity_trace_is_dimension(self):
        assert LinearOp.identity(4).trace() == GaussianRational(Fraction(16))

    def test_single_generators_are_traceless(self):
        n = 4
        for flavor in FLAVORS:
            for j in range(1, n + 1):
                assert clifford_generator(flavor, n, j).trace() == GaussianRational(
                    Fraction(0)
                )

    def test_trace_product_matches_composed_trace(self):
        rng = random.Random(5)
        n = 3
        for _ in range(20):
            a = _random_op(n, rng)
            b = _random_op(n, rng)
            assert trace_product(a, b) == (a @ b).trace()

    def test_trace_product_mixed_value_types(self):
        n = 2
        a = scale(LinearOp.identity(n), GaussianRational(Fraction(0), Fraction(1)))
        b = scale(LinearOp.identity(n), Fraction(3, 2))
        assert trace_product(a, b) == GaussianRational(Fraction(0), Fraction(6))


def _random_op(n: int, rng: random.Random) -> LinearOp:
    dim = 1 << n
    entries = [
        (
            rng.randrange(dim),
            rng.randrange(dim),
            Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
        )
        for _ in range(8)
    ]
    return from_entries(n, entries)


class TestOperatorAlgebra:
    def test_add_scale_compose_consistency(self):
        rng = random.Random(9)
        n = 3
        a = _random_op(n, rng)
        b = _random_op(n, rng)
        c = _random_op(n, rng)
        assert add(a, b) @ c == add(a @ c, b @ c)
        assert c @ add(a, b) == add(c @ a, c @ b)
        assert scale(a, Fraction(2)) @ b == scale(a @ b, Fraction(2))

    def test_integer_and_fraction_vectors_agree(self):
        n = 4
        u_frac = (Fraction(2), Fraction(-1), Fraction(0), Fraction(3))
        u_int = (2, -1, 0, 3)
        assert clifford("c", u_frac) == clifford("c", u_int)

    def test_word_with_half_integer_entries_matches_slow_product(self):
        n = 4
        rng = random.Random(3)
        letters = []
        for flavor in ("c", "chat", "c"):
            vec = tuple(
                Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)
            )
            letters.append((flavor, vec))
        word = clifford_word(n, letters)
        slow = LinearOp.identity(n)
        for flavor, vec in letters:
            slow = slow @ clifford(flavor, vec)
        assert word == slow

    @given(
        st.integers(min_value=2, max_value=6),
        st.lists(st.sampled_from(("c", "chat")), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_word_with_mixed_denominators_matches_composed_letters(self, n, flavors, seed):
        rng = random.Random(seed)
        letters = [(flavor, mixed_vector(n, rng)) for flavor in flavors]
        composed = LinearOp.identity(n)
        for flavor, vec in letters:
            composed = composed @ clifford(flavor, vec)
        # a product of nonzero vectors is invertible, so never zero
        assert not composed.is_zero
        assert clifford_word(n, letters) == composed

    @given(st.integers(min_value=2, max_value=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_compose_associativity(self, n, data):
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
        a, b, c = (_random_op(n, rng) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


def _sparse_matrix(n: int, rng: random.Random) -> dict:
    dim = 1 << n
    matrix = {}
    for _ in range(rng.randint(1, 2 * dim)):
        value = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        if value:
            matrix[(rng.randrange(dim), rng.randrange(dim))] = value
    return matrix


def _blade(n: int, c_indices, chat_indices) -> LinearOp:
    """``c_A chat_B`` in increasing generator order, i.e. one unit blade."""
    return generator_word(
        n, [("c", j) for j in c_indices] + [("chat", j) for j in chat_indices]
    )


class TestBladeRepresentation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrix_round_trip(self, n):
        rng = random.Random(f"round-trip:{n}")
        dim = 1 << n
        for _ in range(10):
            matrix = _sparse_matrix(n, rng)
            op = from_entries(n, [(r, c, v) for (r, c), v in matrix.items()])
            for col in range(dim):
                image = column(op, col)
                for row in range(dim):
                    assert image.get(row, 0) == matrix.get((row, col), 0)

    def test_compose_and_trace_match_matrix_arithmetic(self):
        rng = random.Random(11)
        n = 3
        dim = 1 << n
        for _ in range(10):
            a = _random_op(n, rng)
            b = _random_op(n, rng)
            ca, cb, cab = ([column(op, col) for col in range(dim)] for op in (a, b, a @ b))
            for row in range(dim):
                for col in range(dim):
                    assert cab[col].get(row, 0) == sum(
                        ca[k].get(row, 0) * cb[col].get(k, 0) for k in range(dim)
                    )
            assert a.trace() == sum(ca[k].get(k, 0) for k in range(dim))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_wedge_and_contraction_follow_the_bitmask_sign_rule(self, n):
        for j in range(1, n + 1):
            bit = 1 << (j - 1)
            eps = wedge_raise(n, j)
            iota = contract_lower(n, j)
            for mask in range(1 << n):
                sign = -1 if (mask & (bit - 1)).bit_count() % 2 else 1
                if mask & bit:
                    assert column(eps, mask) == {}
                    assert column(iota, mask) == {mask ^ bit: sign}
                else:
                    assert column(eps, mask) == {mask | bit: sign}
                    assert column(iota, mask) == {}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sandwich_law_per_blade(self, n):
        """``sum_i c_i X c_i = -(-1)^(|A|+|B|) (n - 2|A|) X`` for ``X = c_A chat_B``."""
        directions = range(1, n + 1)
        gens = [clifford_generator("c", n, i) for i in directions]
        for a_mask in range(1 << n):
            for b_mask in range(1 << n):
                A = [j for j in directions if a_mask >> (j - 1) & 1]
                B = [j for j in directions if b_mask >> (j - 1) & 1]
                X = _blade(n, A, B)
                total = zero(n)
                for ci in gens:
                    total = add(total, ci @ X @ ci)
                weight = -((-1) ** (len(A) + len(B))) * (n - 2 * len(A))
                assert total == scale(X, weight)

    def test_largest_dimension_is_cheap(self):
        n = 14
        c = clifford_generator("c", n, n)
        assert c @ c == scale(LinearOp.identity(n), -1)
        assert c.trace() == 0
        assert (c @ c).trace() == -(1 << n)
