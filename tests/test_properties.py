"""Property-based invariants of the exact engine (>= 100 generated cases each).

These are convention-independent structural laws: multilinearity, frame
covariance under signed permutations of the basis and under exact rational
rotations, trace cyclicity, vanishing of odd generator words, permutation
symmetry of sphere moments, and idempotence of the half-plane projection.
They hold regardless of which tabulated constants the engine reproduces.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodge_residue.boundary import pi_plus
from hodge_residue.exterior import LinearOp, trace_product
from hodge_residue.forms import AntiSymForm, form_contract, random_form, random_vector
from hodge_residue.residue import FUNCTIONALS, LEMMA_CHECKS, _table, spectral_density
from hodge_residue.scalars import GaussianRational, I
from hodge_residue.symbols import sphere_moment
import kernel_reference
from matrix_reference import from_entries
from word_reference import generator_word, pi_minus

N = 4
M = 2
CASES = settings(max_examples=100, deadline=None)

half_integers = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
vectors4 = st.tuples(*([half_integers] * N))

PAIR_KEYS = list(itertools.combinations(range(1, N + 1), 2))
forms2 = st.tuples(*([half_integers] * len(PAIR_KEYS))).map(
    lambda vals: AntiSymForm(N, 2, dict(zip(PAIR_KEYS, vals)))
)

permutations4 = st.permutations(list(range(1, N + 1)))
signs4 = st.tuples(*([st.sampled_from((1, -1))] * N))


def add_forms(a: AntiSymForm, b: AntiSymForm) -> AntiSymForm:
    entries = dict(a.entries)
    for key, value in b.entries.items():
        entries[key] = entries.get(key, Fraction(0)) + value
    return AntiSymForm(a.n, a.degree, entries)


def scale_form(a: AntiSymForm, scalar: Fraction) -> AntiSymForm:
    return AntiSymForm(a.n, a.degree, {k: scalar * v for k, v in a.entries.items()})


def apply_frame_to_vector(perm, signs, u):
    image = [Fraction(0)] * len(u)
    for j, component in enumerate(u, start=1):
        image[perm[j - 1] - 1] = signs[j - 1] * component
    return tuple(image)


def apply_frame_to_form(perm, signs, form: AntiSymForm) -> AntiSymForm:
    entries = {}
    for idx, value in form.entries.items():
        sign = Fraction(1)
        for j in idx:
            sign *= signs[j - 1]
        key = tuple(perm[j - 1] for j in idx)
        entries[key] = entries.get(key, Fraction(0)) + sign * value
    return AntiSymForm(form.n, form.degree, entries)


class TestDensityMultilinearity:
    @CASES
    @given(forms2, vectors4, vectors4, vectors4, half_integers)
    def test_linear_in_each_vector_slot(self, T, u, u2, v, lam):
        base = spectral_density("T1", T, [u, v], M)
        shifted = spectral_density(
            "T1", T, [tuple(a + b for a, b in zip(u, u2)), v], M
        )
        assert shifted == base + spectral_density("T1", T, [u2, v], M)
        scaled_vec = tuple(lam * a for a in u)
        assert spectral_density("T1", T, [scaled_vec, v], M) == base * lam

    @CASES
    @given(forms2, vectors4, vectors4, vectors4)
    def test_linear_in_second_slot(self, T, u, v, v2):
        combined = spectral_density(
            "T1", T, [u, tuple(a + b for a, b in zip(v, v2))], M
        )
        assert combined == spectral_density("T1", T, [u, v], M) + spectral_density(
            "T1", T, [u, v2], M
        )


class TestDensityFormLinearity:
    @CASES
    @given(forms2, forms2, vectors4, vectors4, half_integers)
    def test_linear_in_the_form(self, T, T2, u, v, lam):
        vectors = [u, v]
        total = spectral_density("T1", add_forms(T, T2), vectors, M)
        assert total == spectral_density("T1", T, vectors, M) + spectral_density(
            "T1", T2, vectors, M
        )
        assert spectral_density("T1", scale_form(T, lam), vectors, M) == (
            spectral_density("T1", T, vectors, M) * lam
        )


class TestFrameCovariance:
    @CASES
    @given(forms2, vectors4, vectors4, permutations4, signs4)
    def test_density_invariant_under_signed_permutations(self, T, u, v, perm, signs):
        plain = spectral_density("T1", T, [u, v], M)
        moved = spectral_density(
            "T1",
            apply_frame_to_form(perm, signs, T),
            [apply_frame_to_vector(perm, signs, u), apply_frame_to_vector(perm, signs, v)],
            M,
        )
        assert moved == plain

    @CASES
    @given(forms2, vectors4, vectors4, permutations4, signs4)
    def test_contraction_invariant_under_signed_permutations(self, T, u, v, perm, signs):
        plain = form_contract(T, [u, v])
        moved = form_contract(
            apply_frame_to_form(perm, signs, T),
            [apply_frame_to_vector(perm, signs, u), apply_frame_to_vector(perm, signs, v)],
        )
        assert moved == plain

    def test_higher_order_smoke(self):
        # one fixed degree-3 instance through the heavier assembly
        perm, signs = (2, 3, 4, 1), (1, -1, 1, -1)
        T = AntiSymForm(N, 3, {(1, 2, 3): Fraction(1), (1, 2, 4): Fraction(-1, 2)})
        vectors = [
            (Fraction(1), Fraction(0), Fraction(2), Fraction(-1)),
            (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3)),
            (Fraction(-2), Fraction(1), Fraction(0), Fraction(1)),
        ]
        plain = spectral_density("T2", T, vectors, M)
        moved = spectral_density(
            "T2",
            apply_frame_to_form(perm, signs, T),
            [apply_frame_to_vector(perm, signs, u) for u in vectors],
            M,
        )
        assert moved == plain


def cayley_rotation(n: int, rng: random.Random):
    """``Q = (I + A)^{-1} (I - A)`` for a random rational skew ``A``, an exact
    rotation, by Gauss-Jordan elimination of ``[I + A | I - A]``."""
    skew = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        skew[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        skew[j][i] = -skew[i][j]
    rows = [[(i == j) + skew[i][j] for j in range(n)] + [(i == j) - skew[i][j] for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def rotate_vector(Q, u):
    return [sum(q * x for q, x in zip(row, u)) for row in Q]


def rotate_form(Q, form: AntiSymForm) -> AntiSymForm:
    """The form ``T(Q^T .)``, which takes the rotated vectors ``Q u`` to ``T(u)``:
    its value on ``e_I`` is ``T`` on the rows ``I`` of ``Q``."""
    basis = itertools.combinations(range(1, form.n + 1), form.degree)
    return AntiSymForm(form.n, form.degree, {idx: form_contract(form, [Q[i - 1] for i in idx]) for idx in basis})


# the trace kernel of every interior trace identity and density; the boundary
# rows B5.8 and B5.10 fix e_n, so a rotation moves them
INTERIOR_KERNELS = {
    **{name: (spec.word_flavors, spec.lift) for name, spec in LEMMA_CHECKS.items() if spec.lift != "normal_c"},
    **{name: (spec.arg_flavors, spec.lift_kind) for name, spec in FUNCTIONALS.items()},
}


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("name", sorted(INTERIOR_KERNELS))
def test_kernel_trace_is_rotation_invariant_unless_the_lift_is_four_mixed(name, n):
    # by the first fundamental theorem for O(n), the invariant kernels are the
    # multiples of T(u_1 ... u_k) (or <u, v>); the four_mixed lift takes its
    # flavors in index order, so it is not frame covariant and its kernels
    # move under a rotation
    flavors, lift = INTERIOR_KERNELS[name]
    kernel = kernel_reference.expand(_table(flavors, lift), n)
    rng = random.Random(f"rotation:{name}:{n}")
    moved = []
    for _ in range(4):
        Q = cayley_rotation(n, rng)
        columns = list(zip(*Q))
        assert [[sum(a * b for a, b in zip(p, q)) for q in columns] for p in columns] == [
            [int(i == j) for j in range(n)] for i in range(n)]
        T = random_form(n, kernel.degree, rng) if kernel.degree else None
        vectors = [random_vector(n, rng) for _ in flavors]
        rotated = [rotate_vector(Q, u) for u in vectors]
        QT = None if T is None else rotate_form(Q, T)
        if T is not None:
            assert form_contract(QT, rotated) == form_contract(T, vectors)
        moved.append(kernel.trace(QT, rotated) != kernel.trace(T, vectors))
    if lift == "four_mixed":
        assert any(moved), "the trace was invariant on every rotation drawn"
    else:
        assert not any(moved)


word_letters = st.lists(
    st.tuples(st.sampled_from(("c", "chat")), st.integers(1, N)),
    min_size=1,
    max_size=5,
)

op_entries = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-3, 3)),
    min_size=1,
    max_size=6,
)


def op_from_entries(n: int, triples) -> LinearOp:
    return from_entries(
        n, [(r, c, GaussianRational(Fraction(v))) for r, c, v in triples]
    )


class TestTraceCyclicity:
    @CASES
    @given(op_entries, op_entries)
    def test_trace_product_is_symmetric(self, a_triples, b_triples):
        n = 3
        a = op_from_entries(n, a_triples)
        b = op_from_entries(n, b_triples)
        assert trace_product(a, b) == trace_product(b, a)

    @CASES
    @given(word_letters, st.integers(1, N))
    def test_cyclic_rotation_of_generator_words(self, letters, rotate_by):
        word = generator_word(N, letters)
        k = rotate_by % len(letters)
        rotated = generator_word(N, letters[k:] + letters[:k])
        assert word.trace() == rotated.trace()


class TestOddWordTraceVanishes:
    @CASES
    @given(
        st.lists(
            st.tuples(st.sampled_from(("c", "chat")), st.integers(1, N)),
            min_size=1,
            max_size=5,
        ).filter(lambda ls: len(ls) % 2 == 1)
    )
    def test_odd_generator_words_are_traceless(self, letters):
        assert not generator_word(N, letters).trace()


class TestMomentPermutationSymmetry:
    @CASES
    @given(
        st.lists(st.integers(0, 4), min_size=N, max_size=N),
        st.permutations(list(range(N))),
    )
    def test_moment_invariant_under_coordinate_permutation(self, alpha, perm):
        permuted = tuple(alpha[p] for p in perm)
        assert sphere_moment(tuple(alpha), N) == sphere_moment(permuted, N)


nonreal_poles = st.sampled_from(
    (
        I,
        -I,
        GaussianRational(1, 1),
        GaussianRational(-1, 2),
        GaussianRational(Fraction(1, 2), Fraction(-3, 2)),
        GaussianRational(0, 3),
    )
)

partial_fraction_terms = st.dictionaries(
    st.tuples(nonreal_poles, st.integers(1, 2)),
    st.integers(-3, 3).map(GaussianRational),
    min_size=1,
    max_size=4,
)


class TestHalfPlaneProjectionProperties:
    @CASES
    @given(partial_fraction_terms)
    def test_idempotent_and_complementary(self, terms):
        plus = pi_plus(terms)
        minus = pi_minus(terms)
        assert pi_plus(plus) == plus
        assert pi_minus(minus) == minus
        assert not pi_plus(minus)
        assert not pi_minus(plus)
        assert {**plus, **minus} == terms
