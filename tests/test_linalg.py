"""Matrix operations: Kronecker and stride identities, predicates, traces."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import _orthogonal_atom, _unit_column_atom, gram_is_identity

from sft_tensor.errors import ShapeError, TagMismatchError
from sft_tensor.formula import _osl_atom_ok
from sft_tensor.linalg import (
    Matrix,
    basis_vector,
    block_diag,
    conj_transpose,
    identity,
    integer_column,
    is_orthogonal,
    is_unit_column,
    kronecker,
    mat_add,
    mat_mul,
    partial_trace_outer,
    stride_permutation,
    zero_matrix,
)
from sft_tensor.semiring import Tag, make_scalar, scalar_mul, scalar_one, scalar_zero

Q = Tag.RATIONAL
B = Tag.BOOLEAN


def mx(rows, tag=Q) -> Matrix:
    """Matrix from nested lists of ints/strings, for terse test data."""
    return Matrix.from_rows(
        tag, [[make_scalar(tag, Fraction(v)) for v in row] for row in rows]
    )


def gmx(rows) -> Matrix:
    tag = Tag.GAUSSIAN_RATIONAL
    return Matrix.from_rows(
        tag,
        [
            [make_scalar(tag, Fraction(re), Fraction(im)) for (re, im) in row]
            for row in rows
        ],
    )


# The reversible-gate matrices: identity with two rows exchanged.
def perm_gate(n, a, b, tag=Q) -> Matrix:
    p = list(range(n))
    p[a - 1], p[b - 1] = p[b - 1], p[a - 1]
    return Matrix.from_perm(tag, p)


CNOT = perm_gate(4, 3, 4)
SWAP = perm_gate(4, 2, 3)
TOFFOLI = perm_gate(8, 7, 8)


class TestAddMul:
    def test_identity_plus_zero(self):
        assert mat_add(identity(2, Q), zero_matrix(2, 2, Q)) == identity(2, Q)

    def test_halves_sum_to_one(self):
        assert mat_add(mx([["1/2"]]), mx([["1/2"]])) == mx([[1]])

    def test_boolean_entrywise_or(self):
        assert mat_add(mx([[1, 0]], B), mx([[0, 1]], B)) == mx([[1, 1]], B)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_add(identity(2, Q), identity(3, Q))

    def test_cnot_flips_target_of_10(self):
        assert mat_mul(CNOT, basis_vector(4, 3, Q)) == basis_vector(4, 4, Q)

    def test_toffoli_flips_target_of_110(self):
        assert mat_mul(TOFFOLI, basis_vector(8, 7, Q)) == basis_vector(8, 8, Q)

    def test_identity_absorbs(self):
        a = mx([[1, 2, 3], [4, 5, 6]])
        assert mat_mul(identity(2, Q), a) == a
        assert mat_mul(a, identity(3, Q)) == a

    def test_mul_tag_mismatch(self):
        with pytest.raises(TagMismatchError):
            mat_mul(identity(2, Q), identity(2, B))

    def test_dense_times_dense(self):
        a = mx([[1, 2], [3, 4]])
        b = mx([[5, 6], [7, 8]])
        assert mat_mul(a, b) == mx([[19, 22], [43, 50]])

    def test_perm_dense_routes_agree(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(2, 6)
            p = list(range(n))
            rng.shuffle(p)
            pm = Matrix.from_perm(Q, p)
            dense = Matrix.from_entries(Q, n, n, pm.entries)
            other = mx([[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)])
            assert mat_mul(pm, other) == mat_mul(dense, other)
            assert mat_mul(other, pm) == mat_mul(other, dense)
            assert mat_mul(pm, dense) == mat_mul(dense, dense)


class TestKronecker:
    def test_basis_index_law(self):
        left = basis_vector(2, 1, Q)
        right = basis_vector(2, 2, Q)
        assert kronecker(left, right) == basis_vector(4, 2, Q)

    def test_identity_blocks(self):
        assert kronecker(identity(2, Q), identity(2, Q)) == identity(4, Q)

    def test_uniform_pair_squares(self):
        half = mx([["1/2"], ["1/2"]])
        quarter = mx([["1/4"], ["1/4"], ["1/4"], ["1/4"]])
        assert kronecker(half, half) == quarter

    def test_index_law_random(self):
        rng = random.Random(3)
        a = mx([[rng.randrange(-3, 4) for _ in range(3)] for _ in range(2)])
        b = mx([[rng.randrange(-3, 4) for _ in range(2)] for _ in range(4)])
        k = kronecker(a, b)
        assert (k.rows, k.cols) == (8, 6)
        for q_ in range(2):
            for r in range(3):
                for s in range(4):
                    for t in range(2):
                        got = k.at(b.rows * q_ + s, b.cols * r + t)
                        expect = a.at(q_, r).re * b.at(s, t).re
                        assert got.re == expect

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixed_product_law(self, data):
        dims = st.integers(1, 3)
        k, l, m = (data.draw(dims) for _ in range(3))
        n, p, q_ = (data.draw(dims) for _ in range(3))
        cell = st.integers(-3, 3)

        def draw(rows, cols):
            return mx(
                [[data.draw(cell) for _ in range(cols)] for _ in range(rows)]
            )

        a, c = draw(k, l), draw(l, m)
        b, d = draw(n, p), draw(p, q_)
        lhs = mat_mul(kronecker(a, b), kronecker(c, d))
        rhs = kronecker(mat_mul(a, c), mat_mul(b, d))
        assert lhs == rhs


class TestConjTranspose:
    def test_basis_vector_becomes_row(self):
        row = conj_transpose(basis_vector(3, 2, Q))
        assert (row.rows, row.cols) == (1, 3)
        assert row.at(0, 1).is_one()

    def test_gaussian_entry_conjugated(self):
        m = gmx([[("3/5", "4/5")]])
        assert conj_transpose(m) == gmx([[("3/5", "-4/5")]])

    def test_swap_is_symmetric(self):
        assert conj_transpose(SWAP) == SWAP

    def test_double_transpose(self):
        a = mx([[1, 2, 3], [4, 5, 6]])
        assert conj_transpose(conj_transpose(a)) == a


class TestConstructors:
    def test_identity_one(self):
        assert identity(1, Q) == mx([[1]])

    def test_basis_vector_layout(self):
        assert basis_vector(4, 2, Q) == mx([[0], [1], [0], [0]])

    def test_basis_vector_range(self):
        with pytest.raises(ShapeError):
            basis_vector(2, 3, Q)

    def test_block_diag(self):
        got = block_diag(mx([[1, 2], [3, 4]]), mx([[5]]))
        assert got == mx([[1, 2, 0], [3, 4, 0], [0, 0, 5]])


class TestStridePermutation:
    def test_single_block_is_identity(self):
        for n in range(1, 6):
            assert stride_permutation(1, n, Q) == identity(n, Q)
            assert stride_permutation(n, 1, Q) == identity(n, Q)

    def test_two_by_two_is_swap(self):
        assert stride_permutation(2, 2, Q) == SWAP

    def test_defining_equation_2_3(self):
        p = stride_permutation(2, 3, Q)
        v = kronecker(basis_vector(2, 1, Q), basis_vector(3, 2, Q))
        assert mat_mul(p, v) == kronecker(basis_vector(3, 2, Q), basis_vector(2, 1, Q))

    def test_defining_equation_exhaustive(self):
        for m in range(1, 5):
            for n in range(1, 5):
                p = stride_permutation(m, n, Q)
                for i in range(1, m + 1):
                    for j in range(1, n + 1):
                        v = kronecker(basis_vector(m, i, Q), basis_vector(n, j, Q))
                        w = kronecker(basis_vector(n, j, Q), basis_vector(m, i, Q))
                        assert mat_mul(p, v) == w

    def test_inverse_identity(self):
        for m in range(1, 9):
            for n in range(1, 9):
                lhs = mat_mul(stride_permutation(m, n, Q), stride_permutation(n, m, Q))
                assert lhs == identity(m * n, Q)

    def test_factor_splitting_identity(self):
        # P over a triple product splits into the two inner strides.
        for l in range(1, 5):
            for m in range(1, 5):
                for n in range(1, 5):
                    total = l * m * n
                    lhs = stride_permutation(l, m * n, Q)
                    rhs = mat_mul(
                        stride_permutation(l * m, n, Q),
                        stride_permutation(l * n, m, Q),
                    )
                    assert lhs.rows == total and lhs == rhs

    def test_tensor_decomposition_identity(self):
        for l in range(1, 5):
            for m in range(1, 5):
                for n in range(1, 5):
                    lhs = stride_permutation(l * m, n, Q)
                    rhs = mat_mul(
                        kronecker(stride_permutation(l, n, Q), identity(m, Q)),
                        kronecker(identity(l, Q), stride_permutation(m, n, Q)),
                    )
                    assert lhs == rhs


class TestPredicates:
    def test_toffoli_is_orthogonal(self):
        assert is_orthogonal(TOFFOLI)

    def test_shear_is_not(self):
        assert not is_orthogonal(mx([[1, 1], [0, 1]]))

    def test_rational_rotation_is_orthogonal(self):
        assert is_orthogonal(mx([["3/5", "4/5"], ["-4/5", "3/5"]]))

    def test_boolean_non_permutation_rejected(self):
        assert not is_orthogonal(mx([[1, 1], [0, 1]], B))
        assert is_orthogonal(mx([[0, 1], [1, 0]], B))

    def test_orthogonality_requires_square(self):
        with pytest.raises(ShapeError):
            is_orthogonal(basis_vector(2, 1, Q))

    def test_orthogonal_closed_under_product_and_tensor(self):
        rot = mx([["3/5", "4/5"], ["-4/5", "3/5"]])
        assert is_orthogonal(mat_mul(rot, perm_gate(2, 1, 2)))
        assert is_orthogonal(kronecker(rot, TOFFOLI))
        assert is_orthogonal(mat_mul(kronecker(rot, identity(2, Q)), CNOT))

    def test_basis_vectors_are_unit(self):
        for i in range(1, 5):
            assert is_unit_column(basis_vector(4, i, Q))

    def test_three_four_fifths_is_unit(self):
        assert is_unit_column(mx([["3/5"], ["4/5"]]))

    def test_zero_column_is_not_unit(self):
        assert not is_unit_column(zero_matrix(3, 1, Q))

    def test_boolean_nonzero_is_unit(self):
        assert is_unit_column(mx([[1], [1], [0]], B))
        assert not is_unit_column(mx([[0], [0]], B))

    def test_unit_requires_column(self):
        with pytest.raises(ShapeError):
            is_unit_column(identity(2, Q))


class TestPartialTrace:
    def test_uniform_half(self):
        v = mx([["1/2"], ["1/2"], ["1/2"], ["1/2"]])
        assert partial_trace_outer(v, 2) == make_scalar(Q, Fraction(1, 2))

    def test_full_trace_of_unit(self):
        v = mx([["3/5"], ["-4/5"]])
        for k in (2, 5):
            assert partial_trace_outer(v, k).is_one()

    def test_boolean_or_of_tail(self):
        v = basis_vector(4, 2, B)
        assert partial_trace_outer(v, 2).is_zero()
        assert partial_trace_outer(v, 3).is_one()

    def test_k_zero(self):
        assert partial_trace_outer(basis_vector(2, 1, Q), 0).is_zero()

    def test_gaussian_trace_is_rational(self):
        v = gmx([[(0, "3/5")], [("4/5", 0)]])
        got = partial_trace_outer(v, 1)
        assert got.tag is Q
        assert got.re == Fraction(16, 25)

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_unit_column_full_mass(self, n, data):
        i = data.draw(st.integers(1, n))
        p = data.draw(st.permutations(range(n)))
        v = mat_mul(Matrix.from_perm(Q, p), basis_vector(n, i, Q))
        assert partial_trace_outer(v, n).is_one()

    @given(st.sampled_from([Q, Tag.GAUSSIAN_RATIONAL, B]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sum_of_squared_tail(self, tag, data):
        # Mostly zero columns, as compiled circuits give; k may pass the end.
        n = data.draw(st.integers(1, 8))
        parts = st.sampled_from([0, 0, 0, 1, -1, Fraction(3, 5), Fraction(-1, 2)])
        if tag is B:
            parts = st.sampled_from([0, 0, 1])
        pairs = [
            (data.draw(parts), data.draw(parts) if tag is Tag.GAUSSIAN_RATIONAL else 0)
            for _ in range(n)
        ]
        v = Matrix.from_entries(tag, n, 1, [make_scalar(tag, a, b) for a, b in pairs])
        k = data.draw(st.integers(0, n + 3))
        expected = sum(a * a + b * b for a, b in pairs[max(n - k, 0):])
        got = partial_trace_outer(v, k)
        assert got.tag is (Q if tag is Tag.GAUSSIAN_RATIONAL else tag)
        assert got.re == (min(expected, 1) if tag is B else expected)
        assert got.im == 0


# Entries for random and perturbed atoms: (re, im) pairs, per tag.
_POOL = {
    B: [(0, 0), (1, 0)],
    Tag.NONNEG_RATIONAL: [(0, 0), (1, 0), (2, 0), ("1/2", 0), ("3/5", 0), ("4/5", 0)],
}
_POOL[Q] = _POOL[Tag.NONNEG_RATIONAL] + [(-1, 0), ("-3/5", 0), ("-4/5", 0)]
_POOL[Tag.GAUSSIAN_RATIONAL] = _POOL[Q] + [
    (0, 1),
    (0, -1),
    (0, "4/5"),
    ("3/5", "4/5"),
    ("3/5", "-4/5"),
]


def _pool(tag):
    return [make_scalar(tag, Fraction(a), Fraction(b)) for a, b in _POOL[tag]]


def _candidate(tag, rng, kind, n) -> Matrix:
    """A square or column atom of order n: orthogonal or a unit column,
    or a near miss of one, or random entries."""
    pool = _pool(tag)
    if kind == "random":
        cols = rng.choice([1, n])
        return Matrix.from_entries(
            tag, n, cols, [rng.choice(pool) for _ in range(n * cols)]
        )
    if rng.random() < 0.3:
        m = _unit_column_atom(rng, n, tag, True)
    else:
        # Signed permutations times Pythagorean plane rotations (in the
        # Gaussian tag also with sin = b/c i), sometimes two of them.
        m = _orthogonal_atom(rng, n, tag, True)
        if rng.random() < 0.3:
            m = mat_mul(m, _orthogonal_atom(rng, n, tag, True))
    entries = list(m.entries)
    if kind == "perturbed":
        k = rng.randrange(len(entries))
        entries[k] = rng.choice([s for s in pool if s != entries[k]])
    elif kind == "scaled" and tag is not B:  # orthogonal, not normalised
        two = make_scalar(tag, 2)
        entries = [scalar_mul(two, s) for s in entries]
    elif kind == "zero column":
        j = rng.randrange(m.cols)
        entries[j :: m.cols] = [scalar_zero(tag)] * m.rows
    return Matrix.from_entries(tag, m.rows, m.cols, entries)


class TestIntegerGram:
    """is_orthogonal and the OSL atom test, both on integers, agree with
    m'm = I multiplied out densely."""

    @given(
        st.sampled_from(list(Tag)),
        st.sampled_from(["orthogonal", "perturbed", "scaled", "zero column", "random"]),
        st.integers(1, 5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_dense_gram(self, tag, kind, n, rng):
        m = _candidate(tag, rng, kind, n)
        expected = gram_is_identity(m)
        assert _osl_atom_ok(m) == expected
        if m.rows == m.cols:
            assert is_orthogonal(m) == expected

    @pytest.mark.parametrize(
        "tag, rows, expected",
        [
            (Q, [[1, 1], [1, -1]], False),  # orthogonal, norm 2
            (Q, [["1/2", "1/2"], ["1/2", "-1/2"]], False),
            (Q, [["3/5", "-4/5"], ["4/5", "3/5"]], True),
            (Q, [["3/5", "4/5"], ["4/5", "3/5"]], False),
            (Q, [[0, 1], [0, 0]], False),  # a zero column
            (Q, [[-1]], True),
            (Q, [[2]], False),
            (Q, [[0]], False),
            (Q, [["3/5"], [0], ["-4/5"]], True),
            (Q, [["3/5"], ["3/5"], ["4/5"]], False),
            (Q, [[0], [0]], False),
            (Tag.NONNEG_RATIONAL, [["3/5", "4/5"], ["4/5", "3/5"]], False),
            (Tag.NONNEG_RATIONAL, [["3/5"], ["4/5"]], True),
            (B, [[1, 1], [0, 1]], False),  # overlapping supports
            (B, [[1], [1], [0]], True),
            (B, [[0], [0]], False),
        ],
    )
    def test_table(self, tag, rows, expected):
        m = mx(rows, tag)
        assert gram_is_identity(m) is expected
        assert _osl_atom_ok(m) is expected

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[("3/5", 0), (0, "4/5")], [(0, "4/5"), ("3/5", 0)]], True),
            ([[("3/5", 0), (0, "4/5")], [(0, "-4/5"), ("3/5", 0)]], False),
            ([[(1, 0), (1, 0)], [(0, 1), (0, -1)]], False),  # norm 2
            ([[(0, 1)]], True),
            ([[("3/5", "4/5")]], True),
            ([[("1/2", "1/2")], [("1/2", "-1/2")]], True),
            ([[("1/2", "1/2")], [("1/2", "1/2")], [(0, "1/2")]], False),
        ],
    )
    def test_gaussian_table(self, rows, expected):
        m = gmx(rows)
        assert gram_is_identity(m) is expected
        assert _osl_atom_ok(m) is expected

    def test_integer_column(self):
        tag = Tag.GAUSSIAN_RATIONAL
        column = [
            make_scalar(tag, Fraction(1, 2), Fraction(1, 3)),
            scalar_zero(tag),
            make_scalar(tag, 0, Fraction(-3, 4)),
        ]
        assert integer_column(column) == (12, {0: (6, 4), 2: (0, -9)})
        assert integer_column([scalar_zero(Q)] * 3) == (1, {})
