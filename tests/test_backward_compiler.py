"""Power-of-2 padding, denominator normalization, and array compilation."""

import random
from fractions import Fraction

import pytest

from generators import _orthogonal_atom, _unit_column_atom, rand_osl_formula

from sft_tensor.backward_compiler import (
    formula_to_array,
    kron_fix_permutations,
    pad_atom,
    pad_formula,
    pad_formula_with_denominators,
    pad_unit_vector_denominator,
    pow2_ceil,
    transpose_formula,
)
from sft_tensor.circuit import Gate, StateVector, builtin_gate, simulate
from sft_tensor.errors import ValidationError
from sft_tensor.formula import Atom, Prod, Sum, Tensor, evaluate
from sft_tensor.linalg import (
    Matrix,
    basis_vector,
    block_diag,
    conj_transpose,
    identity,
    is_orthogonal,
    is_unit_column,
    kronecker,
    mat_mul,
    partial_trace_outer,
    stride_permutation,
)
from sft_tensor.semiring import Tag, make_scalar

Q = Tag.RATIONAL
QI = Tag.GAUSSIAN_RATIONAL
BIG_CAP = 1 << 28


def mx(rows, tag=Q):
    return Matrix.from_rows(
        tag, [[make_scalar(tag, Fraction(x)) for x in row] for row in rows]
    )


def col(values, tag=Q):
    return mx([[v] for v in values], tag)


def sub(m, r0, r1, c0, c1):
    return [[m.at(r, c) for c in range(c0, c1)] for r in range(r0, r1)]


def entries_match(padded, original):
    """padded is original stacked on zeros (both columns)."""
    if padded.cols != 1 or original.cols != 1 or padded.rows < original.rows:
        return False
    head = all(
        padded.at(i, 0) == original.at(i, 0) for i in range(original.rows)
    )
    tail = all(
        padded.at(i, 0).is_zero() for i in range(original.rows, padded.rows)
    )
    return head and tail


class TestPow2Ceil:
    @pytest.mark.parametrize(
        "n,want",
        [(1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (9, 16), (1000, 1024)],
    )
    def test_values(self, n, want):
        assert pow2_ceil(n) == want

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            pow2_ceil(0)


class TestPadAtom:
    def test_square_power_of_two_unchanged(self):
        m = mx([[0, 1], [1, 0]])
        assert pad_atom(m) is m

    def test_square_grows_to_block_diagonal(self):
        m = Matrix.from_perm(Q, [2, 0, 1])
        padded = pad_atom(m)
        assert padded.rows == padded.cols == 4
        assert padded == block_diag(m, identity(1, Q))
        assert is_orthogonal(padded)

    def test_column_gets_zero_tail(self):
        v = col([Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)])
        padded = pad_atom(v)
        assert padded.rows == 4 and padded.cols == 1
        assert entries_match(padded, v)
        assert is_unit_column(padded)

    def test_rejects_other_shapes(self):
        with pytest.raises(ValidationError):
            pad_atom(mx([[1, 0, 0], [0, 1, 0]]))


class TestTransposeFormula:
    def test_product_reverses(self):
        a, b = Atom(mx([[0, 1], [1, 0]])), Atom(identity(2, Q))
        flipped = transpose_formula(Prod(a, b))
        assert isinstance(flipped, Prod)
        assert flipped.left == Atom(identity(2, Q))

    def test_tensor_keeps_order(self):
        a, b = Atom(mx([[0, 1], [1, 0]])), Atom(basis_vector(2, 1, Q))
        flipped = transpose_formula(Tensor(a, b))
        assert isinstance(flipped, Tensor)
        assert flipped.right == Atom(conj_transpose(basis_vector(2, 1, Q)))

    def test_value_is_conjugate_transpose(self):
        g = Atom(
            Matrix.from_entries(
                QI,
                4,
                4,
                [
                    make_scalar(QI, 0, 1) if r == c else make_scalar(QI, 0)
                    for r in range(4)
                    for c in range(4)
                ],
            )
        )
        f = Prod(Tensor(g, Atom(identity(2, QI))), Atom(identity(8, QI)))
        assert evaluate(transpose_formula(f)) == conj_transpose(evaluate(f))


class TestKronFixPermutations:
    def test_powers_of_two_need_no_fix(self):
        q, qp = kron_fix_permutations(4, 2, 4, 2, Q)
        assert evaluate(q) == identity(8, Q)
        assert evaluate(qp) == identity(8, Q)

    def test_rejects_wrong_padded_orders(self):
        with pytest.raises(ValidationError):
            kron_fix_permutations(3, 3, 8, 4, Q)

    def test_rejects_unknown_shape(self):
        with pytest.raises(ValidationError):
            kron_fix_permutations(3, 3, 4, 4, Q, shape="row")

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3), (3, 5), (5, 3), (5, 7), (7, 6)])
    def test_square_block_identity(self, m, n):
        rng = random.Random(m * 16 + n)
        a = _orthogonal_atom(rng, m, Q, dense=True)
        b = _orthogonal_atom(rng, n, Q, dense=True)
        mu, nu = pow2_ceil(m), pow2_ceil(n)
        q, qp = kron_fix_permutations(m, n, mu, nu, Q)
        qm, qpm = evaluate(q), evaluate(qp)
        assert qm.perm_or_none() is not None
        g = mat_mul(mat_mul(qm, kronecker(pad_atom(a), pad_atom(b))), qpm)
        mn = m * n
        want = kronecker(a, b)
        assert sub(g, 0, mn, 0, mn) == sub(want, 0, mn, 0, mn)
        assert all(s.is_zero() for row in sub(g, 0, mn, mn, mu * nu) for s in row)
        assert all(s.is_zero() for row in sub(g, mn, mu * nu, 0, mn) for s in row)
        trailer = Matrix.from_rows(Q, sub(g, mn, mu * nu, mn, mu * nu))
        assert is_orthogonal(trailer)

    def test_column_shape(self):
        v = col([Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)])
        w = col([Fraction(3, 5), 0, Fraction(-4, 5), 0, 0])
        q, qp = kron_fix_permutations(3, 5, 4, 8, Q, shape="column")
        assert qp.order == (1, 1)
        g = mat_mul(mat_mul(evaluate(q), kronecker(pad_atom(v), pad_atom(w))), evaluate(qp))
        assert entries_match(g, kronecker(v, w))

    def test_gaussian_tag(self):
        rng = random.Random(5)
        a = _orthogonal_atom(rng, 3, QI, dense=True)
        b = _orthogonal_atom(rng, 3, QI, dense=True)
        q, qp = kron_fix_permutations(3, 3, 4, 4, QI)
        g = mat_mul(mat_mul(evaluate(q), kronecker(pad_atom(a), pad_atom(b))), evaluate(qp))
        assert sub(g, 0, 9, 0, 9) == sub(kronecker(a, b), 0, 9, 0, 9)


class TestPadFormula:
    def test_power_of_two_formula_unchanged(self):
        f = Prod(Atom(builtin_gate("cnot", Q)), Atom(col([Fraction(1, 2)] * 4)))
        result = pad_formula(f)
        assert result.padded == f
        assert result.block_length == 4

    def test_single_column_atom(self):
        v = col([Fraction(3, 5), Fraction(4, 5), 0])
        result = pad_formula(Atom(v))
        assert result.padded.order == (4, 1)
        assert entries_match(evaluate(result.padded), v)
        assert result.block_length == 3

    def test_product_lifts_narrow_left_factor(self):
        # 15x15 times a tensor column padded to 32 rows: the left factor
        # must be tensored with I_2 before the orders meet.
        left = Atom(Matrix.from_perm(Q, [(i * 7) % 15 for i in range(15)]))
        right = Tensor(
            Atom(col([Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)])),
            Atom(basis_vector(5, 4, Q)),
        )
        f = Prod(left, right)
        result = pad_formula(f)
        assert result.padded.order == (32, 1)
        assert entries_match(evaluate(result.padded), evaluate(f))
        assert result.block_length == 15

    def test_product_lifts_short_right_factor(self):
        # Tensor of squares has 32 padded columns against a 16-row column,
        # so the right factor is stacked under e_2^1 factors.
        left = Tensor(
            Atom(Matrix.from_perm(Q, [2, 0, 1])),
            Atom(Matrix.from_perm(Q, [4, 3, 2, 1, 0])),
        )
        right = Atom(basis_vector(15, 11, Q))
        f = Prod(left, right)
        result = pad_formula(f)
        assert result.padded.order == (32, 1)
        assert entries_match(evaluate(result.padded), evaluate(f))

    def test_rejects_sums(self):
        v = Atom(basis_vector(2, 1, Q))
        with pytest.raises(ValidationError):
            pad_formula(Sum(v, v))

    def test_rejects_non_osl_atoms(self):
        with pytest.raises(ValidationError):
            pad_formula(Atom(col([Fraction(1, 2), Fraction(1, 2)])))

    @pytest.mark.parametrize("tag", [Q, Tag.NONNEG_RATIONAL, Tag.BOOLEAN, QI])
    def test_random_round_trip(self, tag):
        rng = random.Random(hash(tag.value) & 0xFFFF)
        for _ in range(12):
            f = rand_osl_formula(rng, tag)
            result = pad_formula(f)
            assert _orders_are_powers(result.padded)
            value = evaluate(f)
            padded_value = evaluate(result.padded, entry_cap=BIG_CAP)
            assert entries_match(padded_value, value)
            assert result.block_length == value.rows


def _orders_are_powers(f):
    rows, cols = f.order
    if rows & (rows - 1) or cols & (cols - 1):
        return False
    if isinstance(f, Atom):
        return True
    return _orders_are_powers(f.left) and _orders_are_powers(f.right)


class TestDenominatorPad:
    def test_pythagorean_pair(self):
        pad = pad_unit_vector_denominator(col([Fraction(3, 5), Fraction(4, 5)]))
        assert pad.scale == Fraction(5, 8)
        assert pad.b_terms == (6, 1, 1, 1)
        assert pad.padded.rows == 16
        want = (
            [Fraction(3, 8), Fraction(1, 2)]
            + [Fraction(0)] * 10
            + [Fraction(3, 4), Fraction(1, 8), Fraction(1, 8), Fraction(1, 8)]
        )
        assert [e.re for e in pad.padded.entries] == want
        assert is_unit_column(pad.padded)

    def test_power_of_two_denominator_unchanged(self):
        v = col([Fraction(1, 2)] * 4)
        pad = pad_unit_vector_denominator(v)
        assert pad.padded is v
        assert pad.scale == 1 and pad.b_terms == ()

    def test_basis_vector_unchanged(self):
        v = basis_vector(5, 2, Q)
        assert pad_unit_vector_denominator(v).padded is v

    def test_negative_entries(self):
        pad = pad_unit_vector_denominator(col([Fraction(-3, 5), Fraction(4, 5)]))
        assert is_unit_column(pad.padded)
        assert pad.padded.at(0, 0).re == Fraction(-3, 8)

    @pytest.mark.parametrize(
        "values",
        [
            [Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)],
            [Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)],
            [Fraction(5, 13), Fraction(12, 13)],
            [Fraction(4, 9), Fraction(4, 9), Fraction(7, 9)],
            [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5), Fraction(4, 5)],
        ],
    )
    def test_invariants(self, values):
        import math

        v = col(values)
        d = math.lcm(*(x.denominator for x in values))
        pad = pad_unit_vector_denominator(v)
        bound = 3 * math.ceil(math.log2(d))
        assert len(pad.b_terms) <= bound
        assert is_unit_column(pad.padded)
        assert pad.scale == Fraction(d, pow2_ceil(d))
        length = pad.padded.rows
        assert length & (length - 1) == 0 and length.bit_length() % 2 == 1
        assert length > len(values) + bound
        target = pow2_ceil(d) ** 2
        assert sum(int(x * d) ** 2 for x in values) + sum(
            b * b for b in pad.b_terms
        ) == target

    def test_rejects_non_unit(self):
        with pytest.raises(ValidationError):
            pad_unit_vector_denominator(col([Fraction(1, 3), Fraction(1, 3)]))

    def test_rejects_non_column(self):
        with pytest.raises(ValidationError):
            pad_unit_vector_denominator(identity(2, Q))

    @pytest.mark.parametrize("tag", [Tag.BOOLEAN, QI])
    def test_rejects_other_tags(self, tag):
        with pytest.raises(ValidationError):
            pad_unit_vector_denominator(basis_vector(2, 1, tag))


class TestPadWithDenominators:
    def test_scaled_atom(self):
        f = Atom(col([Fraction(3, 5), Fraction(4, 5)]))
        g, k_eff, delta = pad_formula_with_denominators(f, 1)
        assert (k_eff, delta) == (1, Fraction(5, 8))
        assert g.order == (16, 1)
        value = partial_trace_outer(evaluate(g), k_eff)
        assert value.re == Fraction(1, 4)
        assert value.re == delta * delta * Fraction(16, 25)

    def test_scaled_tensor(self):
        f = Tensor(
            Atom(col([Fraction(3, 5), Fraction(4, 5)])),
            Atom(basis_vector(2, 1, Q)),
        )
        g, k_eff, delta = pad_formula_with_denominators(f, 2)
        assert k_eff == 2 and delta == Fraction(5, 8)
        original = partial_trace_outer(evaluate(f), 2)
        scaled = partial_trace_outer(evaluate(g), 2)
        assert scaled.re == delta * delta * original.re

    def test_power_of_two_instance_passes_through(self):
        f = Prod(Atom(builtin_gate("cnot", Q)), Atom(col([Fraction(1, 2)] * 4)))
        g, k_eff, delta = pad_formula_with_denominators(f, 2)
        assert g == f and k_eff == 2 and delta == 1

    def test_k_clamps_to_output_length(self):
        f = Atom(col([Fraction(1, 2)] * 4))
        _, k_eff, _ = pad_formula_with_denominators(f, 99)
        assert k_eff == 4

    @pytest.mark.parametrize("tag", [Q, Tag.NONNEG_RATIONAL, Tag.BOOLEAN])
    def test_random_scaling_law(self, tag):
        rng = random.Random(len(tag.value))
        for _ in range(8):
            f = rand_osl_formula(rng, tag, max_depth=2, max_rows=12)
            k = rng.randint(1, 8)
            g, k_eff, delta = pad_formula_with_denominators(f, k)
            original = partial_trace_outer(evaluate(f), k)
            scaled = partial_trace_outer(evaluate(g, entry_cap=BIG_CAP), k_eff)
            if tag is Tag.BOOLEAN:
                assert delta == 1 and scaled == original
            else:
                assert scaled.re == delta * delta * original.re

    def test_rejects_gaussian(self):
        with pytest.raises(ValidationError):
            pad_formula_with_denominators(Atom(basis_vector(2, 1, QI)), 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            pad_formula_with_denominators(Atom(basis_vector(2, 1, Q)), 0)


class TestFormulaToArray:
    def test_permutation_on_basis_state(self):
        f = Prod(Atom(builtin_gate("toffoli", Q)), Atom(basis_vector(8, 7, Q)))
        array, state = formula_to_array(f)
        assert array.width == 3 and array.depth == 1
        (gate,) = array.levels[0]
        assert gate.wires == (1, 2, 3)
        assert gate.matrix == builtin_gate("toffoli", Q)
        assert state.basis_bits() == "110"
        out = simulate(array, state)
        assert out.amplitudes == basis_vector(8, 8, Q)

    def test_bare_column(self):
        array, state = formula_to_array(Atom(basis_vector(2, 1, Q)))
        assert array.width == 1 and array.depth == 0
        assert state.basis_bits() == "0"

    def test_scalar_factor_lands_in_amplitudes(self):
        f = Tensor(Atom(mx([[-1]])), Atom(basis_vector(2, 1, Q)))
        array, state = formula_to_array(f)
        assert array.width == 1 and array.depth == 0
        assert [e.re for e in state.amplitudes.entries] == [-1, 0]

    def test_separate_input_blocks(self):
        f = Prod(
            Atom(builtin_gate("cnot", Q)),
            Tensor(Atom(basis_vector(2, 2, Q)), Atom(basis_vector(2, 1, Q))),
        )
        array, state = formula_to_array(f)
        assert state.basis_bits() == "10"
        assert simulate(array, state).basis_bits() == "11"

    def test_wires_assigned_through_closed_wires(self):
        # (rot35 # v) * u: the tensor closes wire 2 with v, so u, read
        # after it, lands on the tensor's open wire 1, not on wire 2.
        rot = builtin_gate("rot35", Q)
        v, u = col(["3/5", "4/5"]), col(["5/13", "12/13"])
        f = Prod(Tensor(Atom(rot), Atom(v)), Atom(u))
        array, state = formula_to_array(f)
        assert array.levels == ((Gate((1,), rot),),)
        assert state.amplitudes == kronecker(u, v)

    # Products whose left factor has closed wires, so its open wires are
    # not its output wires; the right factor must run on the open ones.
    @pytest.mark.parametrize(
        "build",
        [
            lambda rot, v, u, toff, cnot: Prod(
                Prod(toff, Tensor(v, cnot)), Tensor(u, v)
            ),
            lambda rot, v, u, toff, cnot: Prod(
                Tensor(Prod(cnot, Tensor(rot, u)), rot), Tensor(v, u)
            ),
            lambda rot, v, u, toff, cnot: Prod(
                Prod(Tensor(cnot, rot), Tensor(u, Tensor(rot, v))),
                Prod(rot, u),
            ),
        ],
        ids=["prod-left", "tensor-left", "prod-of-tensors"],
    )
    def test_simulation_matches_with_closed_wires(self, build):
        atoms = [builtin_gate("rot35", Q), col(["3/5", "4/5"])]
        atoms += [col(["5/13", "-12/13"]), builtin_gate("toffoli", Q)]
        atoms.append(mat_mul(builtin_gate("cnot", Q), builtin_gate("swap", Q)))
        f = build(*(Atom(m) for m in atoms))
        array, state = formula_to_array(f)
        padded_value = evaluate(pad_formula(f).padded, entry_cap=BIG_CAP)
        assert simulate(array, state).amplitudes == padded_value

    @pytest.mark.parametrize(
        "longer, wires",
        [("left", [[1, 2], [1]]), ("right", [[1, 2], [2]])],
    )
    def test_tensor_levels_list_left_factor_first(self, longer, wires):
        # Level i of a tensor runs the left factor's level i, then the
        # right factor's, whichever factor has more levels.
        x = Atom(builtin_gate("not", Q))
        pair = (Prod(x, x), x) if longer == "left" else (x, Prod(x, x))
        e = Atom(basis_vector(2, 1, Q))
        array, _ = formula_to_array(Prod(Tensor(*pair), Tensor(e, e)))
        assert [[g.wires[0] for g in level] for level in array.levels] == wires

    def test_rejects_scalar_formula(self):
        with pytest.raises(ValidationError):
            formula_to_array(Atom(mx([[1]])))

    def test_rejects_non_osl(self):
        with pytest.raises(ValidationError):
            formula_to_array(Atom(mx([[1, 1], [0, 1]])))

    @pytest.mark.parametrize("tag", [Q, Tag.NONNEG_RATIONAL, Tag.BOOLEAN, QI])
    def test_simulation_matches_padded_value(self, tag):
        rng = random.Random(len(tag.value) * 37)
        for _ in range(10):
            f = rand_osl_formula(rng, tag, max_depth=3, max_rows=24)
            array, state = formula_to_array(f)
            out = simulate(array, state)
            padded_value = evaluate(pad_formula(f).padded, entry_cap=BIG_CAP)
            assert out.amplitudes == padded_value
