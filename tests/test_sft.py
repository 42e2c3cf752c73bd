"""Decision semantics of the partial-trace problem and its variants."""

import random
import time
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import distinct_nodes, multiplied_out, rand_array, rand_osl_formula, unshared
from test_forward_compiler import basis_image

import sft_tensor.formula as formula_module

from sft_tensor.circuit import (
    StateVector,
    acceptance_probability,
    builtin_gate,
    simulate,
)
from sft_tensor.errors import CapExceededError, ValidationError
from sft_tensor.formula import (
    Atom,
    Prod,
    Tensor,
    balanced_tensor,
    check_osl,
    evaluate,
    parse_formula,
    render_formula,
)
from sft_tensor.forward_compiler import compile_array_to_formula, input_vector_formula
from sft_tensor.linalg import Matrix, basis_vector, identity, mat_mul, partial_trace_outer
from sft_tensor.semiring import Tag, make_scalar
from sft_tensor.sft import SftInstance, SftVerdict, boolean_fastpath, decide_sft

Q = Tag.RATIONAL
B = Tag.BOOLEAN


def col(values, tag=Q):
    return Matrix.from_rows(
        tag, [[make_scalar(tag, Fraction(v))] for v in values]
    )


def bool_col(bits):
    return Matrix.from_entries(
        B, len(bits), 1, [make_scalar(B, b) for b in bits]
    )


ROT_COLUMN = Prod(Atom(builtin_gate("rot35", Q)), Atom(basis_vector(2, 1, Q)))


class TestInstanceValidation:
    def test_accepts_string_alpha(self):
        inst = SftInstance(ROT_COLUMN, k=1, alpha="2/3")
        assert inst.alpha == Fraction(2, 3)

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            SftInstance(ROT_COLUMN, k=0)

    @pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1), Fraction(3, 2)])
    def test_rejects_alpha_outside_band(self, alpha):
        with pytest.raises(ValidationError):
            SftInstance(ROT_COLUMN, k=1, alpha=alpha)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValidationError):
            SftInstance(ROT_COLUMN, k=1, variant="maybe")

    def test_rejects_non_osl(self):
        square = Atom(builtin_gate("cnot", Q))
        with pytest.raises(ValidationError):
            SftInstance(square, k=1)


class TestDecide:
    def test_boolean_basis_accepts(self):
        inst = SftInstance(Atom(basis_vector(4, 4, B)), k=1)
        verdict = decide_sft(inst)
        assert verdict.value.is_one() and verdict.accept
        assert verdict.in_promise_band is None

    def test_uniform_half_rejects_and_sits_in_band(self):
        f = Atom(col([Fraction(1, 2)] * 4))
        plain = decide_sft(SftInstance(f, k=2))
        assert plain.value.re == Fraction(1, 2) and not plain.accept
        promised = decide_sft(SftInstance(f, k=2, variant="promise"))
        assert promised.in_promise_band is True

    def test_rotated_column_against_thresholds(self):
        # Value 16/25 clears 1/2 but not 2/3.
        assert decide_sft(SftInstance(ROT_COLUMN, k=1)).accept
        strict = SftInstance(ROT_COLUMN, k=1, alpha=Fraction(2, 3))
        assert not decide_sft(strict).accept
        assert decide_sft(strict).value.re == Fraction(16, 25)

    def test_nonzero_variant(self):
        inst = SftInstance(
            ROT_COLUMN, k=1, alpha=Fraction(2, 3), variant="nonzero"
        )
        verdict = decide_sft(inst)
        assert verdict.accept and verdict.in_promise_band is None
        zero_tail = SftInstance(
            Atom(basis_vector(4, 1, Q)), k=2, variant="nonzero"
        )
        assert not decide_sft(zero_tail).accept

    def test_cap_is_forwarded(self):
        with pytest.raises(CapExceededError):
            decide_sft(SftInstance(ROT_COLUMN, k=1), entry_cap=2)

    @pytest.mark.parametrize("tag", [Q, Tag.GAUSSIAN_RATIONAL, Tag.NONNEG_RATIONAL])
    def test_value_stays_in_unit_interval(self, tag):
        rng = random.Random(len(tag.value) * 11)
        for _ in range(10):
            f = rand_osl_formula(rng, tag, max_depth=3, max_rows=24)
            k = rng.randint(1, 10)
            value = decide_sft(SftInstance(f, k=k)).value
            assert 0 <= value.re <= 1


class TestSharedSubtrees:
    """A formula whose equal subtrees are one node decides as the same
    formula written as a tree."""

    def test_doubling_dag_of_60_levels(self):
        # f_(i+1) = f_i * f_i: 2^60 NOT occurrences, 62 distinct nodes.
        f = Atom(builtin_gate("not", Q))
        for _ in range(60):
            f = Prod(f, f)
        assert evaluate(f) == identity(2, Q)
        column = Prod(f, Atom(basis_vector(2, 1, Q)))
        assert check_osl(column).is_osl
        assert evaluate(column) == basis_vector(2, 1, Q)
        assert decide_sft(SftInstance(column, k=1)).value.is_zero()
        assert decide_sft(SftInstance(column, k=2)).accept

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_shared_and_tree_agree(self, data):
        tag = data.draw(st.sampled_from(list(Tag)))
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        g = rand_osl_formula(rng, tag, max_depth=3, max_rows=8)
        # Parsing the text of g # g gives every repeated subtree one node.
        f = parse_formula(render_formula(Tensor(g, g)), tag)
        assert f.left is f.right
        tree = unshared(f)
        assert check_osl(f) == check_osl(tree)
        assert evaluate(f) == evaluate(tree)
        inst = dict(k=data.draw(st.integers(1, 70)), variant="promise")
        assert decide_sft(SftInstance(f, **inst)) == decide_sft(SftInstance(tree, **inst))


class TestBooleanFastpath:
    def test_permutation_instance_accepts(self):
        f = Prod(Atom(builtin_gate("toffoli", B)), Atom(basis_vector(8, 7, B)))
        assert boolean_fastpath(SftInstance(f, k=1)).accept

    def test_zero_tail_rejects(self):
        assert not boolean_fastpath(SftInstance(Atom(basis_vector(2, 1, B)), k=1)).accept

    def test_scalar_formula_falls_back(self):
        one = Atom(Matrix.from_entries(B, 1, 1, [make_scalar(B, 1)]))
        verdict = boolean_fastpath(SftInstance(one, k=1))
        assert verdict.accept and verdict.value.is_one()

    def test_rejects_other_tags(self):
        with pytest.raises(ValidationError):
            boolean_fastpath(SftInstance(ROT_COLUMN, k=1))

    def test_wide_support(self):
        # Support {0, 2} through a cnot: both images must be tracked.
        f = Prod(Atom(builtin_gate("cnot", B)), Atom(bool_col([1, 0, 1, 0])))
        # cnot maps 00 -> 00 and 10 -> 11; window of size 1 is index 3.
        assert boolean_fastpath(SftInstance(f, k=1)).accept
        assert decide_sft(SftInstance(f, k=1)).accept

    def test_compiled_circuit_at_width_18(self):
        # The output bits are worked out here by permuting the input's
        # bits gate by gate; the fast path must accept exactly when they
        # fall in the last k of the 2^18 basis states.
        rng = random.Random(18)
        width = 18
        for _ in range(3):
            c = rand_array(rng, width, 6, B)
            bits = [rng.choice("01") for _ in range(width)]
            x = input_vector_formula("".join(bits), B)
            f = Prod(compile_array_to_formula(c), x)
            for level in c.levels:
                for gate in level:
                    local = int("".join(bits[w - 1] for w in gate.wires), 2)
                    moved = gate.matrix.perm_or_none()[local]
                    moved_bits = format(moved, f"0{len(gate.wires)}b")
                    for w, b in zip(gate.wires, moved_bits):
                        bits[w - 1] = b
            out = int("".join(bits), 2)
            end = 1 << width
            for k in (1 << 17, end - out, max(1, end - out - 1)):
                accept = out >= end - k
                verdict = boolean_fastpath(SftInstance(f, k=k))
                assert verdict == SftVerdict(make_scalar(B, int(accept)), accept)

    def test_agrees_with_direct_decision(self):
        rng = random.Random(23)
        for _ in range(40):
            f = rand_osl_formula(rng, B, max_depth=3, max_rows=24)
            inst = SftInstance(f, k=rng.randint(1, 12))
            fast = boolean_fastpath(inst)
            slow = decide_sft(inst)
            assert fast == slow

    def test_variants_coincide(self):
        rng = random.Random(31)
        for _ in range(15):
            f = rand_osl_formula(rng, B, max_depth=2, max_rows=12)
            k = rng.randint(1, 6)
            verdicts = [
                decide_sft(SftInstance(f, k=k, variant=v)).accept
                for v in ("standard", "promise", "nonzero")
            ]
            assert len(set(verdicts)) == 1


class TestProbabilitySemantics:
    def test_compiled_arrays_score_like_simulation(self):
        rng = random.Random(7)
        for _ in range(10):
            width = rng.randint(2, 4)
            c = rand_array(rng, width, rng.randint(1, 4))
            f = compile_array_to_formula(c)
            bits = format(rng.randrange(1 << width), f"0{width}b")
            instance_formula = Prod(f, input_vector_formula(bits, Q))
            k = 1 << (width - 1)
            value = decide_sft(SftInstance(instance_formula, k=k)).value
            out = simulate(c, StateVector.basis(width, bits, Q))
            assert value == acceptance_probability(out, k)

    def test_counting_uniform_bits(self):
        # One constant-0 wire plus two uniform wires: the value counts
        # the accepting assignments out of 4.
        c = rand_array(random.Random(5), 3, 3, names=("not", "cnot", "swap"))
        f = compile_array_to_formula(c)
        uniform = col([Fraction(1, 2)] * 4)
        instance_formula = Prod(
            f, input_vector_formula([basis_vector(2, 1, Q), uniform], Q)
        )
        k = 4
        value = decide_sft(SftInstance(instance_formula, k=k)).value
        accepted = 0
        for assignment in range(4):
            bits = "0" + format(assignment, "02b")
            out = simulate(c, StateVector.basis(3, bits, Q))
            if not acceptance_probability(out, k).is_zero():
                accepted += 1
        assert value.re == Fraction(accepted, 4)


class TestIndexWalk:
    """decide_sft reads its value off the walk's sparse column, moving
    support indices through permutation subtrees."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_decide_matches_multiplied_out(self, data):
        tag = data.draw(st.sampled_from(list(Tag)))
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        g = rand_osl_formula(rng, tag, max_depth=3, max_rows=8)
        # g # g parsed from text shares its two factors.  At an index
        # price of 1, small permutation subtrees move indices one by one
        # instead of being composed at once.
        for f in (g, parse_formula(render_formula(Tensor(g, g)), tag)):
            k = data.draw(st.integers(1, 70))
            dense = multiplied_out(f, 1 << 24)
            column = {i: s for i, s in enumerate(dense.entries) if not s.is_zero()}
            for price in (1, formula_module._INDEX_PRICE):
                with patch.object(formula_module, "_INDEX_PRICE", price):
                    assert formula_module._sparse_value(f, 1 << 24) == column
                    verdict = decide_sft(SftInstance(f, k=k))
                assert verdict.value == partial_trace_outer(dense, k)

    def test_fastpath_at_64_wires(self):
        rng = random.Random(64)
        width, end = 64, 1 << 64
        c = compile_array_to_formula(rand_array(rng, width, 8, B))
        for _ in range(3):
            bits = "".join(rng.choice("01") for _ in range(width))
            out = basis_image(c, int(bits, 2))
            f = Prod(c, input_vector_formula(bits, B))
            for k in (1 << 63, end - out, max(1, end - out - 1)):
                accept = out >= end - k
                verdict = boolean_fastpath(SftInstance(f, k=k))
                assert verdict == SftVerdict(make_scalar(B, int(accept)), accept)

    def test_images_stay_within_support(self):
        # Input support s = 4 on a compiled Boolean circuit: each
        # occurrence of a node moves at most s indices, so a node that is
        # not an atom holds at most s images per occurrence, or, once
        # their price reaches its column count, is composed into a tuple.
        rng = random.Random(12)
        width = 12
        c = compile_array_to_formula(rand_array(rng, width, 8, B))
        both = bool_col([1, 1])
        columns = [both, both] + [basis_vector(2, 1, B)] * (width - 2)
        f = Prod(c, input_vector_formula(columns, B))
        plans: dict = {}
        column = formula_module.walk(formula_module._plan(f, 1 << 24, "", plans))
        assert len(column) == 4
        occurrences = Counter()
        stack = [c]
        while stack:
            node = stack.pop()
            occurrences[id(node)] += 1
            if not isinstance(node, Atom):
                stack += [node.left, node.right]
        price = formula_module._INDEX_PRICE
        held = [
            (plans[id(node)], 4 * occurrences[id(node)])
            for node in distinct_nodes(c)
            if not isinstance(node, Atom)
        ]
        assert any(type(plan) is formula_module._Memo for plan, _ in held)
        for plan, asked in held:
            assert len(plan) <= (price * asked if type(plan) is tuple else asked)

    def test_bought_operator_stays_sparse(self):
        # M = (C # X) X is 2^31 x 2, with C a 2^30-row unit column and X
        # the NOT gate, and both products below apply it, so it is
        # multiplied out.  Its columns are kept sparse: built dense, M
        # would need 2^32 entries.
        c = balanced_tensor([Atom(bool_col([1, 0]))] * 30)
        x = Atom(builtin_gate("not", B))
        m = Prod(Tensor(c, x), x)
        e = Atom(bool_col([0, 1]))
        f = Tensor(Prod(m, e), Prod(m, e))
        # M e = C # e, so f's one nonzero row is 2^31 + 1 of 2^62.
        hit = (1 << 62) - (1 << 31) - 1
        start = time.perf_counter()
        for k, accept in ((hit, True), (hit - 1, False)):
            verdict = boolean_fastpath(SftInstance(f, k=k))
            assert verdict == SftVerdict(make_scalar(B, int(accept)), accept)
        assert time.perf_counter() - start < 1
