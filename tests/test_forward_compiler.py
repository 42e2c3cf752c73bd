"""Gate array to formula: odd-even routing, full-array compilation, shared
output, input columns."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sft_tensor.backward_compiler import formula_to_array, pad_formula
from sft_tensor.circuit import (
    Gate,
    GateArray,
    StateVector,
    builtin_gate,
    level_operator,
    _run_levels,
    render_gate_array,
    simulate,
)
from sft_tensor.errors import ValidationError
from sft_tensor.formula import (
    Atom,
    Prod,
    Tensor,
    balanced_tensor,
    check_osl,
    evaluate,
    is_sum_free,
    parse_formula,
    render_formula,
    size,
)
from sft_tensor.forward_compiler import (
    _packed_level,
    _packed_target,
    compile_array_to_formula,
    input_vector_formula,
    odd_even_rounds,
)
from sft_tensor.linalg import Matrix, basis_vector, identity, mat_mul
from sft_tensor.semiring import Tag, make_scalar

from generators import ARITY, distinct_nodes, rand_array, unshared

Q = Tag.RATIONAL
CNOT = builtin_gate("cnot", Q)


def mx(rows, tag=Q) -> Matrix:
    return Matrix.from_rows(
        tag, [[make_scalar(tag, Fraction(v)) for v in row] for row in rows]
    )


def formula_depth(f):
    if isinstance(f, Atom):
        return 0
    return 1 + max(formula_depth(f.left), formula_depth(f.right))


def atom_count(f):
    if isinstance(f, Atom):
        return 1
    return atom_count(f.left) + atom_count(f.right)


class TestCompileArray:
    def test_single_cnot(self):
        arr = GateArray(Q, 2, ((Gate((1, 2), builtin_gate("cnot", Q)),),))
        assert evaluate(compile_array_to_formula(arr)) == builtin_gate("cnot", Q)

    def test_identity_array(self):
        arr = GateArray(Q, 3, ((), (), ()))
        assert evaluate(compile_array_to_formula(arr)) == identity(8, Q)

    def test_zero_level_array(self):
        arr = GateArray(Q, 2, ())
        assert evaluate(compile_array_to_formula(arr)) == identity(4, Q)

    def test_level_order(self):
        # not on wire 1, then cnot: the order matters and must match the
        # simulator, which applies level 1 first.
        arr = GateArray(
            Q,
            2,
            (
                (Gate((1,), builtin_gate("not", Q)),),
                (Gate((1, 2), builtin_gate("cnot", Q)),),
            ),
        )
        f = compile_array_to_formula(arr)
        for bits in ("00", "01", "10", "11"):
            s = StateVector.basis(2, bits, Q)
            got = mat_mul(evaluate(f), s.amplitudes)
            assert got == simulate(arr, s).amplitudes

    def test_invalid_array_rejected(self):
        # The boundary check is the only one: a level sharing a wire or a
        # wire outside 1..width never reaches the packing.
        cases = [
            (1, (Gate((1,), mx([[1, 1], [0, 1]])),)),  # not orthogonal
            (3, (Gate((1, 2), CNOT), Gate((2, 3), CNOT))),  # shared wire
            (2, (Gate((1, 3), CNOT),)),  # wire outside 1..2
        ]
        for width, level in cases:
            arr = GateArray(Q, width, (level,))
            with pytest.raises(ValidationError, match="^invalid gate array"):
                compile_array_to_formula(arr)

    def test_random_arrays_round_trip(self):
        rng = random.Random(7)
        for _ in range(15):
            width = rng.randrange(2, 5)
            arr = rand_array(rng, width, rng.randrange(1, 5))
            f = compile_array_to_formula(arr)
            assert is_sum_free(f)
            value = evaluate(f)
            for x in range(1 << width):
                bits = format(x, f"0{width}b")
                s = StateVector.basis(width, bits, Q)
                assert mat_mul(value, s.amplitudes) == simulate(arr, s).amplitudes

    def test_composed_with_input_is_osl(self):
        rng = random.Random(8)
        for _ in range(10):
            width = rng.randrange(2, 5)
            arr = rand_array(rng, width, 3)
            bits = format(rng.randrange(1 << width), f"0{width}b")
            f = Prod(compile_array_to_formula(arr), input_vector_formula(bits, Q))
            report = check_osl(f)
            assert report.is_osl
            assert evaluate(f) == simulate(arr, StateVector.basis(width, bits, Q)).amplitudes

    def test_depth_logarithmic_in_levels(self):
        rng = random.Random(9)
        for _ in range(10):
            width = rng.randrange(2, 7)
            depth_levels = rng.randrange(1, 9)
            arr = rand_array(rng, width, depth_levels)
            f = compile_array_to_formula(arr)
            bound = (
                math.ceil(math.log2(depth_levels)) if depth_levels > 1 else 0
            ) + 2 + 3 * math.ceil(math.log2(width))
            assert formula_depth(f) <= bound


@st.composite
def arrangement_pairs(draw):
    labels = list(range(1, draw(st.integers(1, 10)) + 1))
    return draw(st.permutations(labels)), draw(st.permutations(labels))


class TestOddEvenRounds:
    @settings(max_examples=300, deadline=None)
    @given(arrangement_pairs())
    def test_rounds_take_start_to_target(self, pair):
        start, target = pair
        rounds = odd_even_rounds(start, target)
        assert len(rounds) <= len(start)
        current = list(start)
        for swaps in rounds:
            assert swaps
            assert all(1 <= p < len(start) for p in swaps)
            # Increasing and at least two apart: the swapped pairs are disjoint.
            assert all(b - a >= 2 for a, b in zip(swaps, swaps[1:]))
            for p in swaps:
                current[p - 1], current[p] = current[p], current[p - 1]
        assert current == list(target)

    def test_sorted_start_needs_no_round(self):
        assert odd_even_rounds([3, 1, 2], [3, 1, 2]) == []

    def test_reversal_takes_n_rounds(self):
        n = 6
        rounds = odd_even_rounds(list(range(1, n + 1)), list(range(n, 0, -1)))
        assert len(rounds) == n

    def test_rejects_other_labels(self):
        with pytest.raises(ValidationError):
            odd_even_rounds([1, 2, 3], [1, 2, 4])


class TestMergedRouting:
    @pytest.mark.parametrize("tag", [Q, Tag.BOOLEAN], ids=lambda t: t.value)
    def test_random_arrays_match_simulate(self, tag):
        rng = random.Random(11)
        for width in range(2, 10):
            for _ in range(3):
                arr = rand_array(rng, width, rng.randrange(1, 7), tag)
                f = compile_array_to_formula(arr)
                assert is_sum_free(f)
                if width <= 5:
                    inputs = range(1 << width)
                else:
                    inputs = [rng.randrange(1 << width) for _ in range(6)]
                for x in inputs:
                    bits = format(x, f"0{width}b")
                    got = evaluate(Prod(f, input_vector_formula(bits, tag)))
                    want = simulate(arr, StateVector.basis(width, bits, tag))
                    assert got == want.amplitudes
                if width > 7:
                    continue  # dense 2^n x 2^n level operators get slow
                for i, level in enumerate(arr.levels, start=1):
                    one = compile_array_to_formula(GateArray(tag, width, (level,)))
                    assert evaluate(one) == level_operator(arr, i)

    def test_atom_count_bound(self):
        # At most n rounds before each level and after the last, n atoms
        # per chain: n * (L + (L + 1) * n) atoms for L levels on n wires.
        rng = random.Random(12)
        for _ in range(40):
            width = rng.randrange(1, 10)
            depth = rng.randrange(1, 9)
            arr = rand_array(rng, width, depth)
            f = compile_array_to_formula(arr)
            assert atom_count(f) <= width * (depth + (depth + 1) * width)

    def test_wires_stay_routed_between_levels(self):
        # Both levels want wires 1 and 4 together: one route there, none
        # between the levels, one route back: six factors, each one
        # two-wire atom.  Each half of the product is one factor as a
        # full chain (three atoms) times the other two on the three wires
        # they touch (two atoms each) beside one I_2 atom.
        level = (Gate((1, 4), builtin_gate("cnot", Q)),)
        arr = GateArray(Q, 4, (level, (), level))
        f = compile_array_to_formula(arr)
        assert atom_count(f) == 2 * (3 + 5)
        assert evaluate(f) == identity(16, Q)

    def test_gate_packed_where_its_wires_sit(self):
        # A cnot already on adjacent wires 5 and 6 needs no route: the
        # formula is one chain of four I_2 atoms and the cnot, 4 binary
        # nodes, as for the same gate on wires 1 and 2.
        for wires in ((5, 6), (1, 2)):
            arr = GateArray(Q, 6, ((Gate(wires, builtin_gate("cnot", Q)),),))
            f = compile_array_to_formula(arr)
            assert atom_count(f) == 5
            assert evaluate(f) == level_operator(arr, 1)

    def test_gateless_array_is_identity_formula(self):
        arr = GateArray(Q, 3, ((), ()))
        want = balanced_tensor([Atom(identity(2, Q))] * 3)
        assert compile_array_to_formula(arr) == want


def factor_arities(arr):
    """Each factor of the routed array, in application order, as the
    arities of its blocks: the routing rounds and the packed levels."""
    current = home = list(range(1, arr.width + 1))
    factors = []
    for level in arr.levels:
        if level:
            target = _packed_target(level, current)
            factors += [[2] * len(r) for r in odd_even_rounds(current, target)]
            factors.append([len(g.wires) for g in _packed_level(level, target)])
            current = target
    return factors + [[2] * len(r) for r in odd_even_rounds(current, home)]


def disjoint_levels(rng, width, depth, tag):
    """Levels alternating between the wires below and above a random cut,
    each a random level on its side with shuffled wires."""
    cut = rng.randrange(1, width)
    sides = [list(range(1, cut + 1)), list(range(cut + 1, width + 1))]
    levels = []
    for i in range(depth):
        wires = sides[i % 2][:]
        rng.shuffle(wires)
        (level,) = rand_array(rng, len(wires), 1, tag).levels
        levels.append(tuple(Gate([wires[w - 1] for w in g.wires], g.matrix) for g in level))
    return GateArray(tag, width, tuple(levels))


def basis_image(f, x):
    """The basis index a formula of permutation atoms sends index x to."""
    if isinstance(f, Atom):
        return f.matrix.perm_or_none()[x]
    if isinstance(f, Prod):
        return basis_image(f.left, basis_image(f.right, x))
    rows = f.right.order[0]
    high, low = divmod(x, rows)
    return basis_image(f.left, high) * rows + basis_image(f.right, low)


def shared_depth(f, depths=None):
    depths = {} if depths is None else depths
    if isinstance(f, Atom):
        return 0
    if id(f) not in depths:
        depths[id(f)] = 1 + max(shared_depth(f.left, depths), shared_depth(f.right, depths))
    return depths[id(f)]


class TestWindowedProduct:
    """Each run of factors is built over the wires it touches only."""

    @pytest.mark.parametrize("tag", list(Tag), ids=lambda t: t.value)
    def test_matches_simulate(self, tag):
        rng = random.Random(21)
        arrays = [rand_array(rng, w, rng.randrange(1, 7), tag) for w in range(1, 10)]
        disjoint = [disjoint_levels(rng, w, 5, tag) for w in (2, 5, 9)]
        for arr in arrays + disjoint:
            f = compile_array_to_formula(arr)
            n = arr.width
            for x in rng.sample(range(1 << n), min(3, 1 << n)):
                bits = format(x, f"0{n}b")
                got = evaluate(Prod(f, input_vector_formula(bits, tag)))
                assert got == simulate(arr, StateVector.basis(n, bits, tag)).amplitudes
        for arr in disjoint:
            nodes = distinct_nodes(compile_array_to_formula(arr))
            # A product narrower than the array, and one beside a cut.
            assert any(isinstance(v, Prod) and v.order[0] < 1 << arr.width for v in nodes)
            assert any(
                isinstance(v, Tensor) and Prod in (type(v.left), type(v.right))
                for v in nodes
            )

    def test_never_more_atoms_than_full_width_chains(self):
        rng = random.Random(22)
        arrays = [rand_array(rng, rng.randrange(1, 12), rng.randrange(1, 10)) for _ in range(40)]
        arrays += [disjoint_levels(rng, rng.randrange(2, 12), 6, Q) for _ in range(20)]
        fewer = 0
        for arr in arrays:
            # A full-width chain has an atom per block and per wire no
            # block covers; no factors at all is the identity chain.
            factors = factor_arities(arr)
            full = sum(arr.width - sum(a - 1 for a in f) for f in factors) or arr.width
            atoms = atom_count(compile_array_to_formula(arr))
            assert atoms <= full
            fewer += atoms < full
        assert fewer >= len(arrays) // 2

    def test_wide_array_touching_three_wires(self):
        rng = random.Random(23)
        names = ("not", "cnot", "swap", "toffoli", "fredkin")
        levels = []
        for _ in range(200):
            free = [1, 2, 3]
            rng.shuffle(free)
            level = []
            while free and (not level or rng.random() < 0.5):
                name = rng.choice([m for m in names if ARITY[m] <= len(free)])
                level.append(Gate(tuple(free[: ARITY[name]]), builtin_gate(name, Q)))
                del free[: ARITY[name]]
            levels.append(tuple(level))
        arr = GateArray(Q, 64, tuple(levels))
        gates = sum(map(len, levels))
        f = compile_array_to_formula(arr)
        # Full-width chains would take about 62 atoms per level.
        assert atom_count(f) < 4 * (gates + arr.width)
        # The simulator's sparse kernel, as simulate's 2^64-entry
        # state cannot be built.
        one = make_scalar(Q, 1)
        for x in (0, (1 << 64) - 1, rng.randrange(1 << 64)):
            assert {basis_image(f, x): one} == _run_levels(arr, {x: one})

    def test_depth_logarithmic_in_factors(self):
        # Along any path the product halves at most L = ceil(log2 F)
        # times for F factors; a split into at most n parts, never two in
        # a row, comes before each halving and before the last chain, and
        # that chain has at most n parts: L + (L + 2) * ceil(log2 n).
        rng = random.Random(24)
        arrays = [rand_array(rng, rng.randrange(1, 17), rng.randrange(1, 30)) for _ in range(30)]
        arrays += [disjoint_levels(rng, rng.randrange(2, 17), 20, Q) for _ in range(10)]
        for arr in arrays:
            count = len(factor_arities(arr))
            halvings = math.ceil(math.log2(count)) if count > 1 else 0
            per_split = math.ceil(math.log2(arr.width))
            depth = shared_depth(compile_array_to_formula(arr))
            assert depth <= halvings + (halvings + 2) * per_split


class TestSharedOutput:
    """The compiled formula is a DAG that means the same as its tree."""

    @pytest.mark.parametrize("tag", list(Tag), ids=lambda t: t.value)
    def test_renders_as_its_tree(self, tag):
        rng = random.Random(13)
        for width in (2, 5, 8):
            f = compile_array_to_formula(rand_array(rng, width, 6, tag))
            assert render_formula(f) == render_formula(unshared(f))
            assert size(f) == size(unshared(f))

    def test_repeated_levels_share_every_node(self):
        # The level's gates stay gathered, so each repeat adds the same
        # chain again: only the balanced product above the chains grows,
        # by at most two distinct nodes per doubling of the level count.
        level = (
            Gate((5, 2), builtin_gate("cnot", Q)),
            Gate((1, 6, 3), builtin_gate("toffoli", Q)),
            Gate((4,), builtin_gate("rot35", Q)),
        )
        one = distinct_nodes(compile_array_to_formula(GateArray(Q, 6, (level,))))
        f = compile_array_to_formula(GateArray(Q, 6, (level,) * 16))
        nodes = distinct_nodes(f)
        atoms = [n for n in nodes if isinstance(n, Atom)]
        # I_2, the swap, cnot, toffoli and rot35, each one Atom.
        assert len(atoms) == len({render_formula(a) for a in atoms}) == 5
        assert len(nodes) <= len(one) + 2 * 4

    @pytest.mark.parametrize("tag", [Q, Tag.BOOLEAN], ids=lambda t: t.value)
    def test_compiled_circuit_pads_to_itself(self, tag):
        rng = random.Random(14)
        for width in (3, 6):
            arr = rand_array(rng, width, 6, tag)
            bits = ("01" * width)[:width]
            f = Prod(compile_array_to_formula(arr), input_vector_formula(bits, tag))
            assert pad_formula(f).padded is f

    @pytest.mark.parametrize("tag", [Q, Tag.BOOLEAN], ids=lambda t: t.value)
    def test_parsed_dag_reads_as_its_tree(self, tag):
        rng = random.Random(15)
        arr = rand_array(rng, 6, 6, tag)
        text = render_formula(
            Prod(compile_array_to_formula(arr), input_vector_formula("011010", tag))
        )
        f = parse_formula(text, tag)
        assert render_gate_array(*formula_to_array(f)) == render_gate_array(
            *formula_to_array(unshared(f))
        )


class TestInputVectorFormula:
    def test_all_zero(self):
        f = input_vector_formula("000", Q)
        assert evaluate(f) == basis_vector(8, 1, Q)

    def test_bit_pattern(self):
        f = input_vector_formula("10", Q)
        assert f == Tensor(Atom(basis_vector(2, 2, Q)), Atom(basis_vector(2, 1, Q)))
        assert evaluate(f) == basis_vector(4, 3, Q)

    def test_right_association(self):
        f = input_vector_formula("011", Q)
        assert isinstance(f, Tensor)
        assert isinstance(f.right, Tensor)
        assert isinstance(f.left, Atom)

    def test_uniform_pair_block(self):
        half = make_scalar(Q, Fraction(1, 2))
        block = Matrix.from_entries(Q, 4, 1, [half] * 4)
        f = input_vector_formula([basis_vector(2, 1, Q), block], Q)
        got = evaluate(f)
        assert got.rows == 8
        assert [e.re for e in got.entries] == [Fraction(1, 2)] * 4 + [0] * 4

    def test_single_wire(self):
        f = input_vector_formula("1", Q)
        assert f == Atom(basis_vector(2, 2, Q))

    def test_rejects_bad_bits(self):
        with pytest.raises(ValidationError):
            input_vector_formula("10 2", Q)
        with pytest.raises(ValidationError):
            input_vector_formula("", Q)

    def test_rejects_non_unit_block(self):
        one = make_scalar(Q, Fraction(1))
        block = Matrix.from_entries(Q, 2, 1, [one, one])
        with pytest.raises(ValidationError):
            input_vector_formula([block], Q)

    def test_rejects_non_power_block(self):
        v = basis_vector(3, 1, Q)
        with pytest.raises(ValidationError):
            input_vector_formula([v], Q)

    def test_rejects_tag_mismatch(self):
        with pytest.raises(ValidationError):
            input_vector_formula([basis_vector(2, 1, Tag.BOOLEAN)], Q)
