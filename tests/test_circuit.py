"""Gate arrays: builtins, validation, simulation, text format."""

import random
from fractions import Fraction

import pytest

from sft_tensor.circuit import (
    BUILTIN_GATE_NAMES,
    _apply_gate,
    Gate,
    GateArray,
    StateVector,
    acceptance_probability,
    builtin_gate,
    level_operator,
    parse_gate_array,
    render_gate_array,
    simulate,
    validate_array,
    wire_masks,
)
from sft_tensor import circuit as circuit_module
from sft_tensor.errors import ParseError, TagMismatchError, ValidationError
from sft_tensor.formula import Atom, render_formula
from sft_tensor.linalg import (
    Matrix,
    basis_vector,
    conj_transpose,
    identity,
    is_unit_column,
    mat_mul,
)
from sft_tensor.semiring import Tag, make_scalar

from generators import rand_array

Q = Tag.RATIONAL
QI = Tag.GAUSSIAN_RATIONAL
B = Tag.BOOLEAN


def mx(rows, tag=Q) -> Matrix:
    return Matrix.from_rows(
        tag, [[make_scalar(tag, Fraction(v)) for v in row] for row in rows]
    )


class TestBuiltins:
    def test_cnot_as_printed(self):
        assert builtin_gate("cnot", Q) == mx(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )

    def test_fredkin_swaps_rows_six_seven(self):
        phi = builtin_gate("fredkin", Q)
        assert mat_mul(phi, basis_vector(8, 6, Q)) == basis_vector(8, 7, Q)
        assert mat_mul(phi, basis_vector(8, 7, Q)) == basis_vector(8, 6, Q)
        assert mat_mul(phi, basis_vector(8, 8, Q)) == basis_vector(8, 8, Q)

    def test_rot35_needs_negatives(self):
        with pytest.raises(ValidationError):
            builtin_gate("rot35", Tag.NONNEG_RATIONAL)
        with pytest.raises(ValidationError):
            builtin_gate("rot35", B)
        assert builtin_gate("rot35", Q) == mx([["3/5", "4/5"], ["-4/5", "3/5"]])

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            builtin_gate("hadamard", Q)

    def test_permutation_gates_exist_in_all_tags(self):
        for tag in Tag:
            for name in ("not", "cnot", "swap", "toffoli", "fredkin"):
                m = builtin_gate(name, tag)
                assert m.tag is tag


class TestGateNormalization:
    def test_sorted_wires_untouched(self):
        g = Gate((1, 2), builtin_gate("cnot", Q))
        assert g.wires == (1, 2)
        assert g.matrix == builtin_gate("cnot", Q)

    def test_reversed_cnot_conjugated(self):
        # Control on wire 2, target on wire 1: flips the high bit when the
        # low bit is set, i.e. the permutation 0,3,2,1 in sorted-wire order.
        g = Gate((2, 1), builtin_gate("cnot", Q))
        assert g.wires == (1, 2)
        assert g.matrix == Matrix.from_perm(Q, [0, 3, 2, 1])

    def test_reversed_swap_is_fixed_point(self):
        g = Gate((2, 1), builtin_gate("swap", Q))
        assert g.matrix == builtin_gate("swap", Q)

    def test_unsortable_matrix_left_alone(self):
        g = Gate((2, 1), identity(3, Q))
        assert g.wires == (2, 1)
        assert g.matrix == identity(3, Q)

    def test_scrambled_toffoli_semantics(self):
        # Controls on wires 3 and 1, target on wire 2.
        arr = GateArray(Q, 3, ((Gate((3, 1, 2), builtin_gate("toffoli", Q)),),))
        for x in range(8):
            bits = format(x, "03b")
            flip = bits[2] == "1" and bits[0] == "1"
            want = bits[0] + str(int(bits[1]) ^ flip) + bits[2]
            out = simulate(arr, StateVector.basis(3, bits, Q))
            assert out.basis_bits() == want


class TestValidate:
    def test_builtin_array_is_valid(self):
        arr = rand_array(random.Random(0), 4, 3)
        assert validate_array(arr).ok

    def test_shared_wire_in_level(self):
        level = (
            Gate((1, 2), builtin_gate("cnot", Q)),
            Gate((2,), builtin_gate("not", Q)),
        )
        report = validate_array(GateArray(Q, 2, (level,)))
        assert not report.ok
        assert any("already used" in v for v in report.violations)

    def test_wrong_matrix_order(self):
        report = validate_array(GateArray(Q, 2, ((Gate((1, 2), identity(3, Q)),),)))
        assert any("matrix order" in v for v in report.violations)

    def test_non_orthogonal_matrix(self):
        shear = mx([[1, 1], [0, 1]])
        report = validate_array(GateArray(Q, 1, ((Gate((1,), shear),),)))
        assert any("not orthogonal" in v for v in report.violations)

    def test_each_distinct_matrix_checked_once(self, monkeypatch):
        calls = []
        real = circuit_module.is_orthogonal
        monkeypatch.setattr(
            circuit_module, "is_orthogonal", lambda m: calls.append(m) or real(m)
        )
        rot = builtin_gate("rot35", Q)
        assert rot is builtin_gate("rot35", Q)
        levels = tuple((Gate((1,), rot), Gate((2,), rot)) for _ in range(3))
        assert validate_array(GateArray(Q, 2, levels)).ok
        assert calls == [rot]
        # A shared non-orthogonal matrix is still reported at every gate.
        shear = mx([[1, 1], [0, 1]])
        level = (Gate((1,), shear), Gate((2,), shear))
        report = validate_array(GateArray(Q, 2, (level,)))
        assert report.violations == (
            "level 1 gate 1: matrix is not orthogonal",
            "level 1 gate 2: matrix is not orthogonal",
        )

    def test_wire_out_of_range(self):
        report = validate_array(
            GateArray(Q, 2, ((Gate((3,), builtin_gate("not", Q)),),))
        )
        assert any("outside" in v for v in report.violations)

    def test_tag_mismatch_reported(self):
        report = validate_array(
            GateArray(Q, 1, ((Gate((1,), builtin_gate("not", B)),),))
        )
        assert any("tag" in v for v in report.violations)


class TestSimulate:
    def test_toffoli_110(self):
        arr = GateArray(Q, 3, ((Gate((1, 2, 3), builtin_gate("toffoli", Q)),),))
        out = simulate(arr, StateVector.basis(3, "110", Q))
        assert out.basis_bits() == "111"
        assert out.amplitudes == basis_vector(8, 8, Q)

    def test_empty_array_is_identity(self):
        arr = GateArray(Q, 2, ((), ()))
        s = StateVector(2, mx([["3/5"], [0], ["-4/5"], [0]]))
        assert simulate(arr, s) == s

    def test_rot35_on_zero(self):
        arr = GateArray(Q, 1, ((Gate((1,), builtin_gate("rot35", Q)),),))
        out = simulate(arr, StateVector.basis(1, "0", Q))
        assert out.amplitudes == mx([["3/5"], ["-4/5"]])

    def test_non_adjacent_cnot(self):
        # Control wire 1, target wire 3, bystander wire 2.
        arr = GateArray(Q, 3, ((Gate((1, 3), builtin_gate("cnot", Q)),),))
        out = simulate(arr, StateVector.basis(3, "101", Q))
        assert out.basis_bits() == "100"

    def test_swap_exchanges_wires(self):
        arr = GateArray(Q, 2, ((Gate((1, 2), builtin_gate("swap", Q)),),))
        out = simulate(arr, StateVector.basis(2, "10", Q))
        assert out.basis_bits() == "01"

    def test_invalid_array_refused(self):
        arr = GateArray(Q, 1, ((Gate((1,), mx([[1, 1], [0, 1]])),),))
        with pytest.raises(ValidationError):
            simulate(arr, StateVector.basis(1, "0", Q))

    def test_width_mismatch(self):
        arr = GateArray(Q, 2, ())
        with pytest.raises(ValidationError):
            simulate(arr, StateVector.basis(3, "000", Q))

    def test_tag_mismatch(self):
        arr = GateArray(Q, 1, ())
        with pytest.raises(TagMismatchError):
            simulate(arr, StateVector.basis(1, "0", B))

    def test_unit_norm_preserved(self):
        rng = random.Random(11)
        for _ in range(15):
            arr = rand_array(rng, 4, 3)
            s = StateVector.basis(4, format(rng.randrange(16), "04b"), Q)
            assert is_unit_column(simulate(arr, s).amplitudes)

    def test_levels_compose(self):
        rng = random.Random(5)
        for _ in range(10):
            arr = rand_array(rng, 4, 4)
            cut = rng.randrange(5)
            head = GateArray(Q, 4, arr.levels[:cut])
            tail = GateArray(Q, 4, arr.levels[cut:])
            s = StateVector.basis(4, format(rng.randrange(16), "04b"), Q)
            assert simulate(tail, simulate(head, s)) == simulate(arr, s)

    def test_permutation_arrays_map_basis_to_basis(self):
        rng = random.Random(23)
        names = ("not", "cnot", "swap", "toffoli", "fredkin")
        for _ in range(10):
            arr = rand_array(rng, 4, 3, names=names)
            s = StateVector.basis(4, format(rng.randrange(16), "04b"), Q)
            assert simulate(arr, s).basis_bits() is not None

    def test_matches_level_operator_route(self):
        # The simulator never builds 2^n operators; check it against the
        # embedding route on every basis input under three tags, and,
        # where rot35 exists, after a first level of it on every wire, so
        # that every later level acts on a state with full support.  The
        # builtin permutations are involutions, so a last level cycles the
        # basis states of two wires, which tells a gate from its inverse.
        # Two-term inputs on x and x | top, top being wire 1's bit, make
        # the support shrink as well as grow: over Q and QI their
        # amplitudes 3/5 and 4/5 fold into one term under the first
        # level's rot35 on wire 1.
        rng = random.Random(42)
        for tag in (Q, QI, B):
            two_terms = (1, 1) if tag is B else (Fraction(3, 5), Fraction(4, 5))
            for _ in range(12):
                width = rng.randrange(2, 5)
                arr = rand_array(rng, width, 3, tag)
                wires = rng.sample(range(1, width + 1), 2)
                cycle = Gate(wires, Matrix.from_perm(tag, [1, 2, 3, 0]))
                arr = GateArray(tag, width, arr.levels + ((cycle,),))
                arrays = [arr]
                if tag is not B:
                    rot = builtin_gate("rot35", tag)
                    spread = tuple(Gate((w,), rot) for w in range(1, width + 1))
                    arrays.append(GateArray(tag, width, (spread,) + arr.levels))
                top = 1 << (width - 1)
                states = [
                    StateVector.basis(width, format(x, f"0{width}b"), tag)
                    for x in range(1 << width)
                ]
                for x in range(top):
                    entries = [make_scalar(tag, 0)] * (1 << width)
                    for i, v in zip((x, x | top), two_terms):
                        entries[i] = make_scalar(tag, v)
                    column = Matrix.from_entries(tag, len(entries), 1, entries)
                    states.append(StateVector(width, column))
                for a in arrays:
                    ops = [level_operator(a, i) for i in range(1, len(a.levels) + 1)]
                    for s in states:
                        amps = s.amplitudes
                        for op in ops:
                            amps = mat_mul(op, amps)
                        assert simulate(a, s).amplitudes == amps

    def test_apply_gate_never_returns_zero(self):
        # An array followed by its inverse grows the support and shrinks it
        # back to the one input index; no step may hold a zero amplitude.
        rng = random.Random(8)
        for tag in (Q, QI, B):
            for _ in range(20):
                width = rng.randrange(1, 6)
                arr = rand_array(rng, width, 4, tag)
                gates = [g for level in arr.levels for g in level]
                undo = [
                    Gate(g.wires, conj_transpose(g.matrix)) for g in reversed(gates)
                ]
                x = rng.randrange(1 << width)
                amps = {x: make_scalar(tag, 1)}
                for gate in gates + undo:
                    amps = _apply_gate(amps, gate, width)
                    assert amps and not any(a.is_zero() for a in amps.values())
                assert amps == {x: make_scalar(tag, 1)}

    def test_level_operator_of_empty_level(self):
        arr = GateArray(Q, 3, ((),))
        assert level_operator(arr, 1) == identity(8, Q)

    def test_level_operator_range(self):
        with pytest.raises(ValidationError):
            level_operator(GateArray(Q, 1, ()), 1)


class TestWireMasks:
    def test_first_listed_wire_is_most_significant(self):
        assert wire_masks((1,), 3) == [0, 4]

    def test_non_monotone_list(self):
        assert wire_masks((3, 1), 3) == [0, 4, 1, 5]

    def test_no_wires(self):
        assert wire_masks((), 3) == [0]

    def test_with_complement_indexes_every_state_once(self):
        rng = random.Random(3)
        for width in range(1, 7):
            for _ in range(6):
                wires = rng.sample(range(1, width + 1), rng.randrange(width + 1))
                rest = [w for w in range(1, width + 1) if w not in wires]
                indices = [
                    a | b
                    for a in wire_masks(wires, width)
                    for b in wire_masks(rest, width)
                ]
                assert sorted(indices) == list(range(1 << width))


class TestStateVector:
    def test_basis_index_convention(self):
        # 110 sits on line 1 + 4 + 2 = 7 of the column.
        s = StateVector.basis(3, "110", Q)
        assert s.amplitudes == basis_vector(8, 7, Q)

    def test_basis_bits_round_trip(self):
        for x in range(8):
            bits = format(x, "03b")
            assert StateVector.basis(3, bits, Q).basis_bits() == bits

    def test_non_basis_state(self):
        s = StateVector(1, mx([["3/5"], ["-4/5"]]))
        assert s.basis_bits() is None

    def test_bad_label(self):
        with pytest.raises(ValidationError):
            StateVector.basis(3, "10", Q)
        with pytest.raises(ValidationError):
            StateVector.basis(3, "102", Q)

    def test_non_unit_rejected(self):
        with pytest.raises(ValidationError):
            StateVector(1, mx([[1], [1]]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            StateVector(2, basis_vector(3, 1, Q))


class TestAcceptanceProbability:
    def test_one_state(self):
        assert acceptance_probability(StateVector.basis(1, "1", Q), 1).is_one()

    def test_rot35_output(self):
        s = StateVector(1, mx([["3/5"], ["-4/5"]]))
        assert acceptance_probability(s, 1).re == Fraction(16, 25)

    def test_uniform(self):
        s = StateVector(2, mx([["1/2"], ["1/2"], ["1/2"], ["1/2"]]))
        assert acceptance_probability(s, 2).re == Fraction(1, 2)

    def test_full_mass(self):
        rng = random.Random(3)
        for _ in range(10):
            arr = rand_array(rng, 3, 2)
            s = simulate(arr, StateVector.basis(3, "010", Q))
            assert acceptance_probability(s, 8).is_one()


EXAMPLE = """\
width 3
level
gate toffoli 1 2 3
level
gate [[0 1][1 0]] 2
input basis 110
"""


class TestTextFormat:
    def test_parse_example(self):
        arr, state = parse_gate_array(EXAMPLE, Q)
        assert arr.width == 3
        assert arr.depth == 2
        assert arr.levels[0][0].wires == (1, 2, 3)
        assert arr.levels[1][0].matrix == builtin_gate("not", Q)
        assert state.basis_bits() == "110"
        out = simulate(arr, state)
        assert out.basis_bits() == "101"

    def test_render_uses_builtin_names(self):
        arr, state = parse_gate_array(EXAMPLE, Q)
        text = render_gate_array(arr, state)
        assert "gate toffoli 1 2 3" in text
        assert "gate not 2" in text
        assert "input basis 110" in text

    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(10):
            arr = rand_array(rng, 4, 3)
            again, state = parse_gate_array(render_gate_array(arr), Q)
            assert again == arr
            assert state is None

    def test_conjugated_gate_renders_inline(self):
        arr = GateArray(Q, 2, ((Gate((2, 1), builtin_gate("cnot", Q)),),))
        text = render_gate_array(arr)
        assert "[[" in text
        again, _ = parse_gate_array(text, Q)
        assert again == arr

    # Every builtin in every tag where it exists, written inline.
    @pytest.mark.parametrize(
        "name, tag",
        [
            (name, tag)
            for name in BUILTIN_GATE_NAMES
            for tag in Tag
            if name != "rot35" or tag in (Q, QI)
        ],
        ids=lambda v: v.value if isinstance(v, Tag) else v,
    )
    def test_inline_builtin_renders_by_name(self, name, tag):
        matrix = builtin_gate(name, tag)
        width = matrix.rows.bit_length() - 1
        wires = " ".join(str(w) for w in range(1, width + 1))
        inline = render_formula(Atom(matrix))
        text = f"width {width}\nlevel\ngate {inline} {wires}\n"
        arr, _ = parse_gate_array(text, tag)
        assert render_gate_array(arr) == f"width {width}\nlevel\ngate {name} {wires}\n"

    @pytest.mark.parametrize(
        "wires, matrix",
        [
            ((3, 1, 2), builtin_gate("toffoli", Q)),
            ((2, 3, 1), builtin_gate("fredkin", Q)),
            ((1,), identity(2, Q)),
            ((1, 2), identity(4, Q)),
            ((1, 2, 3), Matrix.from_perm(Q, [0, 1, 4, 5, 2, 3, 6, 7])),
            ((1,), mx([["3/5", "-4/5"], ["4/5", "3/5"]])),
        ],
        ids=["toffoli-312", "fredkin-231", "i2", "i4", "swap-i", "rot35-t"],
    )
    def test_other_matrix_renders_inline(self, wires, matrix):
        arr = GateArray(Q, 3, ((Gate(wires, matrix),),))
        gate_line = render_gate_array(arr).splitlines()[2]
        assert gate_line.startswith("gate [[")
        again, _ = parse_gate_array(render_gate_array(arr), Q)
        assert again == arr

    # A builtin-equal matrix whose tag is not the array's renders inline.
    @pytest.mark.parametrize(
        "name, matrix_tag, array_tag",
        [
            ("not", B, Q),
            ("cnot", Q, B),
            ("toffoli", Tag.NONNEG_RATIONAL, Q),
            ("fredkin", Q, QI),
            ("rot35", Q, QI),
            ("rot35", QI, Q),
            ("rot35", Q, Tag.NONNEG_RATIONAL),
            ("rot35", Q, B),
        ],
        ids=lambda v: v.value if isinstance(v, Tag) else v,
    )
    def test_other_tag_renders_inline(self, name, matrix_tag, array_tag):
        matrix = builtin_gate(name, matrix_tag)
        wires = tuple(range(1, matrix.rows.bit_length()))
        arr = GateArray(array_tag, 3, ((Gate(wires, matrix),),))
        assert render_gate_array(arr).splitlines()[2].startswith("gate [[")

    def test_amps_input(self):
        text = "width 1\nlevel\ngate rot35 1\ninput amps [[3/5][-4/5]]\n"
        arr, state = parse_gate_array(text, Q)
        assert state.amplitudes == mx([["3/5"], ["-4/5"]])
        rendered = render_gate_array(arr, state)
        assert "input amps [[3/5][-4/5]]" in rendered

    @pytest.mark.parametrize(
        "text",
        [
            "level\n",
            "width 0\n",
            "width 2\ngate not 1\n",
            "width 2\nlevel\ngate not\n",
            "width 2\nlevel\ngate not x\n",
            "width 2\nlevel\ngate hadamard 1\n",
            "width 2\nlevel\ngate [[1 0] 1\n",
            "width 2\nwidth 2\n",
            "width 2\nlevel extra\n",
            "width 2\nfoo\n",
            "width 2\ninput basis 0\n",
            "width 1\ninput basis 0\ninput basis 1\n",
            "width 1\ninput amps [[1][1]]\n",
            "width 1\ninput wave 0\n",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_gate_array(text, Q)

    def test_input_kind_error_names_its_line_once(self):
        with pytest.raises(ParseError) as exc:
            parse_gate_array("width 1\ninput wave 0\n", Q)
        assert str(exc.value) == "line 2: input kind must be 'basis' or 'amps'"

    def test_boolean_array(self):
        text = "width 2\nlevel\ngate cnot 1 2\ninput basis 11\n"
        arr, state = parse_gate_array(text, B)
        out = simulate(arr, state)
        assert out.basis_bits() == "10"
