"""Formula AST, grammar, metrics, OSL checking, and the exact evaluator."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import distinct_nodes, multiplied_out, nested, rand_array, unshared

from sft_tensor.errors import (
    CapExceededError,
    ParseError,
    TagMismatchError,
    ValidationError,
)
from sft_tensor.formula import (
    Atom,
    OslReport,
    Prod,
    Sum,
    Tensor,
    balanced_prod,
    balanced_tensor,
    check_osl,
    diameter,
    evaluate,
    is_sum_free,
    parse_formula,
    render_formula,
    size,
    trivial_formula,
)
from sft_tensor import formula as formula_module
from sft_tensor.forward_compiler import compile_array_to_formula, input_vector_formula
from sft_tensor.backward_compiler import (
    formula_to_array,
    pad_formula,
    pad_formula_with_denominators,
    transpose_formula,
)
from sft_tensor.circuit import (
    Gate,
    GateArray,
    StateVector,
    _run_levels,
    builtin_gate,
    simulate,
)
from sft_tensor.sft import SftInstance, boolean_fastpath, decide_sft
from sft_tensor.linalg import (
    Matrix,
    basis_vector,
    conj_transpose,
    identity,
    is_unit_column,
    kronecker,
    mat_add,
    mat_mul,
    zero_matrix,
)
from sft_tensor.semiring import Tag, make_scalar

Q = Tag.RATIONAL
B = Tag.BOOLEAN


def mx(rows, tag=Q) -> Matrix:
    return Matrix.from_rows(
        tag, [[make_scalar(tag, Fraction(v)) for v in row] for row in rows]
    )


def perm_gate(n, a, b, tag=Q) -> Matrix:
    p = list(range(n))
    p[a - 1], p[b - 1] = p[b - 1], p[a - 1]
    return Matrix.from_perm(tag, p)


CNOT = perm_gate(4, 3, 4)
TOFFOLI = perm_gate(8, 7, 8)


def depth(f):
    if isinstance(f, Atom):
        return 0
    return 1 + max(depth(f.left), depth(f.right))


class TestOrders:
    def test_prod_chains_inner_dims(self):
        f = Prod(Atom(mx([[1, 2, 3], [4, 5, 6]])), Atom(mx([[1], [0], [2]])))
        assert f.order == (2, 1)
        assert f.is_valid

    def test_sum_requires_equal_orders(self):
        f = Sum(Atom(identity(2, Q)), Atom(mx([[1, 2, 3], [4, 5, 6]])))
        assert f.order is None
        assert not f.is_valid

    def test_tensor_multiplies_orders(self):
        f = Tensor(Atom(identity(2, Q)), Atom(mx([[1], [2], [3]])))
        assert f.order == (6, 2)

    def test_prod_mismatch_is_invalid(self):
        f = Prod(Atom(identity(2, Q)), Atom(identity(3, Q)))
        assert f.order is None

    def test_invalidity_propagates(self):
        bad = Sum(Atom(identity(2, Q)), Atom(identity(3, Q)))
        assert Tensor(bad, Atom(identity(2, Q))).order is None

    def test_tag_mixing_raises(self):
        with pytest.raises(TagMismatchError):
            Sum(Atom(identity(2, Q)), Atom(identity(2, B)))


class TestParse:
    def test_boolean_digit_runs(self):
        f = parse_formula("[[001][101]]", B)
        assert isinstance(f, Atom)
        assert f.matrix == mx([[0, 0, 1], [1, 0, 1]], B)

    def test_boolean_spaced_equals_packed(self):
        assert parse_formula("[[0 0 1][1 0 1]]", B) == parse_formula(
            "[[001][101]]", B
        )

    def test_prod_example(self):
        f = parse_formula("([[0 1][1 0]]*[[1][0]])", Q)
        assert isinstance(f, Prod)
        assert f.order == (2, 1)

    def test_whitespace_insignificant(self):
        a = parse_formula("( [[ 1 0 ][ 0 1 ]] # [[1][0]] )", Q)
        b = parse_formula("([[1 0][0 1]]#[[1][0]])", Q)
        assert a == b

    def test_rational_tokens(self):
        f = parse_formula("[[3/5 -4/5]]", Q)
        assert f.matrix.at(0, 1).re == Fraction(-4, 5)

    def test_gaussian_tokens(self):
        f = parse_formula("[[1/2-1/2i 3i]]", Tag.GAUSSIAN_RATIONAL)
        assert f.matrix.at(0, 0).im == Fraction(-1, 2)
        assert f.matrix.at(0, 1).im == 3

    @pytest.mark.parametrize(
        "text",
        ["((", "", "[[1 2][3]]", "[]", "[[]]", "([[1]]*)", "([[1]]%[[1]])", "[[1]] x"],
    )
    def test_strict_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_formula(text, Q)

    def test_error_positions(self):
        text = "([[1]]%[[1]])"
        with pytest.raises(ParseError) as exc:
            parse_formula(text, Q)
        assert exc.value.position == text.index("%")

        with pytest.raises(ParseError) as exc:
            parse_formula("[[1/0]]", Q)
        assert exc.value.position == 2

        with pytest.raises(ParseError) as exc:
            parse_formula("[[012]]", B)
        assert exc.value.position == 4

    def test_strict_order_mismatch_is_validation_error(self):
        with pytest.raises(ValidationError):
            parse_formula("([[1 0][0 1]]+[[1]])", Q)

    def test_order_mismatch_names_first_offender_in_pre_order(self):
        # Both operands of the sum are invalid; the left one is named.
        bad = "([[1 0]]*[[1 0]])"
        with pytest.raises(ValidationError, match="mismatch at /R/L$"):
            parse_formula(f"([[1]]#({bad}+{bad}))", Q)

    def test_paper_mode_malformed_is_trivial_zero(self):
        f = parse_formula("((", B, mode="paper")
        assert f == trivial_formula(B)
        assert evaluate(f) == zero_matrix(1, 1, B)

    def test_paper_mode_order_mismatch_is_trivial_zero(self):
        f = parse_formula("([[1 0][0 1]]+[[1]])", Q, mode="paper")
        assert f == trivial_formula(Q)

    def test_paper_mode_passes_valid_text_through(self):
        text = "([[0 1][1 0]]*[[1][0]])"
        assert parse_formula(text, Q, mode="paper") == parse_formula(text, Q)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            parse_formula("[[1]]", Q, mode="lenient")


# The first error of each malformed text: every message the grammar can
# raise, packed Boolean runs, Gaussian tokens, a bad scalar before a later
# structural error in the same row, and characters that look like
# whitespace but are not in the grammar's " \t\r\n".
PARSE_ERRORS = [
    ("[[1]] x", "q", "unexpected trailing input", 6),
    ("[[1]][[1]]", "q", "unexpected trailing input", 5),
    ("[[1]]\x0c", "q", "unexpected trailing input", 5),
    ("([[1]] [[1]])", "q", "expected '+', '*' or '#'", 7),
    ("([[1]]%[[1]])", "q", "expected '+', '*' or '#'", 6),
    ("([[1]]", "q", "expected '+', '*' or '#'", 6),
    ("([[1]]*[[1]]", "q", "expected ')'", 12),
    ("([[1]]*[[1]] [[1]])", "q", "expected ')'", 13),
    ("([[1]]*[[1]]]", "q", "expected ')'", 12),
    ("([[1]]#([[1]]+[[1]]]))", "q", "expected ')'", 19),
    ("", "q", "unexpected end of input", 0),
    ("  \n\t", "q", "unexpected end of input", 4),
    ("(", "q", "unexpected end of input", 1),
    ("([[1]]*", "q", "unexpected end of input", 7),
    ("x", "q", "expected '(' or '['", 0),
    ("(\xa0[[1]]*[[1]])", "q", "expected '(' or '['", 1),
    ("([[1]]*)", "q", "expected '(' or '['", 7),
    (")", "q", "expected '(' or '['", 0),
    ("[", "q", "unterminated atom", 1),
    ("[[1]", "q", "unterminated atom", 4),
    ("[[1] x]", "q", "expected '[' or ']' inside atom", 5),
    ("[\x0b[1]]", "q", "expected '[' or ']' inside atom", 1),
    ("[[1] (]", "q", "expected '[' or ']' inside atom", 5),
    ("[]", "q", "atom has no rows", 0),
    ("[ \n ]", "q", "atom has no rows", 0),
    ("[[1 2][3]]", "q", "atom rows have unequal lengths", 0),
    ("[[1", "q", "unterminated row", 3),
    ("[[1 2 ", "q", "unterminated row", 6),
    ("[[1 [2]]", "q", "unexpected '[' inside row", 4),
    ("[[1 (2]]", "q", "unexpected '(' inside row", 4),
    ("[[1 )]]", "q", "unexpected ')' inside row", 4),
    ("[[]]", "q", "row has no entries", 1),
    ("[[1][ ]]", "q", "row has no entries", 4),
    ("[[1 x (]]", "q", "invalid rational scalar 'x'", 4),
    ("([[1]]*[[1 x]] (", "q", "invalid rational scalar 'x'", 11),
    ("[[x", "q", "invalid rational scalar 'x'", 2),
    ("[[1/0]]", "q", "zero denominator in '1/0'", 2),
    ("(([[1]]+[[1]])#[[1/0]])", "q", "zero denominator in '1/0'", 17),
    ("[[1.5]]", "q", "invalid rational scalar '1.5'", 2),
    ("[[3/-4]]", "q", "invalid rational scalar '3/-4'", 2),
    ("[[1i]]", "q", "invalid rational scalar '1i'", 2),
    ("[[1 1\x0b0]]", "q", "invalid rational scalar '1\\x0b0'", 4),
    ("[[1\xa00]]", "q", "invalid rational scalar '1\\xa00'", 2),
    ("[[-1]]", "qplus", "negative scalar '-1' not allowed in this semiring", 2),
    ("[[2]]", "bool", "invalid Boolean scalar '2'", 2),
    ("[[012]]", "bool", "invalid Boolean scalar '2'", 4),
    ("[[0 1][0120]]", "bool", "invalid Boolean scalar '2'", 9),
    ("[[01 1x0]]", "bool", "invalid Boolean scalar 'x'", 6),
    ("[[1+i]]", "qi", "invalid Gaussian-rational scalar '1+i'", 2),
    ("[[1/2+1/0i]]", "qi", "zero denominator in '1/0'", 2),
    ("[[1/2-1/2i 3j]]", "qi", "invalid Gaussian-rational scalar '3j'", 11),
    ("[[" + "1" * 5000 + "]]", "q", "integer of 5000 digits is too long", 2),
    ("([[1]]*[[-" + "7" * 4400 + "/2]])", "q", "integer of 4400 digits is too long", 9),
    ("[[1/" + "3" * 4400 + "]]", "qplus", "integer of 4400 digits is too long", 2),
    ("[[0 1/2+" + "5" * 4400 + "i]]", "qi", "integer of 4400 digits is too long", 4),
    # An atom text that repeats before the fault is read once and shared.
    ("([[0 1][1 0]]*([[0 1][1 0]]*[[0 1][1 x]]))", "q", "invalid rational scalar 'x'", 37),
    ("([[1]]*([[1]]*[[1]]]))", "q", "expected ')'", 19),
    ("(([[1 2]]#[[1 2]])*[[1 2][3]])", "q", "atom rows have unequal lengths", 19),
    ("([[01][10]]*([[01][10]]*[[01][12]]))", "bool", "invalid Boolean scalar '2'", 31),
    ("([[1]]*([[1]]*", "q", "unexpected end of input", 14),
    ("([[1]]*[[1]][[1]])", "q", "expected ')'", 12),
    # Atoms closed with whitespace ('] ]') end before the first ']]'.
    ("([[1 0] ]*[[1 0] ] x)", "q", "expected ')'", 19),
    ("([[1] ]*([[1] ]*[[1] ]]))", "q", "expected ')'", 22),
    ("([[1]]*([[1] ]*[[1]] ]))", "q", "expected ')'", 21),
    ("([[0 1][1 0] ]*[[0 1][1 0] ][[1]])", "bool", "expected ')'", 28),
    ("([[1] ]*[[1] x])", "q", "expected '[' or ']' inside atom", 13),
    ("([[1]]*[[1] ]", "q", "expected ')'", 13),
    ("([[1] ]*[[1]]x)", "q", "expected ')'", 13),
]


class TestParseErrorTable:
    @pytest.mark.parametrize("text, semiring, message, offset", PARSE_ERRORS)
    def test_first_error(self, text, semiring, message, offset):
        with pytest.raises(ParseError) as exc:
            parse_formula(text, Tag(semiring))
        assert str(exc.value) == f"{message} (at offset {offset})"
        assert exc.value.position == offset


class TestAtomInterning:
    """Equal atom texts in one parse are read once and share one Atom."""

    NOT = "[[0 1][1 0]]"

    def test_equal_texts_share_one_atom(self):
        f = parse_formula(f"({self.NOT}*({self.NOT}*[[0][1]]))", Q)
        assert f.left is f.right.left

    @pytest.mark.parametrize(
        "text, tag",
        [
            ("([[0 1][1 0]]*[[0 1] [1 0]])", Q),
            ("([[0 1][1 0]]*[[0 1][1 0] ])", Q),
            ("([[01][10]]*[[0 1][1 0]])", B),
            ("([[1/2]]*[[2/4]])", Q),
        ],
    )
    def test_different_texts_do_not(self, text, tag):
        f = parse_formula(text, tag)
        assert f.left is not f.right
        assert f.left == f.right

    @pytest.mark.parametrize(
        "text",
        [
            "(([[1] ]*[[1]])*([[1] ]*[[1]]))",
            "(([[0 1][1 0] ]#[[1 0][0 1]])*([[0 1][1 0] ]#[[1 0][0 1]]))",
            "([[1 0][0 1] ]*([[1 0][0 1]]*([[1 0][0 1] ]*[[1][0]])))",
        ],
    )
    def test_atoms_closed_with_whitespace_read_as_tight_ones(self, text):
        tight = parse_formula(text.replace("] ]", "]]"), Q)
        assert render_formula(parse_formula(text, Q)) == render_formula(tight)

    def test_each_parse_reads_its_own_atoms(self):
        assert parse_formula(self.NOT, Q) is not parse_formula(self.NOT, Q)

    def test_shared_non_osl_atom_reported_at_every_occurrence(self):
        f = parse_formula("(([[1 1][0 1]]*[[1 1][0 1]])*([[1 1][0 1]]*[[1][0]]))", Q)
        assert f.left.left is f.left.right is f.right.left
        report = check_osl(f)
        assert not report.inputs_ok
        assert report.offending_paths == ("/L/L", "/L/R", "/R/L")

    @pytest.mark.parametrize("column", [False, True])
    def test_cap_on_shared_atom_names_post_order_first(self, column):
        # The shared 4x4 atom first sits at /L/R (after [[1]] at /L/L).
        cnot = "[[1 0 0 0][0 1 0 0][0 0 0 1][0 0 1 0]]"
        tail = f"({cnot}*[[1][0][0][0]])" if column else cnot
        f = parse_formula(f"(([[1]]#{cnot})*{tail})", Q)
        shared = f.right.left if column else f.right
        assert f.left.right is shared
        with pytest.raises(CapExceededError) as exc:
            evaluate(f, entry_cap=8)
        assert exc.value.path == "/L/R"


def _cap_error(f, cap):
    with pytest.raises(CapExceededError) as exc:
        evaluate(f, entry_cap=cap)
    return exc.value.path, exc.value.rows, exc.value.cols


class TestSubtreeSharing:
    """Equal subtrees in one parse are one node; passes keyed on node
    identity work once per distinct subtree, and every report reads as
    for the same formula written as a tree."""

    NOT = "[[0 1][1 0]]"
    ID = "[[1 0][0 1]]"
    BAD = "[[1 1][0 1]]"
    CNOT = "[[1 0 0 0][0 1 0 0][0 0 0 1][0 0 1 0]]"

    def test_equal_subtrees_share_one_node(self):
        f = parse_formula(f"(({self.NOT}*{self.ID})#({self.NOT}*{self.ID}))", Q)
        assert f.left is f.right

    @pytest.mark.parametrize(
        "text",
        [
            f"(({NOT}*{ID})#({NOT}#{ID}))",
            f"(({NOT}*{ID})#({ID}*{NOT}))",
            f"(({NOT}*{ID})#({NOT}+{ID}))",
        ],
    )
    def test_different_subtrees_do_not(self, text):
        f = parse_formula(text, Q)
        assert f.left is not f.right
        assert f.left.left is f.right.left or f.left.left is f.right.right

    @pytest.mark.parametrize("tag", [Q, B, Tag.GAUSSIAN_RATIONAL])
    @pytest.mark.parametrize("width", [3, 6])
    def test_compiled_texts_round_trip(self, tag, width):
        rng = random.Random(width)
        array = rand_array(rng, width, depth=6, tag=tag)
        text = render_formula(
            Prod(compile_array_to_formula(array), input_vector_formula("0" * width, tag))
        )
        f = parse_formula(text, tag)
        assert render_formula(f) == text
        assert len(distinct_nodes(f)) < size(f)

    @pytest.mark.parametrize("column", [False, True])
    def test_cap_on_shared_binary_subtree_names_post_order_first(self, column):
        # The shared 8x8 node first sits at /L/R (after [[1]] at /L/L),
        # and its 2x2 and 4x4 factors pass a cap of 32.
        shared = f"({self.ID}#{self.CNOT})"
        col8 = "[[1][0][0][0][0][0][0][0]]"
        tail = f"({shared}*{col8})" if column else shared
        f = parse_formula(f"(([[1]]#{shared})*{tail})", Q)
        assert f.left.right is (f.right.left if column else f.right)
        assert _cap_error(f, 32) == ("/L/R", 8, 8)
        assert _cap_error(unshared(f), 32) == ("/L/R", 8, 8)

    def test_shared_non_osl_subtree_reported_at_every_occurrence(self):
        shared = f"({self.BAD}*({self.NOT}+{self.ID}))"
        f = parse_formula(
            f"(({shared}#{shared})*(({shared}*[[1][0]])#[[0][1]]))", Q
        )
        assert f.left.left is f.left.right is f.right.left.left
        report = check_osl(f)
        assert report.offending_paths == (
            "/L/L/L", "/L/L/R", "/L/R/L", "/L/R/R", "/R/L/L/L", "/R/L/L/R"
        )
        assert not report.is_sum_free and not report.inputs_ok
        assert report == check_osl(unshared(f))

    def test_padding_counts_one_delta_per_occurrence(self):
        shared = f"({self.NOT}*[[3/5][4/5]])"
        f = parse_formula(f"({shared}#{shared})", Q)
        assert f.left is f.right
        _, _, delta = pad_formula_with_denominators(f, 1)
        assert delta == Fraction(5, 8) ** 2
        assert delta == pad_formula_with_denominators(unshared(f), 1)[2]

    def test_osl_atom_checked_once_per_distinct_atom(self, monkeypatch):
        rng = random.Random(5)
        f = parse_formula(
            render_formula(
                Prod(
                    compile_array_to_formula(rand_array(rng, 6, 6, tag=B)),
                    input_vector_formula("010101", B),
                )
            ),
            B,
        )
        checked = []
        monkeypatch.setattr(
            formula_module, "_osl_atom_ok", lambda m: checked.append(m) or True
        )
        assert check_osl(f).is_osl
        atoms = [n for n in distinct_nodes(f) if isinstance(n, Atom)]
        assert len(checked) == len(atoms) < size(f) // 2
        # Cleanliness is memoised on the nodes: later checks of f, by
        # check_osl itself, padding or the fast path, test no atom again.
        assert check_osl(f).is_osl
        pad_formula(f)
        boolean_fastpath(SftInstance(f, k=1))
        assert len(checked) == len(atoms)

    def test_plan_checks_each_distinct_node_once(self, monkeypatch):
        rng = random.Random(6)
        f = parse_formula(
            render_formula(
                Prod(
                    compile_array_to_formula(rand_array(rng, 6, 6)),
                    input_vector_formula("011011", Q),
                )
            ),
            Q,
        )
        checked = []
        real = formula_module._checked_order
        monkeypatch.setattr(
            formula_module,
            "_checked_order",
            lambda node, cap, pos: checked.append(node) or real(node, cap, pos),
        )
        evaluate(f)
        assert sorted(map(id, checked)) == sorted(map(id, distinct_nodes(f)))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_shared_and_tree_agree(self, data):
        tag = data.draw(st.sampled_from(list(Tag)))
        n = data.draw(st.integers(2, 6))
        cols = data.draw(st.sampled_from([1, n]))
        f = parse_formula(
            render_formula(rand_mixed(data, tag, n, cols, max_depth=4)), tag
        )
        tree = unshared(f)
        assert check_osl(f) == check_osl(tree)
        cap = data.draw(st.integers(1, 64))
        try:
            value = evaluate(tree, entry_cap=cap)
        except CapExceededError:
            assert _cap_error(f, cap) == _cap_error(tree, cap)
        else:
            assert evaluate(f, entry_cap=cap) == value


SIDES =pytest.mark.parametrize("side", ["left", "right"])


def deep_chain(side, tag, count=10_000, tail="[[0][1]]"):
    """count NOTs, then tail, as one product nested to the given side."""
    return parse_formula(nested(side, ["[[0 1][1 0]]"] * count + [tail]), tag)


class TestDeepChains:
    DEPTH = 10_000
    NOT = "[[0 1][1 0]]"

    def spine(self, f, side):
        depth = 0
        while isinstance(f, Prod):
            f = getattr(f, side)
            depth += 1
        return depth

    def test_left_nested(self):
        d = self.DEPTH
        text = "(" * d + self.NOT + ("*" + self.NOT + ")") * (d - 1) + "*[[0][1]])"
        f = parse_formula(text, B)
        assert f.order == (2, 1)
        assert f.tag is B
        assert self.spine(f, "left") == d

    def test_right_nested(self):
        d = self.DEPTH
        text = ("(" + self.NOT + "*") * d + "[[0][1]]" + ")" * d
        f = parse_formula(text, Q)
        assert f.order == (2, 1)
        assert f.tag is Q
        assert self.spine(f, "right") == d

    # Every pass over both chains: d NOTs (d even) on e_2 is e_2.

    @SIDES
    def test_structural_passes(self, side):
        f = deep_chain(side, B)
        assert check_osl(f) == OslReport(True, True, True, ())
        assert is_sum_free(f)
        assert (size(f), diameter(f)) == (2 * self.DEPTH + 1, 2)
        assert render_formula(f) == nested(side, [self.NOT] * self.DEPTH + ["[[0][1]]"])

    @SIDES
    def test_shared_and_tree_agree(self, side):
        f = deep_chain(side, Q)
        tree = unshared(f)
        assert render_formula(tree) == render_formula(f)
        assert tree == f and f == tree
        assert hash(tree) == hash(f)
        assert len(repr(f)) < 200 and len(repr(tree)) < 200
        assert (size(tree), diameter(tree)) == (size(f), diameter(f))
        assert check_osl(tree) == check_osl(f)
        assert evaluate(tree) == evaluate(f)

    @SIDES
    def test_value_matches_shallow(self, side):
        f = deep_chain(side, Q)
        shallow = evaluate(parse_formula("[[0][1]]", Q))
        assert evaluate(f) == shallow
        assert multiplied_out(f, 1 << 24) == shallow
        square = deep_chain(side, Q, count=self.DEPTH - 1, tail=self.NOT)
        assert evaluate(square) == identity(2, Q)

    @SIDES
    def test_applied_operators(self, side):
        # Z is no permutation, so these subtrees are applied, never built.
        d, z = self.DEPTH, "[[1 0][0 -1]]"
        cases = [
            (nested(side, [z] * d + ["[[0][1]]"]), [[0], [1]]),
            ("(%s*[[0][1]])" % nested(side, [z] * d, "+"), [[0], [-d]]),
            ("(%s*[[0][1]])" % nested(side, [z] + ["[[1]]"] * d, "#"), [[0], [-1]]),
        ]
        for text, value in cases:
            assert evaluate(parse_formula(text, Q)) == mx(value)

    @SIDES
    def test_backward_compiler_passes(self, side):
        f = deep_chain(side, B)
        array, state = formula_to_array(f)
        assert (array.width, len(array.levels)) == (1, self.DEPTH)
        assert simulate(array, state).amplitudes == evaluate(f)
        assert evaluate(transpose_formula(f)) == mx([[0, 1]], B)
        inst = SftInstance(f, k=1)
        again = SftInstance(deep_chain(side, B), k=1)
        assert inst == again and hash(inst) == hash(again)
        assert boolean_fastpath(inst) == decide_sft(inst)
        assert decide_sft(inst).accept
        g, k_eff, delta = pad_formula_with_denominators(deep_chain(side, Q), 1)
        assert (evaluate(g), k_eff, delta) == (mx([[0], [1]]), 1, 1)

    @SIDES
    def test_first_invalid_path(self, side):
        d, i3 = self.DEPTH, "[[1 0 0][0 1 0][0 0 1]]"
        if side == "left":
            factors = [i3] + [self.NOT] * (d - 1) + ["[[0][1]]"]
        else:
            factors = [self.NOT] * d + ["[[1][0][0]]"]
        with pytest.raises(ValidationError) as exc:
            parse_formula(nested(side, factors), Q)
        assert str(exc.value).endswith(" at " + ("/" + side[0].upper()) * (d - 1))

    @SIDES
    def test_cap_names_post_order_first(self, side):
        # 13 NOTs make the deepest subformula whose order passes 2^24.
        d = self.DEPTH
        f = parse_formula(nested(side, [self.NOT] * d, "#"), B)
        with pytest.raises(CapExceededError) as exc:
            evaluate(f)
        assert exc.value.path == ("/" + side[0].upper()) * (d - 13)
        assert (exc.value.rows, exc.value.cols) == (8192, 8192)


class TestRender:
    def test_identity_atom(self):
        assert render_formula(Atom(identity(2, Q))) == "[[1 0][0 1]]"

    def test_tensor_of_identities(self):
        f = Tensor(Atom(identity(2, Q)), Atom(identity(2, Q)))
        assert render_formula(f) == "([[1 0][0 1]]#[[1 0][0 1]])"

    def test_boolean_rendered_spaced(self):
        f = parse_formula("[[001][101]]", B)
        assert render_formula(f) == "[[0 0 1][1 0 1]]"

    def test_shared_atoms_render_like_copies(self):
        # render_formula renders each distinct matrix once; a formula that
        # reuses one Atom, or one matrix under several Atoms, must give the
        # same bytes as the same tree built from separate copies.
        def rot():
            return mx([["3/5", "4/5"], ["-4/5", "3/5"]])

        def tree(rot_atom, id_atom, col_atom):
            def chain():
                return balanced_tensor([id_atom(), rot_atom(), id_atom(), rot_atom()])

            column = balanced_tensor([col_atom() for _ in range(4)])
            return Prod(Prod(chain(), chain()), column)

        shared_rot, shared_id = Atom(rot()), Atom(identity(2, Q))
        shared_col = basis_vector(2, 1, Q)
        shared = tree(lambda: shared_rot, lambda: shared_id, lambda: Atom(shared_col))
        copies = tree(
            lambda: Atom(rot()),
            lambda: Atom(identity(2, Q)),
            lambda: Atom(basis_vector(2, 1, Q)),
        )
        assert render_formula(shared) == render_formula(copies)
        assert parse_formula(render_formula(shared), Q) == copies

    def test_round_trip_frozen(self):
        text = "(([[0 1][1 0]]*[[1][0]])#[[1/2][1/2]])"
        f = parse_formula(text, Q)
        assert render_formula(f) == text
        assert parse_formula(render_formula(f), Q) == f


class TestMetrics:
    def test_atomic(self):
        f = Atom(mx([[1, 2], [3, 4], [5, 6]]))
        assert size(f) == 1
        assert diameter(f) == 3

    def test_tensor_of_two_square_atoms(self):
        f = Tensor(Atom(identity(2, Q)), Atom(identity(2, Q)))
        assert size(f) == 3
        assert diameter(f) == 4

    def test_balanced_tensor_tree_attains_bound(self):
        # Depth-3 full binary tree over 2x2 atoms: diameter 2^(2^3).
        leaves = [Atom(identity(2, Q)) for _ in range(8)]
        f = balanced_tensor(leaves)
        assert depth(f) == 3
        assert diameter(f) == 2 ** (2 ** 3) == 256

    def test_shared_node_counts_at_every_occurrence(self):
        # 60 squarings of one atom: 2^61 - 1 nodes written as a tree, 61
        # distinct nodes, each sized once.  Equality compares each pair of
        # distinct nodes once, so two such DAGs compare at once.
        def squarings(atom):
            f = Atom(mx(atom))
            for _ in range(60):
                f = Prod(f, f)
            return f

        f = squarings([[1, 2], [3, 4]])
        assert size(f) == 2**61 - 1
        assert diameter(f) == 2
        assert f == squarings([[1, 2], [3, 4]])
        assert f != squarings([[1, 2], [3, 5]])

    def test_diameter_requires_valid(self):
        with pytest.raises(ValidationError):
            diameter(Sum(Atom(identity(2, Q)), Atom(identity(3, Q))))

    def test_sum_free(self):
        a = Atom(identity(2, Q))
        assert is_sum_free(a)
        assert is_sum_free(Prod(Tensor(a, a), Atom(identity(4, Q))))
        assert not is_sum_free(Sum(a, a))
        assert not is_sum_free(Tensor(a, Sum(a, a)))


class TestCheckOsl:
    def test_gate_on_basis_vector_is_osl(self):
        f = Prod(Atom(CNOT), Atom(basis_vector(4, 1, Q)))
        report = check_osl(f)
        assert report.is_osl
        assert report.offending_paths == ()

    def test_non_orthogonal_input(self):
        f = Prod(Atom(mx([[1, 1], [0, 1]])), Atom(basis_vector(2, 1, Q)))
        report = check_osl(f)
        assert not report.is_osl
        assert report.inputs_ok is False
        assert report.output_is_column is True
        assert report.offending_paths == ("/L",)

    def test_square_output_is_not_osl(self):
        report = check_osl(Atom(identity(2, Q)))
        assert not report.is_osl
        assert report.inputs_ok is True
        assert report.output_is_column is False

    def test_sum_node_reported(self):
        v = Atom(basis_vector(2, 1, Q))
        report = check_osl(Sum(v, v))
        assert not report.is_sum_free
        assert report.offending_paths == ("",)

    def test_multiple_offenders_sorted(self):
        bad = Atom(mx([[1, 1], [0, 1]]))
        f = Prod(bad, Sum(Atom(basis_vector(2, 1, Q)), Atom(basis_vector(2, 2, Q))))
        report = check_osl(f)
        assert report.offending_paths == ("/L", "/R")

    def test_nested_offender_paths_read_from_root(self):
        v = Atom(basis_vector(2, 1, Q))
        bad = Atom(mx([[1, 1], [0, 1]]))
        i2 = Atom(identity(2, Q))
        f = Prod(Prod(i2, bad), Prod(i2, Sum(v, v)))
        assert check_osl(f).offending_paths == ("/L/R", "/R/R")

    def test_wide_atom_is_not_an_osl_input(self):
        f = Prod(Atom(mx([[1, 0, 0]])), Atom(basis_vector(3, 1, Q)))
        report = check_osl(f)
        assert not report.inputs_ok
        assert report.offending_paths == ("/L",)


    def test_raise_unless_osl(self):
        check_osl(Prod(Atom(CNOT), Atom(basis_vector(4, 3, Q)))).raise_unless_osl()
        bad = Prod(Atom(mx([[1, 1], [0, 1]])), Atom(basis_vector(2, 1, Q)))
        with pytest.raises(ValidationError, match=r"\['/L'\]"):
            check_osl(bad).raise_unless_osl()


class TestEvaluate:
    def test_cnot_on_basis(self):
        f = Prod(Atom(CNOT), Atom(basis_vector(4, 3, Q)))
        assert evaluate(f) == basis_vector(4, 4, Q)

    def test_toffoli_on_basis(self):
        f = Prod(Atom(TOFFOLI), Atom(basis_vector(8, 7, Q)))
        assert evaluate(f) == basis_vector(8, 8, Q)

    def test_tensor_identity_fixes_vector(self):
        v = Atom(mx([["3/5"], [0], [0], ["-4/5"]]))
        f = Prod(Tensor(Atom(identity(2, Q)), Atom(identity(2, Q))), v)
        assert evaluate(f) == v.matrix

    def test_invalid_strict_raises(self):
        bad = Sum(Atom(identity(2, Q)), Atom(identity(3, Q)))
        with pytest.raises(ValidationError):
            evaluate(bad)

    def test_invalid_paper_mode_is_zero(self):
        bad = Sum(Atom(identity(2, Q)), Atom(identity(3, Q)))
        assert evaluate(bad, mode="paper") == zero_matrix(1, 1, Q)

    def test_cap_on_inner_node(self):
        i4 = Atom(identity(4, Q))
        f = Tensor(Tensor(i4, i4), i4)
        with pytest.raises(CapExceededError) as exc:
            evaluate(f, entry_cap=100)
        assert exc.value.path == "/L"
        assert (exc.value.rows, exc.value.cols) == (16, 16)
        assert exc.value.cap == 100

    def test_cap_path_reads_from_root(self):
        i4 = Atom(identity(4, Q))
        f = Tensor(Atom(identity(1, Q)), Tensor(Tensor(i4, i4), i4))
        with pytest.raises(CapExceededError) as exc:
            evaluate(f, entry_cap=100)
        assert exc.value.path == "/R/L"

    def test_cap_on_atom(self):
        with pytest.raises(CapExceededError) as exc:
            evaluate(Atom(identity(16, Q)), entry_cap=100)
        assert exc.value.path == ""

    def test_cap_default_allows_moderate_sizes(self):
        f = Tensor(Atom(identity(32, Q)), Atom(identity(32, Q)))
        assert evaluate(f) == identity(1024, Q)


class TestColumnEvaluation:
    """Column-valued formulas are applied to the vector; a shared product
    or sum inside one is multiplied out only once it has been applied as
    often as it has columns (TestOneWalk).  The cap still sees every
    subformula's order."""

    def test_shared_subtree(self):
        rot = Atom(mx([["3/5", "-4/5"], ["4/5", "3/5"]]))
        swap = Atom(Matrix.from_perm(Q, [0, 2, 1, 3]))
        g = Prod(Tensor(rot, Atom(identity(2, Q))), swap)
        v = Atom(basis_vector(4, 2, Q))
        f = Prod(g, Prod(g, v))
        assert evaluate(f) == mat_mul(
            evaluate(g), mat_mul(evaluate(g), v.matrix)
        )

    def test_cap_on_square_product_inside_column(self):
        # The 12x12 outer product is over the cap; its factors are not.
        outer = Prod(Atom(mx([[1]] * 12)), Atom(mx([[1] * 12])))
        f = Prod(outer, Atom(basis_vector(12, 1, Q)))
        with pytest.raises(CapExceededError) as exc:
            evaluate(f, entry_cap=100)
        assert exc.value.path == "/L"
        assert (exc.value.rows, exc.value.cols) == (12, 12)
        assert exc.value.cap == 100

    def test_cap_on_tensor_inside_column(self):
        rot = Atom(mx([["3/5", "-4/5", 0, 0], ["4/5", "3/5", 0, 0],
                       [0, 0, 1, 0], [0, 0, 0, 1]]))
        op = Tensor(Atom(identity(4, Q)), rot)
        f = Prod(Atom(identity(16, Q)), Prod(op, Atom(basis_vector(16, 3, Q))))
        with pytest.raises(CapExceededError) as exc:
            evaluate(f, entry_cap=200)
        # /L (the 16x16 atom) comes first in post-order.
        assert exc.value.path == "/L"
        assert (exc.value.rows, exc.value.cols) == (16, 16)
        with pytest.raises(CapExceededError) as exc:
            evaluate(Prod(op, Atom(basis_vector(16, 3, Q))), entry_cap=200)
        assert exc.value.path == "/L"
        assert (exc.value.rows, exc.value.cols, exc.value.cap) == (16, 16, 200)

    def test_cap_on_column_root(self):
        f = Tensor(Atom(basis_vector(10, 1, Q)), Atom(basis_vector(12, 2, Q)))
        with pytest.raises(CapExceededError) as exc:
            evaluate(f, entry_cap=100)
        assert exc.value.path == ""
        assert (exc.value.rows, exc.value.cols) == (120, 1)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_applied_operator_matches_multiplied_out(self, data):
        tag = data.draw(st.sampled_from(list(Tag)))
        n = data.draw(st.integers(2, 8))
        m = rand_mixed(data, tag, n, n, max_depth=3)
        v = rand_mixed(data, tag, n, 1, max_depth=3)
        assert evaluate(Prod(m, v)) == mat_mul(evaluate(m), evaluate(v))
        assert evaluate(v) == multiplied_out(v, 1 << 24)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_cap_error_matches_multiplied_out(self, data):
        tag = data.draw(st.sampled_from(list(Tag)))
        n = data.draw(st.integers(2, 8))
        f = Prod(rand_mixed(data, tag, n, n, 3), rand_mixed(data, tag, n, 1, 3))
        cap = data.draw(st.integers(1, 64))
        try:
            multiplied_out(f, cap)
        except CapExceededError as old:
            with pytest.raises(CapExceededError) as new:
                evaluate(f, entry_cap=cap)
            assert (new.value.path, new.value.rows, new.value.cols) == (
                old.path, old.rows, old.cols)
            assert new.value.cap == old.cap
        else:
            assert evaluate(f, entry_cap=cap) == multiplied_out(f, cap)


def squarings(m, levels):
    """The DAG f_(i+1) = f_i * f_i over the atom m: 2^levels occurrences
    of m in levels + 1 distinct nodes."""
    f = Atom(m)
    for _ in range(levels):
        f = Prod(f, f)
    return f


def root_plan(f):
    """What the evaluation walk makes of f: its sparse column, if f is one."""
    return formula_module.walk(formula_module._plan(f, 1 << 24, "", {}))


class TestOneWalk:
    """One walk evaluates every formula.  A product or sum is multiplied
    out once it has been applied as often as it has columns; a Kronecker
    product never is."""

    Z = mx([[1, 0], [0, -1]])

    @pytest.mark.parametrize("gate, levels", [("Z", 16), ("rot35", 14)])
    def test_squaring_dags_cost_linear_in_levels(self, monkeypatch, gate, levels):
        m = self.Z if gate == "Z" else builtin_gate("rot35", Q)
        f = squarings(m, levels)
        column = Prod(f, Atom(basis_vector(2, 1, Q)))
        calls = []
        real = formula_module._mat_vec
        monkeypatch.setattr(
            formula_module, "_mat_vec", lambda m, x: calls.append(x) or real(m, x)
        )
        # Applied at each of its 2^levels occurrences, m alone would take
        # 2^levels matrix-vector products.
        for g in (column, f):
            calls.clear()
            assert evaluate(g) == multiplied_out(g, 1 << 24)
            assert len(calls) <= 8 * levels

    def test_square_product_buys_its_operands_first(self, monkeypatch):
        # Evaluated square, the root is multiplied out on its two unit
        # columns.  Renting each shared product on those columns and then
        # buying it again took 220 scalar products; buying the operands
        # first applies each level's product to the unit columns once.
        f = squarings(builtin_gate("rot35", Q), 14)
        calls = []
        real = formula_module.scalar_mul
        monkeypatch.setattr(
            formula_module, "scalar_mul", lambda a, b: calls.append(a) or real(a, b)
        )
        value = evaluate(f)
        assert len(calls) < 220
        monkeypatch.undo()
        assert value == multiplied_out(f, 1 << 24)

    def test_wide_operand_keeps_renting(self, monkeypatch):
        # (A (B C)) R is 2 x 2 with A 2 x k and B, C, R dense k x k or
        # k x 2.  Its two unit columns rent A (B C): 2 (2k^2 + 3k) scalar
        # products.  Buying the k-column operand first, and B C in turn,
        # would take k^3 + 4k^2 + 6k.
        k = 8
        ones = lambda r, c: Atom(mx([[1] * c for _ in range(r)]))
        f = Prod(Prod(ones(2, k), Prod(ones(k, k), ones(k, k))), ones(k, 2))
        calls = []
        real = formula_module.scalar_mul
        monkeypatch.setattr(
            formula_module, "scalar_mul", lambda a, b: calls.append(a) or real(a, b)
        )
        value = evaluate(f)
        assert len(calls) <= 2 * (2 * k * k + 3 * k)
        monkeypatch.undo()
        assert value == multiplied_out(f, 1 << 24)

    def test_support_matches_gate_kernel(self):
        # The walk drops exact cancellations, as _apply_gate does: rot35
        # then its inverse on every wire leaves one basis state.
        text = "([[3/5 4/5][-4/5 3/5]]*([[3/5 -4/5][4/5 3/5]]*[[1][0]]))"
        assert root_plan(parse_formula(text, Q)) == {0: make_scalar(Q, 1)}
        rng = random.Random(19)
        for tag in (Q, Tag.GAUSSIAN_RATIONAL):
            rot = builtin_gate("rot35", tag)
            for width in (2, 3, 4):
                wires = range(1, width + 1)
                there = tuple(Gate((w,), rot) for w in wires)
                back = tuple(Gate((w,), conj_transpose(rot)) for w in wires)
                arrays = [
                    GateArray(tag, width, (there, back)),
                    rand_array(rng, width, 5, tag),
                ]
                for array in arrays:
                    bits = "".join(rng.choice("01") for _ in range(width))
                    column = input_vector_formula(bits, tag)
                    f = Prod(compile_array_to_formula(array), column)
                    start = StateVector.basis(width, bits, tag).amplitudes.entries
                    amps = {g: a for g, a in enumerate(start) if not a.is_zero()}
                    assert root_plan(f) == _run_levels(array, amps)

    @SIDES
    def test_deep_square_chain_of_non_permutations(self, side):
        # NOT chains compose as permutations; Z chains reach the unit
        # columns a non-column root is multiplied out on.
        f = parse_formula(nested(side, ["[[1 0][0 -1]]"] * 10_000), Q)
        assert evaluate(f) == identity(2, Q)

    def test_repeated_layer_keeps_its_tensors(self, monkeypatch):
        width, bits = 6, "011010"
        rot = builtin_gate("rot35", Q)
        layer = tuple(Gate((w,), rot) for w in range(1, width + 1))
        array = GateArray(Q, width, (layer, layer))
        f = Prod(compile_array_to_formula(array), input_vector_formula(bits, Q))
        kinds = []
        real = formula_module._multiplied_out
        monkeypatch.setattr(
            formula_module,
            "_multiplied_out",
            lambda node, plans: kinds.append(type(node)) or real(node, plans),
        )
        state = StateVector.basis(width, bits, Q)
        assert evaluate(f) == simulate(array, state).amplitudes
        assert Tensor not in kinds


# ---------------------------------------------------------------------------
# Random-formula properties


def rand_formula(data, max_depth, rows=None, cols=None):
    """Draw a valid formula with the requested order (drawn if None)."""
    dims = st.integers(1, 3)
    if rows is None:
        rows = data.draw(dims)
    if cols is None:
        cols = data.draw(dims)
    if max_depth == 0 or data.draw(st.booleans()):
        cell = st.integers(-3, 3)
        return Atom(
            mx([[data.draw(cell) for _ in range(cols)] for _ in range(rows)])
        )
    op = data.draw(st.sampled_from(["+", "*", "#"]))
    if op == "+":
        return Sum(
            rand_formula(data, max_depth - 1, rows, cols),
            rand_formula(data, max_depth - 1, rows, cols),
        )
    if op == "*":
        inner = data.draw(dims)
        return Prod(
            rand_formula(data, max_depth - 1, rows, inner),
            rand_formula(data, max_depth - 1, inner, cols),
        )
    ra = data.draw(st.sampled_from([d for d in range(1, rows + 1) if rows % d == 0]))
    ca = data.draw(st.sampled_from([d for d in range(1, cols + 1) if cols % d == 0]))
    return Tensor(
        rand_formula(data, max_depth - 1, ra, ca),
        rand_formula(data, max_depth - 1, rows // ra, cols // ca),
    )


class TestProperties:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_order_matches_evaluated_matrix(self, data):
        f = rand_formula(data, max_depth=5)
        m = evaluate(f)
        assert f.order == (m.rows, m.cols)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, data):
        f = rand_formula(data, max_depth=4)
        assert parse_formula(render_formula(f), Q) == f

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_stored_metrics_match_walks(self, data):
        # Each node's stored metrics against walks of its subtree, on the
        # drawn tree and on its parse, which shares equal subtrees.
        tree = rand_formula(data, max_depth=4)
        for f in (tree, parse_formula(render_formula(tree), Q)):
            for node in distinct_nodes(f):
                below = distinct_nodes(node)
                assert size(node) == len(distinct_nodes(unshared(node)))
                assert diameter(node) == max(max(n.order) for n in below)
                assert is_sum_free(node) == (not any(isinstance(n, Sum) for n in below))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_diameter_bound(self, data):
        f = rand_formula(data, max_depth=4)
        p = max(
            max(node.order) for node in _atoms(f)
        )
        assert diameter(f) <= p ** (2 ** depth(f))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_evaluate_distributes_over_nodes(self, data):
        g = rand_formula(data, max_depth=3, rows=2, cols=2)
        h = rand_formula(data, max_depth=3, rows=2, cols=2)
        assert evaluate(Sum(g, h)) == mat_add(evaluate(g), evaluate(h))
        assert evaluate(Prod(g, h)) == mat_mul(evaluate(g), evaluate(h))
        assert evaluate(Tensor(g, h)) == kronecker(evaluate(g), evaluate(h))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_osl_output_is_unit_column(self, data):
        f = rand_osl(data, max_depth=4)
        report = check_osl(f)
        assert report.is_osl
        assert is_unit_column(evaluate(f))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_balanced_combinators_preserve_value(self, data):
        n = data.draw(st.integers(1, 5))
        perms = [
            Atom(Matrix.from_perm(Q, data.draw(st.permutations(range(3)))))
            for _ in range(n)
        ]
        assert evaluate(balanced_prod(perms)) == _fold(mat_mul, perms)
        assert evaluate(balanced_tensor(perms)) == _fold(kronecker, perms)


def _atoms(f):
    if isinstance(f, Atom):
        yield f
    else:
        yield from _atoms(f.left)
        yield from _atoms(f.right)


def _fold(op, atoms):
    acc = atoms[0].matrix
    for a in atoms[1:]:
        acc = op(acc, a.matrix)
    return acc


_ENTRIES = {
    Tag.BOOLEAN: [0, 0, 1],
    Tag.NONNEG_RATIONAL: [0, 0, 1, Fraction(1, 2), Fraction(3, 5)],
    Tag.RATIONAL: [0, 0, 1, -1, Fraction(-4, 5), Fraction(3, 5)],
    Tag.GAUSSIAN_RATIONAL: [0, 0, 1, -1, Fraction(3, 5), 1j, -1j],
}


def _mixed_atom(data, tag, rows, cols):
    if rows == cols and data.draw(st.booleans()):
        return Atom(Matrix.from_perm(tag, data.draw(st.permutations(range(rows)))))
    pool = st.sampled_from(_ENTRIES[tag])
    flat = []
    for _ in range(rows * cols):
        v = data.draw(pool)
        if isinstance(v, complex):
            flat.append(make_scalar(tag, 0, int(v.imag)))
        else:
            flat.append(make_scalar(tag, v))
    return Atom(Matrix.from_entries(tag, rows, cols, flat))


def rand_mixed(data, tag, rows, cols, max_depth):
    """A formula of the given order mixing Sum, Prod and Tensor over dense
    and permutation atoms; square products sometimes share one node."""
    if max_depth == 0 or data.draw(st.integers(0, 3)) == 0:
        return _mixed_atom(data, tag, rows, cols)
    op = data.draw(st.sampled_from(["+", "*", "*", "#", "#"]))
    if op == "+":
        return Sum(
            rand_mixed(data, tag, rows, cols, max_depth - 1),
            rand_mixed(data, tag, rows, cols, max_depth - 1),
        )
    if op == "*":
        if rows == cols and data.draw(st.integers(0, 4)) == 0:
            g = rand_mixed(data, tag, rows, cols, max_depth - 1)
            return Prod(g, g)
        inner = data.draw(st.integers(1, 6))
        return Prod(
            rand_mixed(data, tag, rows, inner, max_depth - 1),
            rand_mixed(data, tag, inner, cols, max_depth - 1),
        )
    ra = data.draw(st.sampled_from([d for d in range(1, rows + 1) if rows % d == 0]))
    ca = data.draw(st.sampled_from([d for d in range(1, cols + 1) if cols % d == 0]))
    return Tensor(
        rand_mixed(data, tag, ra, ca, max_depth - 1),
        rand_mixed(data, tag, rows // ra, cols // ca, max_depth - 1),
    )


def rand_osl(data, max_depth):
    """Column-shaped formula over permutation atoms and basis vectors."""
    if max_depth == 0 or data.draw(st.booleans()):
        n = data.draw(st.integers(1, 4))
        return Atom(basis_vector(n, data.draw(st.integers(1, n)), Q))
    if data.draw(st.booleans()):
        col = rand_osl(data, max_depth - 1)
        n = col.order[0]
        p = data.draw(st.permutations(range(n)))
        return Prod(Atom(Matrix.from_perm(Q, p)), col)
    return Tensor(rand_osl(data, max_depth - 1), rand_osl(data, max_depth - 1))
