"""Formula AST, grammar, metrics, OSL checking, and the exact evaluator."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import nested

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
from sft_tensor.formula import _eval  # the multiplied-out reference
from sft_tensor.backward_compiler import (
    formula_to_array,
    pad_formula_with_denominators,
    transpose_formula,
)
from sft_tensor.circuit import simulate
from sft_tensor.sft import SftInstance, boolean_fastpath, decide_sft
from sft_tensor.linalg import (
    Matrix,
    basis_vector,
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


SIDES = pytest.mark.parametrize("side", ["left", "right"])


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
    def test_value_matches_shallow(self, side):
        f = deep_chain(side, Q)
        shallow = evaluate(parse_formula("[[0][1]]", Q))
        assert evaluate(f) == shallow
        assert _eval(f, 1 << 24, "") == shallow
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
    """Column-valued formulas are applied to the vector, never multiplied
    out; the cap still sees every subformula's order."""

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
        assert evaluate(v) == _eval(v, 1 << 24, "")

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_cap_error_matches_multiplied_out(self, data):
        tag = data.draw(st.sampled_from(list(Tag)))
        n = data.draw(st.integers(2, 8))
        f = Prod(rand_mixed(data, tag, n, n, 3), rand_mixed(data, tag, n, 1, 3))
        cap = data.draw(st.integers(1, 64))
        try:
            _eval(f, cap, "")
        except CapExceededError as old:
            with pytest.raises(CapExceededError) as new:
                evaluate(f, entry_cap=cap)
            assert (new.value.path, new.value.rows, new.value.cols) == (
                old.path, old.rows, old.cols)
            assert new.value.cap == old.cap
        else:
            assert evaluate(f, entry_cap=cap) == _eval(f, cap, "")


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
