"""Tensor formulas: AST, text grammar, structural metrics, exact evaluation.

A formula is a binary tree whose leaves are matrices and whose inner nodes
are entrywise sum (``+``), matrix product (``*``) or Kronecker product
(``#``).  Orders are synthesised bottom-up at construction time: a node
whose children's orders do not fit its operation is *invalid*, which is a
value, not an exception (``order`` is None and the node never evaluates).
Mixing semiring tags, by contrast, is always a programming error and
raises immediately.

Text syntax, fully parenthesised::

    formula := atom | '(' formula ('+'|'*'|'#') formula ')'
    atom    := '[' row+ ']'
    row     := '[' scalar-token+ ']'

Whitespace between tokens is insignificant.  Boolean rows may also be
written as bare digit runs ("[[001][101]]"); the renderer always emits
one space between entries.  In strict mode malformed or invalid text is
an error with an offset; in paper mode it denotes the trivial 1x1 zero
formula.

Evaluation is post-order, left child first.  Every node's order,
including atoms', is checked against an entry cap before any work on that
node; diameters can grow doubly exponentially with depth, and the cap
turns that into a clean, deterministically attributed error.  A
column-valued formula (order r x 1, r > 1) is evaluated by applying its
factors to the vector: a product feeds its right factor's column to its
left factor, a Kronecker product acts block by block, and only subtrees
whose atoms are all permutations are multiplied out (into a compact
permutation).  The cap still bounds every subformula's order, including
the operators that are never built.  Any other formula is multiplied out
node by node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Sequence, Union

from .errors import CapExceededError, ParseError, TagMismatchError, ValidationError
from .linalg import (
    Matrix,
    is_orthogonal,
    is_unit_column,
    kronecker,
    mat_add,
    mat_mul,
    zero_matrix,
)
from .semiring import (
    Scalar,
    Tag,
    parse_scalar,
    render_scalar,
    scalar_add,
    scalar_mul,
    scalar_zero,
)

__all__ = [
    "Atom",
    "DEFAULT_ENTRY_CAP",
    "Formula",
    "OslReport",
    "Prod",
    "Sum",
    "Tensor",
    "balanced_prod",
    "balanced_tensor",
    "check_osl",
    "diameter",
    "evaluate",
    "is_sum_free",
    "parse_formula",
    "render_formula",
    "size",
    "trivial_formula",
]

DEFAULT_ENTRY_CAP = 1 << 24

Order = Union[tuple, None]


@dataclass(frozen=True)
class Formula:
    """Base node type; construct Atom, Sum, Prod or Tensor instead."""

    @property
    def is_valid(self) -> bool:
        return self.order is not None


@dataclass(frozen=True)
class Atom(Formula):
    matrix: Matrix

    @property
    def tag(self) -> Tag:
        return self.matrix.tag

    @property
    def order(self) -> Order:
        return (self.matrix.rows, self.matrix.cols)


@dataclass(frozen=True)
class _Binary(Formula):
    left: Formula
    right: Formula
    order: Order = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.left.tag is not self.right.tag:
            raise TagMismatchError(
                f"cannot combine {self.left.tag.value} and "
                f"{self.right.tag.value} subformulas"
            )
        object.__setattr__(self, "order", self._combine_orders())

    @property
    def tag(self) -> Tag:
        return self.left.tag

    def _combine_orders(self) -> Order:
        raise NotImplementedError


@dataclass(frozen=True)
class Sum(_Binary):
    def _combine_orders(self) -> Order:
        lo, ro = self.left.order, self.right.order
        return lo if lo is not None and lo == ro else None


@dataclass(frozen=True)
class Prod(_Binary):
    def _combine_orders(self) -> Order:
        lo, ro = self.left.order, self.right.order
        if lo is None or ro is None or lo[1] != ro[0]:
            return None
        return (lo[0], ro[1])


@dataclass(frozen=True)
class Tensor(_Binary):
    def _combine_orders(self) -> Order:
        lo, ro = self.left.order, self.right.order
        if lo is None or ro is None:
            return None
        return (lo[0] * ro[0], lo[1] * ro[1])


_OP_CHAR = {Sum: "+", Prod: "*", Tensor: "#"}
_OP_NODE = {"+": Sum, "*": Prod, "#": Tensor}


def trivial_formula(tag: Tag) -> Formula:
    """The 1x1 zero formula that malformed text denotes in paper mode."""
    return Atom(zero_matrix(1, 1, tag))


def _subformulas(f: Formula, path: str = "") -> Iterator[tuple]:
    """Pre-order traversal yielding (node, path); children are /L and /R."""
    yield f, path
    if isinstance(f, _Binary):
        yield from _subformulas(f.left, path + "/L")
        yield from _subformulas(f.right, path + "/R")


# ---------------------------------------------------------------------------
# Parsing and rendering


_STRUCTURAL = "[]()"
_WS = " \t\r\n"


class _Parser:
    def __init__(self, text: str, tag: Tag):
        self.text = text
        self.tag = tag
        self.pos = 0

    def parse(self) -> Formula:
        node = self.formula()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return node

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in _WS:
            self.pos += 1

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def formula(self) -> Formula:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            left = self.formula()
            self.skip_ws()
            op = self.peek()
            if op not in _OP_NODE:
                raise ParseError("expected '+', '*' or '#'", self.pos)
            self.pos += 1
            right = self.formula()
            self.skip_ws()
            self.expect(")")
            return _OP_NODE[op](left, right)
        if ch == "[":
            return self.atom()
        if ch is None:
            raise ParseError("unexpected end of input", self.pos)
        raise ParseError("expected '(' or '['", self.pos)

    def atom(self) -> Atom:
        start = self.pos
        self.expect("[")
        rows: list[list[Scalar]] = []
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "[":
                rows.append(self.row())
            elif ch == "]":
                self.pos += 1
                break
            elif ch is None:
                raise ParseError("unterminated atom", self.pos)
            else:
                raise ParseError("expected '[' or ']' inside atom", self.pos)
        if not rows:
            raise ParseError("atom has no rows", start)
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("atom rows have unequal lengths", start)
        return Atom(Matrix.from_rows(self.tag, rows))

    def row(self) -> list[Scalar]:
        start = self.pos
        self.expect("[")
        entries: list[Scalar] = []
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "]":
                self.pos += 1
                break
            if ch is None:
                raise ParseError("unterminated row", self.pos)
            if ch in _STRUCTURAL:
                raise ParseError(f"unexpected '{ch}' inside row", self.pos)
            entries.extend(self.scalars())
        if not entries:
            raise ParseError("row has no entries", start)
        return entries

    def scalars(self) -> list[Scalar]:
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in _WS or ch in _STRUCTURAL:
                break
            self.pos += 1
        token = self.text[start : self.pos]
        # Boolean rows allow packed digit runs: "001" is three entries.
        if self.tag is Tag.BOOLEAN and len(token) > 1:
            return [self._scalar(c, start + i) for i, c in enumerate(token)]
        return [self._scalar(token, start)]

    def _scalar(self, token: str, offset: int) -> Scalar:
        try:
            return parse_scalar(token, self.tag)
        except ParseError as exc:
            raise ParseError(str(exc), offset) from None


def _first_invalid_path(f: Formula) -> str:
    """Path of the shallowest-leftmost node that breaks order synthesis."""
    for node, path in _subformulas(f):
        if node.is_valid:
            continue
        if isinstance(node, _Binary) and node.left.is_valid and node.right.is_valid:
            return path
    return ""


def parse_formula(text: str, tag: Tag, mode: str = "strict") -> Formula:
    """Parse formula text.

    Strict mode raises ParseError (syntax, with offset) or ValidationError
    (well-formed text whose orders do not fit).  Paper mode returns the
    trivial 1x1 zero formula for either failure.
    """
    if mode not in ("strict", "paper"):
        raise ValueError(f"unknown mode {mode!r}")
    try:
        node = _Parser(text, tag).parse()
    except ParseError:
        if mode == "paper":
            return trivial_formula(tag)
        raise
    if not node.is_valid:
        if mode == "paper":
            return trivial_formula(tag)
        raise ValidationError(
            "formula is not valid: order mismatch at "
            f"{_first_invalid_path(node) or 'root'}"
        )
    return node


def render_formula(f: Formula) -> str:
    """Fully parenthesised text; parse_formula round-trips it structurally."""
    if isinstance(f, Atom):
        m = f.matrix
        return "[%s]" % "".join(
            "[%s]" % " ".join(render_scalar(e) for e in m.row(r))
            for r in range(m.rows)
        )
    return "(%s%s%s)" % (
        render_formula(f.left),
        _OP_CHAR[type(f)],
        render_formula(f.right),
    )


# ---------------------------------------------------------------------------
# Structural metrics and predicates


def size(f: Formula) -> int:
    """Number of nodes: 1 for an atom, else 1 + sizes of both children."""
    if isinstance(f, Atom):
        return 1
    return 1 + size(f.left) + size(f.right)


def diameter(f: Formula) -> int:
    """Largest order component appearing anywhere in the formula."""
    if not f.is_valid:
        raise ValidationError("diameter of an invalid formula is undefined")
    own = max(f.order)
    if isinstance(f, Atom):
        return own
    return max(own, diameter(f.left), diameter(f.right))


def is_sum_free(f: Formula) -> bool:
    return not any(isinstance(node, Sum) for node, _ in _subformulas(f))


@dataclass(frozen=True)
class OslReport:
    """Outcome of check_osl; is_osl requires all three checks to pass."""

    is_sum_free: bool
    inputs_ok: bool
    output_is_column: bool
    offending_paths: tuple

    @property
    def is_osl(self) -> bool:
        return self.is_sum_free and self.inputs_ok and self.output_is_column

    def raise_unless_osl(self) -> None:
        """Raise ValidationError naming the offending paths unless OSL."""
        if not self.is_osl:
            raise ValidationError(
                f"formula is not OSL (offending paths: {list(self.offending_paths)})"
            )


def _osl_atom_ok(m: Matrix) -> bool:
    if m.rows == m.cols:
        return is_orthogonal(m)
    if m.cols == 1:
        return is_unit_column(m)
    return False


def check_osl(f: Formula) -> OslReport:
    """Check the orthogonal sum-free linear shape: sum-free, every atom an
    orthogonal square matrix or a unit column, and a column output.

    Offending paths list every Sum node and every failing atom, sorted.
    """
    offending = []
    sum_free = True
    inputs_ok = True
    for node, path in _subformulas(f):
        if isinstance(node, Sum):
            sum_free = False
            offending.append(path)
        elif isinstance(node, Atom) and not _osl_atom_ok(node.matrix):
            inputs_ok = False
            offending.append(path)
    column = f.order is not None and f.order[1] == 1
    return OslReport(sum_free, inputs_ok, column, tuple(sorted(offending)))


# ---------------------------------------------------------------------------
# Evaluation


def _checked_order(f: Formula, cap: int, path: str) -> None:
    rows, cols = f.order
    if rows * cols > cap:
        raise CapExceededError(path, rows, cols, cap)


def _eval(f: Formula, cap: int, path: str) -> Matrix:
    if isinstance(f, Atom):
        _checked_order(f, cap, path)
        return f.matrix
    left = _eval(f.left, cap, path + "/L")
    right = _eval(f.right, cap, path + "/R")
    _checked_order(f, cap, path)
    if isinstance(f, Sum):
        return mat_add(left, right)
    if isinstance(f, Prod):
        return mat_mul(left, right)
    return kronecker(left, right)


# Column-valued formulas are evaluated vector first.  One post-order walk
# checks every node's order against the cap and gives each node a plan:
#
#   - a Matrix, multiplied out as _eval would, for a non-column subtree
#     whose atoms are all permutations (a compact permutation unless the
#     subtree holds a Sum);
#   - a sparse column {row: nonzero Scalar}, for a column-valued node;
#   - a function from sparse column to sparse column, for any other
#     non-column subtree: that operator is applied, never built.
#
# A product with a column on its right applies its left plan to that
# column, and a deferred Kronecker product is applied block by block.
# Binary nodes' plans are kept by node identity, so a subtree the
# compilers share is planned once per call.


def _mat_vec(m: Matrix, x: dict) -> dict:
    perm = m.perm_or_none()
    if perm is not None:
        return {perm[j]: v for j, v in x.items()}
    e, cols = m.entries, m.cols
    out: dict = {}
    for j, v in x.items():
        for i in range(m.rows):
            a = e[i * cols + j]
            if a.is_zero():
                continue
            t = scalar_mul(a, v)
            out[i] = scalar_add(out[i], t) if i in out else t
    return out


def _vec_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for i, v in y.items():
        out[i] = scalar_add(out[i], v) if i in out else v
    return out


def _scale_column(c: dict, x: dict) -> dict:
    """The column c as a one-column operator applied to the 1-vector x."""
    if 0 not in x:
        return {}
    s = x[0]
    return {i: scalar_mul(a, s) for i, a in c.items()}


def _apply_tensor(left, right, right_order, x: dict) -> dict:
    """(L # R) x without forming L # R: R acts on each of x's blocks (one
    per column of L), then L on each strided column of the results."""
    rows, cols = right_order
    blocks: dict = {}
    for k, v in x.items():
        i, j = divmod(k, cols)
        blocks.setdefault(i, {})[j] = v
    strided: dict = {}
    for i, block in blocks.items():
        for j, v in right(block).items():
            strided.setdefault(j, {})[i] = v
    out = {}
    for j, column in strided.items():
        for p, v in left(column).items():
            out[p * rows + j] = v
    return out


def _as_operator(plan):
    if isinstance(plan, Matrix):
        return partial(_mat_vec, plan)
    if isinstance(plan, dict):
        return partial(_scale_column, plan)
    return plan


def _atom_plan(m: Matrix):
    if m.cols == 1:
        return {i: s for i, s in enumerate(m.entries) if not s.is_zero()}
    if m.perm_or_none() is not None:
        return m
    return partial(_mat_vec, m)


def _deferred_plan(f: _Binary, left, right):
    kind = type(f)
    if f.order[1] == 1:
        if kind is Prod:
            return _as_operator(left)(right)
        if kind is Tensor:
            rows = f.right.order[0]
            return {
                i * rows + j: scalar_mul(a, b)
                for i, a in left.items()
                for j, b in right.items()
            }
        return _vec_add(left, right)
    lop, rop = _as_operator(left), _as_operator(right)
    if kind is Prod:
        return lambda x: lop(rop(x))
    if kind is Tensor:
        return partial(_apply_tensor, lop, rop, f.right.order)
    return lambda x: _vec_add(lop(x), rop(x))


def _plan(f: Formula, cap: int, path: str, plans: dict):
    if type(f) is Atom:
        m = f.matrix
        if m.rows * m.cols > cap:
            raise CapExceededError(path, m.rows, m.cols, cap)
        return _atom_plan(m)
    key = id(f)
    plan = plans.get(key)
    if plan is not None:
        return plan
    left = _plan(f.left, cap, path + "/L", plans)
    right = _plan(f.right, cap, path + "/R", plans)
    rows, cols = f.order
    if rows * cols > cap:
        raise CapExceededError(path, rows, cols, cap)
    if type(left) is Matrix and type(right) is Matrix:
        kind = type(f)
        if kind is Prod:
            plan = mat_mul(left, right)
        elif kind is Tensor:
            plan = kronecker(left, right)
        else:
            plan = mat_add(left, right)
    else:
        plan = _deferred_plan(f, left, right)
    plans[key] = plan
    return plan


def _eval_column(f: Formula, cap: int) -> Matrix:
    rows = f.order[0]
    zero = scalar_zero(f.tag)
    entries = [zero] * rows
    for i, v in _plan(f, cap, "", {}).items():
        entries[i] = v
    return Matrix(f.tag, rows, 1, tuple(entries))


def evaluate(
    f: Formula, entry_cap: int = DEFAULT_ENTRY_CAP, mode: str = "strict"
) -> Matrix:
    """Evaluate bottom-up, left child first.

    Strict mode refuses invalid formulas; paper mode evaluates them to the
    1x1 zero matrix.  Every node's output order is checked against
    entry_cap in post-order, before any work on that node, so the first
    offender in post-order is reported.  A column-valued formula (order
    r x 1 with r > 1) is evaluated by applying its factors to the vector;
    any other formula is multiplied out node by node.
    """
    if mode not in ("strict", "paper"):
        raise ValueError(f"unknown mode {mode!r}")
    if not f.is_valid:
        if mode == "paper":
            return zero_matrix(1, 1, f.tag)
        raise ValidationError(
            "cannot evaluate invalid formula: order mismatch at "
            f"{_first_invalid_path(f) or 'root'}"
        )
    rows, cols = f.order
    if cols == 1 and rows > 1:
        return _eval_column(f, entry_cap)
    return _eval(f, entry_cap, "")


# ---------------------------------------------------------------------------
# Structural combinators shared by the compilers


def balanced_prod(factors: Sequence[Formula]) -> Formula:
    """Product of factors in the given left-to-right order, as a balanced
    tree so depth stays logarithmic in the factor count."""
    return _balance(Prod, factors)


def balanced_tensor(factors: Sequence[Formula]) -> Formula:
    """Kronecker product of factors left-to-right, balanced like
    balanced_prod."""
    return _balance(Tensor, factors)


def _balance(node, factors: Sequence[Formula]) -> Formula:
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    mid = len(factors) // 2
    return node(_balance(node, factors[:mid]), _balance(node, factors[mid:]))
