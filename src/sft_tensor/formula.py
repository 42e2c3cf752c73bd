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

Whitespace (space, tab, CR, LF) between tokens is insignificant.
Boolean rows may also be written as bare digit runs ("[[001][101]]"); the
renderer always emits one space between entries.  In strict mode
malformed or invalid text is an error with the offset of its first
fault; in paper mode it denotes the trivial 1x1 zero formula.

No pass recurses, so nesting depth is bounded by memory, not by
Python's recursion limit.  Parsing is one loop over a stack of open
parentheses.  Every other pass over a tree, here and in the backward
compiler, is a generator run by walk.  A subformula's position is a
linked (parent, "/L" or "/R") pair, made into path text only when an
error or a report names it.  Each row is matched by one regex and its
tokens are read with finditer; scan_atom is the only atom scanner in
the package (the gate-array format's inline matrices use it too).
Equal atom texts in one formula are read once and share one Atom.

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

import re
from dataclasses import dataclass, field
from typing import Sequence, Union

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
    tag: Tag = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        tag = self.left.tag
        if tag is not self.right.tag:
            raise TagMismatchError(
                f"cannot combine {tag.value} and "
                f"{self.right.tag.value} subformulas"
            )
        object.__setattr__(self, "order", self._combine_orders())
        object.__setattr__(self, "tag", tag)

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


def walk(call):
    """Run a pass to completion without recursion and return its result.

    A pass is a generator function called once per node: it yields each
    child call, ``left = yield visit(f.left, ...)``, is sent that call's
    result, and returns its own.  Calls run in the order yielded, so a
    child's arguments may depend on an earlier child's result.
    """
    stack = []
    value = None
    while True:
        try:
            child = call.send(value)
        except StopIteration as done:
            if not stack:
                return done.value
            call = stack.pop()
            value = done.value
        else:
            stack.append(call)
            call = child
            value = None


def _path_text(pos) -> str:
    """A position as text: positions are a root path string or a linked
    (parent position, "/L" or "/R") pair, rendered only when reported."""
    sides = []
    while type(pos) is tuple:
        pos, side = pos
        sides.append(side)
    return pos + "".join(reversed(sides))


def _subformulas(f: Formula) -> list:
    """Every (node, position) of f in pre-order; children are /L and /R."""
    out = []

    def visit(node, pos):
        out.append((node, pos))
        if isinstance(node, _Binary):
            yield visit(node.left, (pos, "/L"))
            yield visit(node.right, (pos, "/R"))

    walk(visit(f, ""))
    return out


# ---------------------------------------------------------------------------
# Parsing and rendering


# The grammar's whitespace is exactly these four characters; anything else
# (a vertical tab, a no-break space) is part of a token.
_WS_RUN = re.compile(r"[ \t\r\n]*")
# A row's '[' and everything up to the next structural character.
_ROW_BODY = re.compile(r"\[([^\[\]()]*)")
_TOKEN = re.compile(r"[^ \t\r\n]+")


def _token_scalars(token: str, offset: int, tag: Tag) -> list:
    # Boolean rows allow packed digit runs: "001" is three entries.
    parts = token if tag is Tag.BOOLEAN else (token,)
    out = []
    for i, part in enumerate(parts):
        try:
            out.append(parse_scalar(part, tag))
        except ParseError as exc:
            raise ParseError(str(exc), offset + i) from None
    return out


def scan_atom(text: str, pos: int, tag: Tag, memo: dict) -> tuple:
    """Read the atom whose '[' is at text[pos]; return (matrix, end offset).

    The one atom scanner: formula text and the gate-array format's inline
    matrices both go through it.  Each row is one regex match; its tokens
    are read left to right, so a bad scalar is reported before a
    structural error later in the same row.  memo maps tokens already read
    in this text to their scalars.
    """
    rows = []
    at = pos + 1
    while True:
        at = _WS_RUN.match(text, at).end()
        row = _ROW_BODY.match(text, at)
        if row is None:
            ch = text[at : at + 1]
            if ch == "]":
                break
            raise ParseError(
                "expected '[' or ']' inside atom" if ch else "unterminated atom", at
            )
        entries = []
        for token in _TOKEN.finditer(text, row.start(1), row.end()):
            word = token.group()
            scalars = memo.get(word)
            if scalars is None:
                scalars = memo[word] = _token_scalars(word, token.start(), tag)
            entries += scalars
        end = row.end()
        ch = text[end : end + 1]
        if ch != "]":
            raise ParseError(
                f"unexpected '{ch}' inside row" if ch else "unterminated row", end
            )
        if not entries:
            raise ParseError("row has no entries", at)
        rows.append(entries)
        at = end + 1
    if not rows:
        raise ParseError("atom has no rows", pos)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("atom rows have unequal lengths", pos)
    return Matrix.from_rows(tag, rows), at + 1


def _parse(text: str, tag: Tag) -> Formula:
    # One frame per open '(': None until its left operand is complete, then
    # (left, node type) until its right operand and ')' are.
    frames: list = []
    memo: dict = {}
    # Hash consing: an atom ending at the first ']]' after its '[' is keyed
    # on its text, so equal atom texts are scanned once and share one Atom.
    # That ']]' (close; len(text) if none) is searched for, and the text
    # looked up, only once pos passes it: linear even for '] ]' atoms.
    atoms: dict = {}
    close = -1
    pos = 0
    while True:
        pos = _WS_RUN.match(text, pos).end()
        ch = text[pos : pos + 1]
        if ch == "(":
            frames.append(None)
            pos += 1
            continue
        if ch != "[":
            raise ParseError(
                "expected '(' or '['" if ch else "unexpected end of input", pos
            )
        node = None
        if close < pos:
            close = text.find("]]", pos) % (len(text) + 1)
            node = atoms.get(text[pos : close + 2])
        if node is None:
            matrix, end = scan_atom(text, pos, tag, memo)
            node = Atom(matrix)
            if end == close + 2:
                atoms[text[pos:end]] = node
            pos = end
        else:
            pos = close + 2
        pos = _WS_RUN.match(text, pos).end()
        while frames and frames[-1] is not None:
            left, kind = frames.pop()
            if text[pos : pos + 1] != ")":
                raise ParseError("expected ')'", pos)
            node = kind(left, node)
            pos = _WS_RUN.match(text, pos + 1).end()
        if not frames:
            if pos != len(text):
                raise ParseError("unexpected trailing input", pos)
            return node
        kind = _OP_NODE.get(text[pos : pos + 1])
        if kind is None:
            raise ParseError("expected '+', '*' or '#'", pos)
        frames[-1] = (node, kind)
        pos += 1


def _first_invalid_path(f: Formula) -> str:
    """Path of the shallowest-leftmost node that breaks order synthesis."""
    for node, pos in _subformulas(f):
        if node.is_valid:
            continue
        if isinstance(node, _Binary) and node.left.is_valid and node.right.is_valid:
            return _path_text(pos)
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
        node = _parse(text, tag)
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
    parts = []

    def visit(node):
        if isinstance(node, Atom):
            m = node.matrix
            rows = (" ".join(map(render_scalar, m.row(r))) for r in range(m.rows))
            parts.append("[[%s]]" % "][".join(rows))
            return
        parts.append("(")
        yield visit(node.left)
        parts.append(_OP_CHAR[type(node)])
        yield visit(node.right)
        parts.append(")")

    walk(visit(f))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Structural metrics and predicates


def size(f: Formula) -> int:
    """Number of nodes: 1 for an atom, else 1 + sizes of both children."""
    return len(_subformulas(f))


def diameter(f: Formula) -> int:
    """Largest order component appearing anywhere in the formula."""
    if not f.is_valid:
        raise ValidationError("diameter of an invalid formula is undefined")
    return max(max(node.order) for node, _ in _subformulas(f))


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
    for node, pos in _subformulas(f):
        if isinstance(node, Sum):
            sum_free = False
            offending.append(_path_text(pos))
        elif isinstance(node, Atom) and not _osl_atom_ok(node.matrix):
            inputs_ok = False
            offending.append(_path_text(pos))
    column = f.order is not None and f.order[1] == 1
    return OslReport(sum_free, inputs_ok, column, tuple(sorted(offending)))


# ---------------------------------------------------------------------------
# Evaluation


_MAT_OP = {Sum: mat_add, Prod: mat_mul, Tensor: kronecker}


def _checked_order(f: Formula, cap: int, pos) -> None:
    rows, cols = f.order
    if rows * cols > cap:
        raise CapExceededError(_path_text(pos), rows, cols, cap)


def _eval(f: Formula, cap: int, pos) -> Matrix:
    return walk(_eval_node(f, cap, pos))


def _eval_node(f: Formula, cap: int, pos):
    if isinstance(f, Atom):
        _checked_order(f, cap, pos)
        return f.matrix
    left = yield _eval_node(f.left, cap, (pos, "/L"))
    right = yield _eval_node(f.right, cap, (pos, "/R"))
    _checked_order(f, cap, pos)
    return _MAT_OP[type(f)](left, right)


# Column-valued formulas are evaluated vector first.  One post-order walk
# checks every node's order against the cap and gives each node a plan:
#
#   - a Matrix, multiplied out as _eval would, for a non-column subtree
#     whose atoms are all permutations (a compact permutation unless the
#     subtree holds a Sum);
#   - a sparse column {row: nonzero Scalar}, for a column-valued node;
#   - an operator, for any other non-column subtree: the Atom itself, or
#     (node, left plan, right plan) for a binary node.  It is applied to
#     columns by _apply, never built.
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


def _apply(plan, x: dict):
    """A non-column plan, or a column taken as a one-column operator,
    applied to the sparse column x."""
    if type(plan) is Matrix:
        return _mat_vec(plan, x)
    if type(plan) is Atom:
        return _mat_vec(plan.matrix, x)
    if type(plan) is dict:
        s = x.get(0)
        return {} if s is None else {i: scalar_mul(a, s) for i, a in plan.items()}
    f, left, right = plan
    kind = type(f)
    if kind is Prod:
        return (yield _apply(left, (yield _apply(right, x))))
    if kind is Sum:
        return _vec_add((yield _apply(left, x)), (yield _apply(right, x)))
    # (L # R) x without forming L # R: R acts on each of x's blocks (one
    # per column of L), then L on each strided column of the results.
    rows, cols = f.right.order
    blocks: dict = {}
    for k, v in x.items():
        i, j = divmod(k, cols)
        blocks.setdefault(i, {})[j] = v
    strided: dict = {}
    for i, block in blocks.items():
        for j, v in (yield _apply(right, block)).items():
            strided.setdefault(j, {})[i] = v
    out = {}
    for j, column in strided.items():
        for p, v in (yield _apply(left, column)).items():
            out[p * rows + j] = v
    return out


def _plan(f: Formula, cap: int, pos, plans: dict):
    if type(f) is Atom:
        _checked_order(f, cap, pos)
        m = f.matrix
        if m.cols == 1:
            return {i: s for i, s in enumerate(m.entries) if not s.is_zero()}
        return m if m.perm_or_none() is not None else f
    key = id(f)
    plan = plans.get(key)
    if plan is not None:
        return plan
    left = yield _plan(f.left, cap, (pos, "/L"), plans)
    right = yield _plan(f.right, cap, (pos, "/R"), plans)
    _checked_order(f, cap, pos)
    kind = type(f)
    if type(left) is Matrix and type(right) is Matrix:
        plan = _MAT_OP[kind](left, right)
    elif f.order[1] != 1:
        plan = (f, left, right)
    elif kind is Prod:
        plan = yield _apply(left, right)
    elif kind is Tensor:
        rows = f.right.order[0]
        plan = {
            i * rows + j: scalar_mul(a, b)
            for i, a in left.items()
            for j, b in right.items()
        }
    else:
        plan = _vec_add(left, right)
    plans[key] = plan
    return plan


def _eval_column(f: Formula, cap: int) -> Matrix:
    column = walk(_plan(f, cap, "", {}))  # checks the root's order too
    rows = f.order[0]
    entries = [scalar_zero(f.tag)] * rows
    for i, v in column.items():
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
