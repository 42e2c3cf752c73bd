"""Tensor formulas: AST, text grammar, structural metrics, exact evaluation.

A formula is a binary tree whose leaves are matrices and whose inner nodes
are entrywise sum (``+``), matrix product (``*``) or Kronecker product
(``#``).  Orders are synthesised bottom-up at construction time: a node
whose children's orders do not fit its operation is *invalid*, which is a
value, not an exception (``order`` is None and the node never evaluates).
Mixing semiring tags, by contrast, is always a programming error and
raises immediately.  Each node stores, computed once in its constructor
from its children's: order, tag, size (its node count written as a tree),
diameter (the largest order component in its subtree; None if invalid)
and sum_free.  OSL cleanliness (no Sum, every atom an OSL input) is
memoised on each node as osl_clean the first time check_osl needs it,
never at construction, so evaluation never pays the orthogonality test.

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
tokens are read with finditer.  scan_atom, the one atom scanner (gate
arrays' inline matrices use it too), tells 0/1 permutations by their text.

The text is a tree, but a parsed formula is a DAG: equal atom texts in
one formula are read once and share one Atom, and equal subtrees share
one node.  The forward compiler's output is a DAG in the same way.
size, diameter and is_sum_free read the root.  check_osl tests each
distinct atom once per formula's lifetime, on integers, and walks only
to list the occurrences of offenders.  Evaluation and rendering key
their work on node identity, so they do it once per distinct subtree
(rendering copies a shared subtree's text at each later occurrence).
The backward compiler pads each distinct subtree without column atoms
once; only its gate reading still walks every occurrence.

Evaluation is post-order, left child first.  Every node's order,
including atoms', is checked against an entry cap before any work on that
node; diameters can grow doubly exponentially with depth, and the cap
turns that into a clean, deterministically attributed error.  Every
formula is evaluated by one walk that applies its factors to columns: a
product feeds its right factor's column to its left factor, a Kronecker
product acts block by block, and a subtree whose atoms are all
permutations moves each index it is applied to, composing itself into a
permutation only once that would cost less than moving more.  A product
or sum applied as often as it has columns is multiplied out once, into
sparse columns for every later use, and so is a non-column root.  The cap
still bounds every subformula's order, including the operators that are
never built.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from .errors import CapExceededError, ParseError, TagMismatchError, ValidationError
from .linalg import Matrix, has_orthonormal_columns, is_orthogonal, zero_matrix
from .semiring import (
    Tag,
    parse_scalar,
    render_scalar,
    scalar_add,
    scalar_mul,
    scalar_one,
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


class Formula:
    """Base node type; construct Atom, Sum, Prod or Tensor instead.

    Nodes are not changed after construction, apart from the osl_clean
    memo.  == is structural; hash and repr read only the node's own
    attributes, so none of the three recurses.
    """

    __slots__ = ("order", "tag", "size", "diameter", "sum_free", "osl_clean")

    @property
    def is_valid(self) -> bool:
        return self.order is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        # Pairs already compared are skipped: equal shared DAGs compare in
        # time linear in their distinct nodes.
        seen = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if a._key() != b._key():
                return False
            if type(a) is not Atom:
                stack += [(a.right, b.right), (a.left, b.left)]
            elif a.matrix != b.matrix:
                return False
        return True

    def _key(self) -> tuple:
        return type(self), self.tag, self.order, self.size

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order}, size={self.size})"


class Atom(Formula):
    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        self.tag = matrix.tag
        self.order = (matrix.rows, matrix.cols)
        self.size = 1
        self.diameter = max(matrix.rows, matrix.cols)
        self.sum_free = True
        self.osl_clean = None


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        tag = left.tag
        if tag is not right.tag:
            raise TagMismatchError(
                f"cannot combine {tag.value} and {right.tag.value} subformulas"
            )
        kind = type(self)
        lo, ro = left.order, right.order
        if lo is None or ro is None:
            order = None
        elif kind is Tensor:
            order = (lo[0] * ro[0], lo[1] * ro[1])
        elif kind is Prod:
            order = (lo[0], ro[1]) if lo[1] == ro[0] else None
        else:
            order = lo if lo == ro else None
        self.left = left
        self.right = right
        self.tag = tag
        self.order = order
        self.size = 1 + left.size + right.size
        self.diameter = (
            None if order is None else max(*order, left.diameter, right.diameter)
        )
        self.sum_free = kind is not Sum and left.sum_free and right.sum_free
        self.osl_clean = None


class Sum(_Binary):
    __slots__ = ()


class Prod(_Binary):
    __slots__ = ()


class Tensor(_Binary):
    __slots__ = ()


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


# ---------------------------------------------------------------------------
# Parsing and rendering


# The grammar's whitespace is exactly these four characters; anything else
# (a vertical tab, a no-break space) is part of a token.
_WS_RUN = re.compile(r"[ \t\r\n]*")
# A row's '[' and everything up to the next structural character.
_ROW_BODY = re.compile(r"\[([^\[\]()]*)")
_TOKEN = re.compile(r"[^ \t\r\n]+")
_NOT_TOKEN = str.maketrans("", "", "[] \t\r\n")


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
    in this text to their scalars.  A square atom whose entries are each
    one character, 0 or 1, is known from its text to be a permutation or not.
    """
    entries = []
    widths = []
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
        start = len(entries)
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
        if len(entries) == start:
            raise ParseError("row has no entries", at)
        widths.append(len(entries) - start)
        at = end + 1
    if not widths:
        raise ParseError("atom has no rows", pos)
    n, width = len(widths), widths[0]
    if widths.count(width) != n:
        raise ParseError("atom rows have unequal lengths", pos)
    bits = text[pos:at].translate(_NOT_TOKEN) if n == width else ""
    if len(bits) == n * n and not bits.strip("01"):
        rows = [bits[i : i + n] for i in range(0, n * n, n)]
        hits = {b.find("1"): r for r, b in enumerate(rows) if b.count("1") == 1}
        perm = tuple(map(hits.get, range(n))) if len(hits) == n else None
        return Matrix(tag, n, n, tuple(entries), perm, perm_known=True), at + 1
    return Matrix(tag, n, width, tuple(entries)), at + 1


def _shared_node(nodes: dict, kind, left: Formula, right: Formula) -> Formula:
    """The node kind(left, right) from nodes, built on first use.

    It is keyed on (kind, id(left), id(right)), never on the node: ids
    cost O(1), where a structural key costs a walk of the subtree.  Every
    node built stays reachable from the dict, so as long as the leaves
    stay alive too, no id is reused while the dict is in use.
    """
    key = (kind, id(left), id(right))
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = kind(left, right)
    return node


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
    nodes: dict = {}
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
            node = _shared_node(nodes, kind, left, node)
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
    """Path of the pre-order-first invalid node whose children are valid.

    f must be invalid.  A valid node's subtree is all valid, so the path
    steps into the left child if it is invalid, else into the right."""
    sides = []
    while not (f.left.is_valid and f.right.is_valid):
        f, side = (f.left, "/L") if not f.left.is_valid else (f.right, "/R")
        sides.append(side)
    return "".join(sides)


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
    """Fully parenthesised text; parse_formula round-trips it structurally.

    Each distinct node is rendered once: its text is the slice
    parts[start:end] recorded in spans, and every later occurrence copies
    that slice, so no string is built per node.
    """
    parts = []
    spans = {}  # id(node) -> (start, end) of its text in parts
    texts = {}  # id(matrix) -> text: a shared matrix is rendered once
    scalars = {}  # id(scalar) -> text: so is a shared entry

    def entry(s) -> str:
        text = scalars.get(id(s))
        if text is None:
            text = scalars[id(s)] = render_scalar(s)
        return text

    def visit(node):
        start = len(parts)
        if type(node) is Atom:
            m = node.matrix
            if id(m) not in texts:
                rows = (" ".join(map(entry, m.row(r))) for r in range(m.rows))
                texts[id(m)] = "[[%s]]" % "][".join(rows)
            parts.append(texts[id(m)])
        else:
            parts.append("(")
            span = spans.get(id(node.left))
            if span is None:
                yield visit(node.left)
            else:
                parts.extend(parts[span[0] : span[1]])
            parts.append(_OP_CHAR[type(node)])
            span = spans.get(id(node.right))
            if span is None:
                yield visit(node.right)
            else:
                parts.extend(parts[span[0] : span[1]])
            parts.append(")")
        spans[id(node)] = (start, len(parts))

    walk(visit(f))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Structural metrics and predicates


def size(f: Formula) -> int:
    """Number of nodes: 1 for an atom, else 1 + sizes of both children.

    A shared node counts at every occurrence."""
    return f.size


def diameter(f: Formula) -> int:
    """Largest order component appearing anywhere in the formula."""
    if not f.is_valid:
        raise ValidationError("diameter of an invalid formula is undefined")
    return f.diameter


def is_sum_free(f: Formula) -> bool:
    return f.sum_free


class OslReport(NamedTuple):
    """Outcome of check_osl; is_osl requires all three checks to pass."""

    is_sum_free: bool
    inputs_ok: bool
    output_is_column: bool
    offending_paths: tuple

    @property
    def is_osl(self) -> bool:
        return self.is_sum_free and self.inputs_ok and self.output_is_column

    def raise_unless_osl(self, order: tuple | None = None) -> None:
        """Raise ValidationError unless OSL, naming the offending paths, or
        else the order (if given) of a value that is not a column."""
        paths = list(self.offending_paths)
        if paths:
            raise ValidationError(f"formula is not OSL (offending paths: {paths})")
        if not self.is_osl:
            value = "%dx%d, not a column" % order if order else "not a column"
            raise ValidationError(f"formula is not OSL: value is {value}")


def _osl_atom_ok(m: Matrix) -> bool:
    if m.rows == m.cols:
        return is_orthogonal(m)
    if m.tag is Tag.BOOLEAN:  # a Boolean unit column has a 1
        return m.cols == 1 and any(s.re for s in m.entries)
    return m.cols == 1 and has_orthonormal_columns(m)


def check_osl(f: Formula) -> OslReport:
    """Check the orthogonal sum-free linear shape: sum-free, every atom an
    orthogonal square matrix or a unit column, and a column output.

    Offending paths list every occurrence of every Sum node and every
    failing atom, sorted.
    """
    if f.osl_clean is None:
        walk(_osl_clean(f))
    offending = []
    if not f.osl_clean:
        walk(_osl_offenders(f, "", offending))
    inputs_ok = not any(type(node) is Atom for node, _ in offending)
    column = f.order is not None and f.order[1] == 1
    paths = sorted(_path_text(pos) for _, pos in offending)
    return OslReport(f.sum_free, inputs_ok, column, tuple(paths))


def _osl_clean(f: Formula):
    """Pass for walk over the nodes not yet checked: sets node.osl_clean,
    whether the subtree holds no Sum and no failing atom."""
    if type(f) is Atom:
        f.osl_clean = _osl_atom_ok(f.matrix)
        return
    for child in (f.left, f.right):
        if child.osl_clean is None:
            yield _osl_clean(child)
    f.osl_clean = type(f) is not Sum and f.left.osl_clean and f.right.osl_clean


def _osl_offenders(f: Formula, pos, out: list):
    """Pass for walk over the unclean subtrees only, once per occurrence:
    appends (node, position) of each Sum and failing atom."""
    if type(f) is Atom or type(f) is Sum:
        out.append((f, pos))
    if type(f) is not Atom:
        if not f.left.osl_clean:
            yield _osl_offenders(f.left, (pos, "/L"), out)
        if not f.right.osl_clean:
            yield _osl_offenders(f.right, (pos, "/R"), out)


# ---------------------------------------------------------------------------
# Evaluation


def _checked_order(f: Formula, cap: int, pos) -> None:
    rows, cols = f.order
    if rows * cols > cap:
        raise CapExceededError(_path_text(pos), rows, cols, cap)


# Every formula is evaluated by one post-order walk.  It checks every
# node's order against the cap and keeps each node's plan in one table:
#
#   - a permutation atom's tuple p (column j goes to row p[j]);
#   - a list of sparse columns, for any other non-column atom;
#   - a _Memo {index: image}, for a non-column product or Kronecker
#     product whose factors' plans are permutations;
#   - a sparse column {row: nonzero Scalar}, for a column-valued node;
#   - for any other node, the node itself, which _apply applies to columns
#     through its children's plans without building it; for a product or
#     sum, the number of times it has been applied so far instead.
#
# A product with a column on its right applies its left plan to it.
# Applying an operator at every occurrence costs time exponential in the
# depth of a DAG such as f_(i+1) = f_i * f_i.  So a product or sum rents
# before it buys: once it has been applied as often as it has columns, it
# is multiplied out one unit column at a time, and those sparse columns
# serve every later use: no dense matrix of its order is built.  A Kronecker
# product never is: block by block already keeps its factors apart, and
# its matrix is larger than theirs together.  A node being multiplied out
# first buys each operand still renting that has no more columns than it:
# the operand's columns then cost no more than the node's applying it.
# A memo rents and buys by the same rule, with each index priced at
# _INDEX_PRICE entries, as moving one index through a node by hand costs
# about as much as composing that many entries of its tuple: it records
# images until their price would reach its column count, and then it is
# composed into a tuple (see _moved).
#
# The table is per call and keyed by node identity.  A parent looks its
# child up there before visiting it, so a shared subtree is planned and
# cap-checked once per call, at its first occurrence in post-order.  Every
# later occurrence comes after that one, so the first offender and its
# path are those of the same formula written as a tree.


class _Memo(dict):
    __slots__ = ()


_PERMS = (tuple, _Memo)
_INDEX_PRICE = 16


def _columns(m: Matrix) -> list:
    """m's columns, each as {row: nonzero entry}."""
    e, cols = m.entries, m.cols
    return [
        {i: s for i, s in enumerate(e[j::cols]) if not s.is_zero()} for j in range(cols)
    ]


def _mat_vec(columns: list, x: dict) -> dict:
    out: dict = {}
    for j, v in x.items():
        for i, a in columns[j].items():
            t = scalar_mul(a, v)
            out[i] = scalar_add(out[i], t) if i in out else t
    return {i: v for i, v in out.items() if not v.is_zero()}


def _vec_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for i, v in y.items():
        out[i] = scalar_add(out[i], v) if i in out else v
    return {i: v for i, v in out.items() if not v.is_zero()}


def _moved(f: Formula, indices, plans: dict):
    """f's permutation plan, once it holds the image of every index.

    A memo moves each new index on its own, while the price of its images
    stays below its column count: a product moves it through its right
    factor, then its left, and a Kronecker product splits it by divmod.
    Otherwise the node is composed once, from its factors' tuples.  Nodes
    wait on a stack beside their index (None: every column), and their
    images or tuples on another."""
    plan = plans[id(f)]
    if type(plan) is tuple:
        return plan
    new = [j for j in indices if j not in plan]
    if _INDEX_PRICE * (len(plan) + len(new)) >= f.order[1]:
        new = [None]
    stack = [(f, j, 0) for j in new]
    out: list = []
    while stack:
        g, j, stage = stack.pop()
        if stage == 1:  # a product's left factor moves its right's image
            stage, j = 0, out.pop()
        plan = plans[id(g)]
        if stage == 0:
            if type(plan) is tuple or j in plan:
                out.append(plan if j is None else plan[j])
            elif j is None or _INDEX_PRICE * (len(plan) + 1) >= g.order[1]:
                stack += ((g, j, 3), (g.left, None, 0), (g.right, None, 0))
            elif type(g) is Prod:
                stack += ((g, j, 2), (g.left, None, 1), (g.right, j, 0))
            else:
                n = g.right.order[1]
                stack += ((g, j, 2), (g.left, j // n, 0), (g.right, j % n, 0))
        elif stage == 2 and type(g) is Prod:
            plan[j] = out[-1]
        elif stage == 2:
            a, b = out.pop(), out.pop()  # the left factor's image, the right's
            plan[j] = a * g.right.order[1] + b
            out.append(plan[j])
        else:
            left, right = out.pop(), out.pop()
            n = len(right)
            plan = [left[i] for i in right] if type(g) is Prod else [
                a * n + b for a in left for b in right
            ]
            plans[id(g)] = plan = tuple(plan)
            out.append(plan if j is None else plan[j])
    return plans[id(f)]


def _apply(f: Formula, x: dict, plans: dict):
    """f applied to the sparse column x through its current plan."""
    plan = plans[id(f)]
    kind = type(plan)
    if kind in _PERMS:
        plan = _moved(f, x, plans)
        return {plan[j]: v for j, v in x.items()}
    if kind is dict:  # a column, acting as a one-column operator
        s = x.get(0)
        return {} if s is None else {i: scalar_mul(a, s) for i, a in plan.items()}
    if kind is list:
        return _mat_vec(plan, x)
    if kind is int:
        if plan + 1 >= f.order[1]:
            return _mat_vec((yield _multiplied_out(f, plans)), x)
        plans[id(f)] = plan + 1
    kind = type(f)
    if kind is Prod:
        return (yield _apply(f.left, (yield _apply(f.right, x, plans)), plans))
    if kind is Sum:
        left = yield _apply(f.left, x, plans)
        return _vec_add(left, (yield _apply(f.right, x, plans)))
    # (L # R) x without forming L # R: R acts on each of x's blocks (one
    # per column of L), then L on each strided column of the results.
    rows, cols = f.right.order
    blocks: dict = {}
    for k, v in x.items():
        i, j = divmod(k, cols)
        blocks.setdefault(i, {})[j] = v
    strided: dict = {}
    for i, block in blocks.items():
        for j, v in (yield _apply(f.right, block, plans)).items():
            strided.setdefault(j, {})[i] = v
    out = {}
    for j, column in strided.items():
        for p, v in (yield _apply(f.left, column, plans)).items():
            out[p * rows + j] = v
    return out


def _dense(f: Formula, columns: list) -> Matrix:
    """The matrix of order f.order whose sparse columns are given."""
    rows, cols = f.order
    entries = [scalar_zero(f.tag)] * (rows * cols)
    for j, column in enumerate(columns):
        for i, v in column.items():
            entries[i * cols + j] = v
    return Matrix(f.tag, rows, cols, tuple(entries))


def _multiplied_out(f: Formula, plans: dict):
    """f's sparse columns, one unit column at a time, then f's plan.

    A product's or sum's operands still renting, with at most f's column
    count of columns, are bought first: f's unit columns then apply each
    once, not once per column.  A wider operand, the left one of a product
    such as (2 x k)(k x 2), keeps renting: buying it would apply it k times
    where f's columns apply it twice."""
    if type(f) is Prod or type(f) is Sum:
        for child in (f.left, f.right):
            if type(plans[id(child)]) is int and child.order[1] <= f.order[1]:
                yield _multiplied_out(child, plans)
    plans[id(f)] = f  # meanwhile, so that these applications go uncounted
    one = scalar_one(f.tag)
    columns = []
    for j in range(f.order[1]):
        columns.append((yield _apply(f, {j: one}, plans)))
    plans[id(f)] = columns
    return columns


def _plan(f: Formula, cap: int, pos, plans: dict):
    kind = type(f)
    if kind is not Atom:
        left = plans.get(id(f.left))
        if left is None:
            left = yield _plan(f.left, cap, (pos, "/L"), plans)
        right = plans.get(id(f.right))
        if right is None:
            right = yield _plan(f.right, cap, (pos, "/R"), plans)
    _checked_order(f, cap, pos)
    if kind is Atom and f.order[1] == 1:
        plan = _columns(f.matrix)[0]
    elif kind is Atom:
        plan = f.matrix.perm_or_none() or _columns(f.matrix)
    elif kind is not Sum and type(left) in _PERMS and type(right) in _PERMS:
        plan = _Memo()
    elif f.order[1] != 1:
        plan = f if kind is Tensor else 0
    elif kind is Prod:
        plan = yield _apply(f.left, right, plans)
    elif kind is Tensor:
        rows = f.right.order[0]
        plan = {
            i * rows + j: scalar_mul(a, b)
            for i, a in left.items()
            for j, b in right.items()
        }
    else:
        plan = _vec_add(left, right)
    plans[id(f)] = plan
    return plan


def _sparse_value(f: Formula, entry_cap: int) -> dict:
    """The value {row: nonzero entry} of a valid column formula."""
    return walk(_plan(f, entry_cap, "", {}))


def evaluate(
    f: Formula, entry_cap: int = DEFAULT_ENTRY_CAP, mode: str = "strict"
) -> Matrix:
    """Evaluate bottom-up, left child first.

    Strict mode refuses invalid formulas; paper mode evaluates them to the
    1x1 zero matrix.  Every node's output order is checked against
    entry_cap in post-order, before any work on that node, so the first
    offender in post-order is reported.  Operators are applied to columns
    rather than built; a product or sum is multiplied out only once it has
    been applied as often as it has columns.  A non-column value is
    multiplied out one unit column at a time, or composed if it is a
    permutation.
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
    plans: dict = {}
    plan = walk(_plan(f, entry_cap, "", plans))  # checks the root's order too
    if type(plan) in _PERMS:
        perm = _moved(f, range(f.order[1]), plans)
        return Matrix(f.tag, len(perm), len(perm), None, perm)
    if type(plan) not in (dict, list):
        plan = walk(_multiplied_out(f, plans))
    return _dense(f, [plan] if type(plan) is dict else plan)


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
