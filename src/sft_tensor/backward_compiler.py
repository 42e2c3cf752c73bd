"""Compile OSL formulas into gate arrays via power-of-2 padding.

The padding operator rebuilds a formula so that every subformula order is
a power of 2 while the value survives in a leading block:

    value(padded) = [value(original); 0]

Atoms pad directly: a square matrix grows into blockdiag(A, I), a column
gets trailing zeros.  A tensor node of padded children holds the true
rows of A (x) B scattered through the Kronecker grid, so it is wrapped in
permutation formulas Q and Q' that pull the true rows and columns into
the leading block.  Q is assembled from stride permutations that are
themselves built inductively from I_2 and the 4x4 stride atom, plus one
explicit "made to purpose" permutation atom per fix; everything stays a
formula, not a bare matrix.  Product nodes whose padded inner orders
disagree are fixed by tensoring the smaller side with I_2 factors (left)
or e_2^1 factors (right); the mismatch ratio is always a power of 2.

The padded tree keeps a stronger invariant than the headline equation:
every subformula value is exactly block diagonal, [[val, 0], [0, junk]].
The top-right zero block is what makes the product and tensor cases
compose, so the padding pass maintains it deliberately.

Two consumers sit on top.  formula_to_array reads the padded tree as a
gate array: square atoms become gates, column atoms become input
amplitude blocks, products compose sequentially, tensors in parallel.
Wires are assigned top-down, once per gate: the root owns wires 1..n, a
tensor splits its wires between its factors at the left factor's row
bits, and a product hands its right factor the left factor's open
(column) wires, so every gate is built on its final wires.
pad_formula_with_denominators additionally rewrites column atoms whose
entries have non-power-of-2 denominators, appending integer square terms
that restore the unit norm at denominator pi(d); the decision value of
the instance then scales by exactly Delta^2, the squared product of the
per-atom denominator ratios.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .circuit import Gate, GateArray, StateVector, wire_masks
from .errors import ValidationError
from .formula import (
    DEFAULT_ENTRY_CAP,
    Atom,
    Formula,
    Prod,
    Tensor,
    _checked_order,
    balanced_prod,
    balanced_tensor,
    check_osl,
    walk,
)
from .linalg import (
    Matrix,
    basis_vector,
    block_diag,
    conj_transpose,
    identity,
    integer_column,
    is_unit_column,
    stride_permutation,
)
from .semiring import Tag, make_scalar, scalar_mul, scalar_one, scalar_zero

__all__ = [
    "DenominatorPad",
    "PaddedFormula",
    "formula_to_array",
    "kron_fix_permutations",
    "pad_atom",
    "pad_formula",
    "pad_formula_with_denominators",
    "pad_unit_vector_denominator",
    "pow2_ceil",
    "transpose_formula",
]


def pow2_ceil(n: int) -> int:
    """Least power of 2 that is >= n."""
    if n < 1:
        raise ValidationError(f"pow2_ceil needs a positive integer, got {n}")
    return 1 << (n - 1).bit_length()


def _log2(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(f"{n} is not a power of 2")
    return n.bit_length() - 1


def pad_atom(a: Matrix) -> Matrix:
    """Pad to power-of-2 rows: blockdiag(A, I) for square A, trailing
    zeros for a column.  Other shapes have no padding."""
    target = pow2_ceil(a.rows)
    if a.rows == a.cols:
        if target == a.rows:
            return a
        return block_diag(a, identity(target - a.rows, a.tag))
    if a.cols == 1:
        if target == a.rows:
            return a
        zero = scalar_zero(a.tag)
        return Matrix.from_entries(
            a.tag, target, 1, list(a.entries) + [zero] * (target - a.rows)
        )
    raise ValidationError(
        f"padding is defined for square or column matrices, not {a.rows}x{a.cols}"
    )


def transpose_formula(f: Formula) -> Formula:
    """Formula-level conjugate transpose: reverse products, transpose
    atoms, keep the order of tensor and sum factors."""
    return walk(_transpose(f))


def _transpose(f: Formula):
    if isinstance(f, Atom):
        return Atom(conj_transpose(f.matrix))
    left = yield _transpose(f.left)
    right = yield _transpose(f.right)
    if isinstance(f, Prod):
        return Prod(right, left)
    return type(f)(left, right)


# ---------------------------------------------------------------------------
# Stride-permutation formulas and the Kronecker row/column fixes


def _identity_pow2_formula(l: int, tag: Tag) -> Formula:
    if l == 0:
        return Atom(identity(1, tag))
    return balanced_tensor([Atom(identity(2, tag))] * l)


def _stride_pow2_formula(l: int, tag: Tag) -> Formula:
    """Formula for the stride permutation that deals 2^l entries into two
    piles (evens first).  Induction from I_2 and the 4x4 stride atom."""
    if l == 0:
        return Atom(identity(1, tag))
    if l == 1:
        return Atom(identity(2, tag))
    if l == 2:
        return Atom(stride_permutation(2, 2, tag))
    return Prod(
        Tensor(_stride_pow2_formula(l - 1, tag), Atom(identity(2, tag))),
        Tensor(_identity_pow2_formula(l - 2, tag), _stride_pow2_formula(2, tag)),
    )


def _row_fix(m_true: int, mu: int, n_true: int, nu: int, tag: Tag):
    """Permutation formula moving every true row of a padded Kronecker
    product into the leading block, or None when they already lead.

    Rows of the mu*nu grid are pairs (i, j); true rows are i < m_true and
    j < n_true and must land at i*n_true + j.  When nu == n_true or
    mu == 1 the true rows are already the leading block.
    """
    if mu == 1 or nu == n_true:
        return None
    k = _log2(nu)
    j = _log2(mu)
    # First the full stride: row (i, j) moves to (j, i), grouping by j.
    p_formula = balanced_prod([_stride_pow2_formula(j + k, tag)] * k)
    # Then the block fix: inside the first n_true groups, deal the m_true
    # true rows forward.  tau > 0 here, so U gets an explicit atom.
    tau = nu - n_true
    u = Atom(
        block_diag(stride_permutation(n_true, 2, tag), identity(2 * tau, tag))
    )
    s = Prod(
        Tensor(u, _identity_pow2_formula(j - 1, tag)),
        Tensor(_identity_pow2_formula(k, tag), _stride_pow2_formula(j, tag)),
    )
    r_formula = balanced_prod([s] * j)
    return Prod(r_formula, p_formula)


def kron_fix_permutations(
    m: int, n: int, mu: int, nu: int, tag: Tag, shape: str = "square"
):
    """The (Q, Q') correction formulas for a padded Kronecker node.

    For m x m and n x n inputs A and B (shape "square"),
    Q . (pad(A) (x) pad(B)) . Q' is block diagonal with A (x) B leading.
    For columns (shape "column") there is nothing to fix on the right, so
    Q' is the 1x1 identity.
    """
    if shape not in ("square", "column"):
        raise ValidationError(f"unknown shape {shape!r}")
    if mu != pow2_ceil(m) or nu != pow2_ceil(n):
        raise ValidationError(
            f"padded orders must be pow2_ceil of the true orders; "
            f"got {m}->{mu}, {n}->{nu}"
        )
    fix = _row_fix(m, mu, n, nu, tag)
    q = fix if fix is not None else _identity_pow2_formula(_log2(mu * nu), tag)
    if shape == "column":
        return q, Atom(identity(1, tag))
    return q, transpose_formula(q)


# ---------------------------------------------------------------------------
# The padding pass


@dataclass(frozen=True)
class PaddedFormula:
    original: Formula
    padded: Formula
    block_length: int


def _default_column_pad(m: Matrix):
    return pad_atom(m), m.rows


def _pad(f: Formula, column_pad, done: dict):
    """Padding pass for walk; returns (padded, true_rows, true_cols).

    The padded formula is a DAG.  A subtree that holds no column atom is
    padded once and kept in done by id; column atoms go through
    column_pad at every occurrence, so it sees every occurrence of a
    shared column atom.  A node whose padded children are its own
    children is returned as it is, so a formula whose orders are all
    powers of 2 pads to itself.

    Only the structure and the atoms of f are consulted, never its cached
    orders, so trees whose orders were knocked out by an earlier atom
    rewrite (denominator padding) pass through fine.
    """
    if isinstance(f, Atom):
        m = f.matrix
        if m.cols == 1 and m.rows > 1:
            padded_matrix, true_rows = column_pad(m)
            padded = f if padded_matrix is m else Atom(padded_matrix)
            return padded, true_rows, 1
        padded_matrix = pad_atom(m)
        padded = f if padded_matrix is m else Atom(padded_matrix)
        done[id(f)] = padded, m.rows, m.cols
        return done[id(f)]
    if not isinstance(f, (Tensor, Prod)):
        raise ValidationError("padding is defined for sum-free formulas only")
    left = done.get(id(f.left))
    if left is None:
        left = yield _pad(f.left, column_pad, done)
    right = done.get(id(f.right))
    if right is None:
        right = yield _pad(f.right, column_pad, done)
    result = _pad_binary(f, left, right)
    if id(f.left) in done and id(f.right) in done:
        done[id(f)] = result
    return result


def _pad_binary(f: Formula, left: tuple, right: tuple) -> tuple:
    """The padded Tensor or Prod node f from its children's results."""
    tag = f.tag
    ph, rh, ch = left
    pk, rk, ck = right
    same = ph is f.left and pk is f.right

    if isinstance(f, Tensor):
        padded = f if same else Tensor(ph, pk)
        row_fix = _row_fix(rh, ph.order[0], rk, pk.order[0], tag)
        if row_fix is not None:
            padded = Prod(row_fix, padded)
        col_fix = _row_fix(ch, ph.order[1], ck, pk.order[1], tag)
        if col_fix is not None:
            padded = Prod(padded, transpose_formula(col_fix))
        return padded, rh * rk, ch * ck

    inner_left = ph.order[1]
    inner_right = pk.order[0]
    if inner_left == inner_right:
        return f if same else Prod(ph, pk), rh, ck
    if inner_left < inner_right:
        i = _log2(inner_right // inner_left)
        wide = Tensor(_identity_pow2_formula(i, tag), ph)
        return Prod(wide, pk), rh, ck
    i = _log2(inner_left // inner_right)
    top = balanced_tensor([Atom(basis_vector(2, 1, tag))] * i)
    return Prod(ph, Tensor(top, pk)), rh, ck


def pad_formula(f: Formula) -> PaddedFormula:
    """Pad an OSL formula so every subformula order is a power of 2; the
    value survives as the leading block of the padded value."""
    check_osl(f).raise_unless_osl(f.order)
    padded, true_rows, _ = walk(_pad(f, _default_column_pad, {}))
    return PaddedFormula(original=f, padded=padded, block_length=true_rows)


# ---------------------------------------------------------------------------
# Denominator normalization


@dataclass(frozen=True)
class DenominatorPad:
    original: Matrix
    padded: Matrix
    scale: Fraction
    b_terms: tuple


def _three_squares_possible(n: int) -> bool:
    # Legendre: n is a sum of three squares unless n = 4^a * (8b + 7).
    while n % 4 == 0:
        n //= 4
    return n % 8 != 7


def _square_terms(residual: int, max_terms: int):
    """residual as a sum of at most max_terms positive squares, largest
    first with backtracking; None if impossible."""
    if residual == 0:
        return ()
    if max_terms == 0:
        return None
    if max_terms == 1:
        s = math.isqrt(residual)
        return (s,) if s * s == residual else None
    if max_terms == 3 and not _three_squares_possible(residual):
        return None
    for s in range(math.isqrt(residual), 0, -1):
        rest = _square_terms(residual - s * s, max_terms - 1)
        if rest is not None:
            return (s,) + rest
    return None


def pad_unit_vector_denominator(v: Matrix) -> DenominatorPad:
    """Rewrite a rational unit column so its common denominator is a
    power of 2.

    With denominator d and numerators a_i, the entries become a_i/pi(d)
    and integer terms b_1..b_p with pi(d)^2 = sum a_i^2 + sum b_j^2 are
    appended after a zero gap, restoring the unit norm.  The new length
    is the least power of 4 exceeding n + 3*ceil(log2 d).  Vectors whose
    d is already a power of 2 come back unchanged with scale 1.
    """
    if v.tag not in (Tag.NONNEG_RATIONAL, Tag.RATIONAL):
        raise ValidationError(
            f"denominator padding is defined over the rational tags, not {v.tag.value}"
        )
    if v.cols != 1:
        raise ValidationError(f"expected a column, got {v.rows}x{v.cols}")
    if not is_unit_column(v):
        raise ValidationError("vector is not a unit column")
    d, numerators = integer_column(v.entries)
    if d & (d - 1) == 0:
        return DenominatorPad(v, v, Fraction(1), ())
    pi = pow2_ceil(d)
    bound = 3 * math.ceil(math.log2(d))
    terms = _square_terms(pi * pi - d * d, min(4, bound))
    if terms is None or len(terms) > bound:
        raise ValidationError(
            f"no sum-of-squares completion within {bound} terms for d={d}"
        )
    n = v.rows
    length = 1
    while length <= n + bound:
        length <<= 2
    entries = [scalar_zero(v.tag)] * (length - len(terms))
    for i, (a, _) in numerators.items():
        entries[i] = make_scalar(v.tag, Fraction(a, pi))
    entries += [make_scalar(v.tag, Fraction(b, pi)) for b in terms]
    padded = Matrix.from_entries(v.tag, length, 1, entries)
    return DenominatorPad(v, padded, Fraction(d, pi), terms)


def pad_formula_with_denominators(f: Formula, k: int):
    """Padded decision instance with power-of-2 denominators.

    Returns (g, k_eff, delta): g is a padded formula whose last k_eff
    entries carry the original accepting window, scaled so that the
    partial trace over them equals delta^2 times the original's.  k is
    clamped to the output length, matching the trace semantics.
    """
    if k < 1:
        raise ValidationError(f"k must be positive, got {k}")
    if f.tag is Tag.GAUSSIAN_RATIONAL:
        raise ValidationError(
            "denominator scaling is defined over the real rational tags"
        )
    check_osl(f).raise_unless_osl(f.order)

    deltas = []

    def column_pad(m: Matrix):
        if m.tag is Tag.BOOLEAN:
            return _default_column_pad(m)
        pad = pad_unit_vector_denominator(m)
        deltas.append(pad.scale)
        return pad_atom(pad.padded), m.rows

    padded, true_rows, _ = walk(_pad(f, column_pad, {}))
    n_out = true_rows
    total = padded.order[0]
    k_eff = min(k, n_out)
    delta = math.prod(deltas, start=Fraction(1))
    if n_out == total:
        return padded, k_eff, delta
    # Route the accepting window (the k_eff entries ending the true
    # block) to the very end, everything else forward in order.
    perm = [0] * total
    tail = range(n_out - k_eff, n_out)
    front = [i for i in range(total) if not n_out - k_eff <= i < n_out]
    for pos, i in enumerate(front):
        perm[i] = pos
    for off, i in enumerate(tail):
        perm[i] = total - k_eff + off
    mover = Atom(Matrix.from_perm(f.tag, perm))
    return Prod(mover, padded), k_eff, delta


# ---------------------------------------------------------------------------
# Padded formula -> gate array


# Both merges reuse the longer schedule, so a chain is read in linear time.
def _joined(first: deque, then: deque) -> deque:
    """first's levels, then then's."""
    if len(first) < len(then):
        then.extendleft(reversed(first))
        return then
    first.extend(then)
    return first


def _side_by_side(left: deque, right: deque) -> deque:
    """Level i runs left's level i, then right's."""
    for a, b in zip(left, right):
        a += b
        b[:] = a
    return max(left, right, key=len)


def _rep(f: Formula, wires: tuple):
    """Pass for walk: read f with its output bits on the given global
    wires, most significant first; each gate is built once, on the wires
    it keeps.

    Returns (open, blocks, levels).  open lists, in column-bit order, the
    wires still accepting input; blocks carry amplitude vectors for closed
    wires (a 1x1 subformula is a block on no wires: its value scales
    every amplitude); levels is the gate schedule, a deque of gate lists.
    """
    if isinstance(f, Atom):
        m = f.matrix
        if m.cols == 1:
            return (), ((wires, tuple(m.entries)),), deque()
        return wires, (), deque([[Gate(wires, m)]])

    if isinstance(f, Tensor):
        split = _log2(f.left.order[0])
        h_open, h_blocks, h_levels = yield _rep(f.left, wires[:split])
        k_open, k_blocks, k_levels = yield _rep(f.right, wires[split:])
        return h_open + k_open, h_blocks + k_blocks, _side_by_side(h_levels, k_levels)

    # Product: the right factor runs first, on the left factor's open
    # wires (its output bits feed the left factor's column bits).
    h_open, h_blocks, h_levels = yield _rep(f.left, wires)
    k_open, k_blocks, k_levels = yield _rep(f.right, h_open)
    return k_open, h_blocks + k_blocks, _joined(k_levels, h_levels)


def formula_to_array(f: Formula):
    """Compile an OSL formula to (GateArray, StateVector).

    simulate(array, state) equals evaluate(pad_formula(f).padded): the
    value in the leading block_length entries, junk after.  The state
    lists every amplitude, so it is refused, like evaluate's value, when
    it would have over DEFAULT_ENTRY_CAP of them.  Its nonzero amplitudes
    are built from the column blocks, which partition the wires, so no
    other index is visited.
    """
    padded = pad_formula(f).padded
    _checked_order(padded, DEFAULT_ENTRY_CAP, "")
    rows = padded.order[0]
    width = _log2(rows)
    if width == 0:
        raise ValidationError(
            "formula value is a single scalar; there is no wire to build an array on"
        )
    _, blocks, levels = walk(_rep(padded, tuple(range(1, width + 1))))
    support = {0: scalar_one(f.tag)}
    for ws, vec in blocks:
        masks = wire_masks(ws, width)
        support = {
            g | masks[j]: scalar_mul(a, v)
            for g, a in support.items()
            for j, v in enumerate(vec)
            if not v.is_zero()
        }
    entries = [scalar_zero(f.tag)] * rows
    for g, amp in support.items():
        entries[g] = amp
    state = StateVector(width, Matrix.from_entries(f.tag, rows, 1, entries))
    return GateArray(f.tag, width, levels), state
