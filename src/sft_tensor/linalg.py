"""Dense matrices over a tagged semiring.

Storage is row-major and logically dense.  Because almost every matrix this
package moves around is a permutation matrix (builtin gates, stride
permutations, swap ladders, padding corrections), a Matrix may internally
hold just the permutation `p`, where column j carries its single 1 in row
p[j].  The compact form is an invisible optimization: entries are
materialized on demand and every observable behavior matches the dense
matrix exactly.

Index conventions: the public constructors `basis_vector(n, i, ...)` use the
mathematical 1-based i of e_i^n; entry access via `at(r, c)` is 0-based.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import ShapeError, TagMismatchError
from .semiring import (
    Scalar,
    Tag,
    conjugate,
    norm_square,
    norm_tag,
    scalar_add,
    scalar_mul,
    scalar_one,
    scalar_zero,
)


class Matrix:
    """An immutable rows x cols matrix of same-tag scalars."""

    __slots__ = ("tag", "rows", "cols", "_entries", "_perm", "_perm_known")

    def __init__(
        self,
        tag: Tag,
        rows: int,
        cols: int,
        entries: tuple[Scalar, ...] | None,
        perm: tuple[int, ...] | None = None,
        perm_known: bool = False,
    ):
        if rows < 1 or cols < 1:
            raise ShapeError(f"matrix order must be positive, got {rows}x{cols}")
        self.tag = tag
        self.rows = rows
        self.cols = cols
        self._entries = entries
        self._perm = perm
        # perm_known with no perm: known not to be a permutation.
        self._perm_known = perm_known or perm is not None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_entries(
        cls, tag: Tag, rows: int, cols: int, entries: Sequence[Scalar]
    ) -> Matrix:
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        for s in entries:
            if s.tag is not tag:
                raise TagMismatchError(
                    f"entry tagged {s.tag.value} in a {tag.value} matrix"
                )
        return cls(tag, rows, cols, entries)

    @classmethod
    def from_rows(cls, tag: Tag, row_lists: Sequence[Sequence[Scalar]]) -> Matrix:
        if not row_lists:
            raise ShapeError("matrix needs at least one row")
        width = len(row_lists[0])
        for row in row_lists:
            if len(row) != width:
                raise ShapeError("all rows must have equal length")
        flat = [s for row in row_lists for s in row]
        return cls.from_entries(tag, len(row_lists), width, flat)

    @classmethod
    def from_perm(cls, tag: Tag, perm: Sequence[int]) -> Matrix:
        """The permutation matrix with a 1 in row perm[j] of column j."""
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ShapeError(f"not a permutation of 0..{n - 1}: {perm}")
        return cls(tag, n, n, None, tuple(perm))

    def __repr__(self) -> str:
        kind = "perm" if self._perm is not None else "dense"
        return f"Matrix({self.tag.value}, {self.rows}x{self.cols}, {kind})"

    # -- access -----------------------------------------------------------

    @property
    def entries(self) -> tuple[Scalar, ...]:
        """Row-major entries, materializing the compact form if needed."""
        if self._entries is None:
            n = self.rows
            zero = scalar_zero(self.tag)
            one = scalar_one(self.tag)
            flat = [zero] * (n * n)
            for col, row in enumerate(self._perm):
                flat[row * n + col] = one
            self._entries = tuple(flat)
        return self._entries

    def at(self, r: int, c: int) -> Scalar:
        """Entry in row r, column c (0-based)."""
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ShapeError(f"index ({r},{c}) outside {self.rows}x{self.cols}")
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[Scalar, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def perm_or_none(self) -> tuple[int, ...] | None:
        """The permutation this matrix encodes, if it is one.

        Detection runs once and is cached; dense matrices that happen to be
        permutation matrices (for example products of signed permutations)
        benefit from the same fast paths as natively compact ones.
        """
        if not self._perm_known:
            self._perm_known = True
            if self.rows == self.cols:
                e = self.entries
                n = self.rows
                p = [-1] * n
                row_used = [False] * n
                ok = True
                for c in range(n):
                    hit = -1
                    for r in range(n):
                        s = e[r * n + c]
                        if s.is_zero():
                            continue
                        if not s.is_one() or hit >= 0:
                            ok = False
                            break
                        hit = r
                    if not ok or hit < 0 or row_used[hit]:
                        ok = False
                        break
                    row_used[hit] = True
                    p[c] = hit
                if ok:
                    self._perm = tuple(p)
        return self._perm

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (
            self.tag is not other.tag
            or self.rows != other.rows
            or self.cols != other.cols
        ):
            return False
        if self._perm is not None and other._perm is not None:
            return self._perm == other._perm
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.tag, self.rows, self.cols, self.entries))


# -- constructors ---------------------------------------------------------


def zero_matrix(rows: int, cols: int, tag: Tag) -> Matrix:
    z = scalar_zero(tag)
    return Matrix(tag, rows, cols, (z,) * (rows * cols))


def identity(n: int, tag: Tag) -> Matrix:
    if n < 1:
        raise ShapeError("identity order must be positive")
    return Matrix.from_perm(tag, range(n))


def basis_vector(n: int, i: int, tag: Tag) -> Matrix:
    """The n x 1 column e_i^n with a single 1 in (1-based) position i."""
    if not 1 <= i <= n:
        raise ShapeError(f"basis index {i} outside 1..{n}")
    z = scalar_zero(tag)
    entries = [z] * n
    entries[i - 1] = scalar_one(tag)
    return Matrix(tag, n, 1, tuple(entries))


def stride_permutation(m: int, n: int, tag: Tag) -> Matrix:
    """The mn x mn permutation sending e_i^m (x) e_j^n to e_j^n (x) e_i^m.

    Reading a length-mn vector as m consecutive blocks of n, it collects
    entries with stride n; multiplying by it performs the perfect shuffle
    that transposes the m x n data layout.
    """
    if m < 1 or n < 1:
        raise ShapeError("stride permutation needs positive block counts")
    perm = [0] * (m * n)
    for i in range(m):
        for j in range(n):
            perm[i * n + j] = j * m + i
    return Matrix.from_perm(tag, perm)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    """The square block-diagonal matrix diag(a, b)."""
    if a.tag is not b.tag:
        raise TagMismatchError("block_diag operands must share a tag")
    if a.rows != a.cols or b.rows != b.cols:
        raise ShapeError("block_diag needs square blocks")
    pa, pb = a.perm_or_none(), b.perm_or_none()
    if pa is not None and pb is not None:
        return Matrix.from_perm(a.tag, list(pa) + [a.rows + r for r in pb])
    n = a.rows + b.rows
    z = scalar_zero(a.tag)
    flat = [z] * (n * n)
    for r in range(a.rows):
        flat[r * n : r * n + a.cols] = a.row(r)
    for r in range(b.rows):
        flat[(a.rows + r) * n + a.cols : (a.rows + r) * n + n] = b.row(r)
    return Matrix(a.tag, n, n, tuple(flat))


# -- arithmetic -----------------------------------------------------------


def _check_tags(a: Matrix, b: Matrix) -> None:
    if a.tag is not b.tag:
        raise TagMismatchError(f"cannot combine {a.tag.value} with {b.tag.value}")


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    _check_tags(a, b)
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeError(
            f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols} matrices"
        )
    entries = tuple(scalar_add(x, y) for x, y in zip(a.entries, b.entries))
    return Matrix(a.tag, a.rows, a.cols, entries)


def _invert_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for j, r in enumerate(p):
        inv[r] = j
    return tuple(inv)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    _check_tags(a, b)
    if a.cols != b.rows:
        raise ShapeError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    pa, pb = a.perm_or_none(), b.perm_or_none()
    if pa is not None and pb is not None:
        # A composite of permutations is one; skip from_perm's re-check.
        return Matrix(a.tag, a.rows, a.rows, None, tuple([pa[j] for j in pb]))
    zero = scalar_zero(a.tag)
    n, m, p = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out = [zero] * (n * p)
    for i in range(n):
        base = i * m
        for k in range(m):
            aik = ae[base + k]
            if aik.is_zero():
                continue
            brow = be[k * p : (k + 1) * p]
            orow = i * p
            for j in range(p):
                bkj = brow[j]
                if bkj.is_zero():
                    continue
                out[orow + j] = scalar_add(out[orow + j], scalar_mul(aik, bkj))
    return Matrix(a.tag, n, p, tuple(out))


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product, of order (a.rows*b.rows) x (a.cols*b.cols)."""
    _check_tags(a, b)
    rows, cols = a.rows * b.rows, a.cols * b.cols
    pa, pb = a.perm_or_none(), b.perm_or_none()
    if pa is not None and pb is not None:
        nb = b.rows
        perm = tuple([ra * nb + rb for ra in pa for rb in pb])
        return Matrix(a.tag, rows, rows, None, perm)
    zero = scalar_zero(a.tag)
    out = [zero] * (rows * cols)
    for q in range(a.rows):
        for r in range(a.cols):
            aqr = a.at(q, r)
            if aqr.is_zero():
                continue
            for s in range(b.rows):
                dest = (q * b.rows + s) * cols + r * b.cols
                brow = b.row(s)
                for t in range(b.cols):
                    bst = brow[t]
                    if not bst.is_zero():
                        out[dest + t] = scalar_mul(aqr, bst)
    return Matrix(a.tag, rows, cols, tuple(out))


def conj_transpose(a: Matrix) -> Matrix:
    """The conjugate transpose; a plain transpose for non-Gaussian tags."""
    p = a.perm_or_none()
    if p is not None:
        return Matrix.from_perm(a.tag, _invert_perm(p))
    flat = [
        conjugate(a.entries[r * a.cols + c])
        for c in range(a.cols)
        for r in range(a.rows)
    ]
    return Matrix(a.tag, a.cols, a.rows, tuple(flat))


# -- predicates -----------------------------------------------------------


def is_orthogonal(m: Matrix) -> bool:
    """Whether the conjugate transpose is a two-sided inverse.

    Over the Booleans and the nonnegative rationals this is equivalent to
    being a permutation matrix; there is no cancellation available to make
    any other nonnegative matrix norm-preserving, so only the permutation
    check runs for those tags.  Otherwise m'm = I is tested on integers
    (has_orthonormal_columns); for a square m it implies mm' = I.
    """
    if m.rows != m.cols:
        raise ShapeError("orthogonality is defined for square matrices only")
    if m.perm_or_none() is not None:
        return True
    if m.tag in (Tag.BOOLEAN, Tag.NONNEG_RATIONAL):
        return False
    return has_orthonormal_columns(m)


def integer_column(entries: Sequence[Scalar]) -> tuple[int, dict]:
    """A column over its nonzero entries' least common denominator d:
    (d, {row: (re * d, im * d)}), both components integers."""
    nonzero = {i: (s.re, s.im) for i, s in enumerate(entries) if s.re or s.im}
    d = math.lcm(*(x.denominator for pair in nonzero.values() for x in pair))
    return d, {
        i: (a.numerator * (d // a.denominator), b.numerator * (d // b.denominator))
        for i, (a, b) in nonzero.items()
    }


def has_orthonormal_columns(m: Matrix) -> bool:
    """Whether m'm = I, on integers (integer_column): each column's squared
    norm is d^2 and each pair's conjugate product 0, tested until one fails.
    A column matrix passes exactly when it is a unit column."""
    e, cols = m.entries, m.cols
    columns = [integer_column(e[j::cols]) for j in range(cols)]
    for j, (d, u) in enumerate(columns):
        for _, v in columns[: j + 1]:
            pairs = [(u[i], v[i]) for i in u.keys() & v.keys()]
            re = sum(a * c + b * g for (a, b), (c, g) in pairs)
            im = sum(b * c - a * g for (a, b), (c, g) in pairs)
            if im or re != (d * d if v is u else 0):
                return False
    return True


def is_unit_column(v: Matrix) -> bool:
    """Whether v is a column of squared-norm exactly 1.

    Boolean columns count as unit vectors as soon as they are nonzero.
    """
    if v.cols != 1:
        raise ShapeError("unit-vector test needs a column")
    if v.tag is Tag.BOOLEAN:
        return any(not s.is_zero() for s in v.entries)
    total = scalar_zero(norm_tag(v.tag))
    for s in v.entries:
        total = scalar_add(total, norm_square(s))
    return total.is_one()


def partial_trace_outer(v: Matrix, k: int) -> Scalar:
    """Sum of the last k diagonal entries of v v-dagger, never materialized.

    Diagonal entry i of the outer product is |v_i|^2, so this is the squared
    mass of the last k amplitudes, counted from the bottom of the column;
    k past the length simply yields the full trace.  Boolean columns OR
    their last k entries.
    """
    if v.cols != 1:
        raise ShapeError("partial trace of an outer product needs a column")
    if k < 0:
        raise ShapeError("partial trace order must be nonnegative")
    k = min(k, v.rows)
    tail = v.entries[v.rows - k :] if k else ()
    total = scalar_zero(norm_tag(v.tag))
    for s in tail:
        if not s.is_zero():  # compiled circuits' columns are mostly zeros
            total = scalar_add(total, norm_square(s))
    return total
