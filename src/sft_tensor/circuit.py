"""Leveled gate arrays and an exact state-vector simulator.

An array has a fixed wire count n and an ordered list of levels; gates on
one level touch disjoint wire sets.  Wire 1 is the most significant bit of
the basis index, so the bit string b_1..b_n sits on line 1 + sum(b_i *
2^(n-i)) of a state vector.  This big-endian convention is shared by every
module in the package.

Gates may name non-adjacent and even non-monotone wire lists.  A gate
whose wires arrive out of order is normalized on construction: the wires
are sorted and the matrix is conjugated by the permutation that reorders
the local bits, which leaves the action on the state unchanged.  Making
gates *adjacent* is deliberately not done here; that rewriting belongs to
the forward compiler, where it is visible in the emitted formula.

simulate holds the state sparse, as {basis index: nonzero amplitude},
and updates it gate by gate in _apply_gate, the one state kernel.  Only
the output is densified; no 2^n x 2^n operator is built.  level_operator
builds exactly that operator from embeddings, an independent route
against which the simulator is tested.  Both take every wire-bit index
from wire_masks: a basis index is a mask of a gate's wires or'ed with a
mask of the other wires.

Text format, line oriented::

    width 3
    level
    gate toffoli 1 2 3
    level
    gate [[0 1][1 0]] 2
    input basis 110

An inline matrix uses the atom grammar from the formula module.  The
input line is optional and takes either a bit string or an atom spelling
out the 2^n amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, ParseError, TagMismatchError, ValidationError
from .formula import DEFAULT_ENTRY_CAP, Atom, parse_formula, render_formula, scan_atom
from .linalg import (
    Matrix,
    basis_vector,
    conj_transpose,
    identity,
    is_orthogonal,
    is_unit_column,
    kronecker,
    mat_mul,
    partial_trace_outer,
)
from .semiring import Scalar, Tag, scalar_add, scalar_mul, scalar_zero

__all__ = [
    "ArrayReport",
    "BUILTIN_GATE_NAMES",
    "Gate",
    "GateArray",
    "StateVector",
    "acceptance_probability",
    "builtin_gate",
    "level_operator",
    "parse_gate_array",
    "render_gate_array",
    "simulate",
    "validate_array",
    "wire_masks",
]

# Permutations in column convention: the gate maps e_j to e_[perm[j]].
_BUILTIN_PERMS = {
    "not": (1, 0),
    "cnot": (0, 1, 3, 2),
    "swap": (0, 2, 1, 3),
    "toffoli": (0, 1, 2, 3, 4, 5, 7, 6),
    "fredkin": (0, 1, 2, 3, 4, 6, 5, 7),
}

BUILTIN_GATE_NAMES = ("not", "cnot", "swap", "toffoli", "fredkin", "rot35")

_PERM_NAMES = {perm: name for name, perm in _BUILTIN_PERMS.items()}
# rot35, the one builtin that is not a permutation, where negatives exist.
_ROT35 = {
    t: parse_formula("[[3/5 4/5][-4/5 3/5]]", t).matrix
    for t in (Tag.RATIONAL, Tag.GAUSSIAN_RATIONAL)
}


def builtin_gate(name: str, tag: Tag) -> Matrix:
    """The library gate matrix under the given tag.

    rot35 is the rational rotation [[3/5, 4/5], [-4/5, 3/5]]; it needs
    negatives and is refused under the Boolean and nonnegative tags.
    """
    if name in _BUILTIN_PERMS:
        return Matrix.from_perm(tag, list(_BUILTIN_PERMS[name]))
    if name == "rot35":
        if tag not in _ROT35:
            raise ValidationError(f"rot35 has negative entries and no {tag.value} form")
        return _ROT35[tag]
    raise ValidationError(f"unknown gate name {name!r}")


def wire_masks(wires, width: int) -> list:
    """masks[j] sets, among width wires, the bits of local index j on the
    given wires; the first listed wire carries j's most significant bit."""
    masks = [0]
    for wire in wires:
        bit = 1 << (width - wire)
        masks = [m | b for m in masks for b in (0, bit)]
    return masks


def _resorted_matrix(matrix: Matrix, listed: tuple) -> Matrix:
    """Conjugate so the gate reads its local bits in sorted-wire order."""
    rank = {wire: i for i, wire in enumerate(sorted(listed), start=1)}
    pi = wire_masks([rank[wire] for wire in listed], len(listed))
    p = Matrix.from_perm(matrix.tag, pi)
    return mat_mul(mat_mul(p, matrix), conj_transpose(p))


@dataclass(frozen=True)
class Gate:
    """A gate on an ordered wire list; wire i is local bit i, MSB first.

    Out-of-order wire lists are normalized on construction (wires sorted,
    matrix conjugated accordingly) whenever the matrix order permits.
    """

    wires: tuple
    matrix: Matrix

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        ordered = tuple(sorted(wires))
        if (
            wires != ordered
            and len(set(wires)) == len(wires)
            and self.matrix.rows == self.matrix.cols == 1 << len(wires)
        ):
            object.__setattr__(self, "matrix", _resorted_matrix(self.matrix, wires))
            object.__setattr__(self, "wires", ordered)


@dataclass(frozen=True)
class GateArray:
    tag: Tag
    width: int
    levels: tuple

    def __post_init__(self):
        if self.width < 1:
            raise ValidationError("gate array width must be positive")
        object.__setattr__(
            self, "levels", tuple(tuple(level) for level in self.levels)
        )

    @property
    def depth(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class StateVector:
    width: int
    amplitudes: Matrix

    def __post_init__(self):
        if self.width < 1:
            raise ValidationError("state width must be positive")
        m = self.amplitudes
        if m.cols != 1 or m.rows != 1 << self.width:
            raise ValidationError(
                f"state on {self.width} wires needs a {1 << self.width}x1 "
                f"column, got {m.rows}x{m.cols}"
            )
        if not is_unit_column(m):
            raise ValidationError("state amplitudes are not a unit column")

    @property
    def tag(self) -> Tag:
        return self.amplitudes.tag

    @classmethod
    def basis(cls, width: int, bits: str, tag: Tag) -> "StateVector":
        if len(bits) != width or any(c not in "01" for c in bits):
            raise ValidationError(
                f"basis label must be {width} bits of 0/1, got {bits!r}"
            )
        if 1 << width > DEFAULT_ENTRY_CAP:  # refused before it is built
            raise CapExceededError(
                "", 1 << width, 1, DEFAULT_ENTRY_CAP, "input basis state"
            )
        return cls(width, basis_vector(1 << width, int(bits, 2) + 1, tag))

    def basis_bits(self) -> str | None:
        """The bit string if this is a basis state, else None."""
        hit = None
        for i, a in enumerate(self.amplitudes.entries):
            if a.is_zero():
                continue
            if hit is not None or not a.is_one():
                return None
            hit = i
        return format(hit, f"0{self.width}b") if hit is not None else None


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ArrayReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_array(c: GateArray) -> ArrayReport:
    """Check wire ranges, per-level disjointness, matrix orders and
    orthogonality; returns all violations rather than stopping at one."""
    violations = []
    # id(matrix) -> is_orthogonal(matrix): gates share matrix objects (every
    # rot35 gate has _ROT35[tag]), and c keeps each one alive, so no id is
    # reused while this runs.
    orthogonal: dict = {}
    for li, level in enumerate(c.levels, start=1):
        used: set = set()
        for gi, gate in enumerate(level, start=1):
            where = f"level {li} gate {gi}"
            w = len(gate.wires)
            if w == 0:
                violations.append(f"{where}: gate touches no wires")
                continue
            if len(set(gate.wires)) != w:
                violations.append(f"{where}: repeated wire")
            bad = [x for x in gate.wires if not 1 <= x <= c.width]
            if bad:
                violations.append(
                    f"{where}: wire {bad[0]} outside 1..{c.width}"
                )
            m = gate.matrix
            if m.tag is not c.tag:
                violations.append(
                    f"{where}: matrix tag {m.tag.value} != array tag {c.tag.value}"
                )
            if not (m.rows == m.cols == 1 << w):
                violations.append(
                    f"{where}: matrix order {m.rows}x{m.cols}, "
                    f"expected {1 << w}x{1 << w}"
                )
            elif m.tag is c.tag:
                if id(m) not in orthogonal:
                    orthogonal[id(m)] = is_orthogonal(m)
                if not orthogonal[id(m)]:
                    violations.append(f"{where}: matrix is not orthogonal")
            overlap = used & set(gate.wires)
            if overlap:
                violations.append(
                    f"{where}: wire {min(overlap)} already used on this level"
                )
            used |= set(gate.wires)
    return ArrayReport(tuple(violations))


# ---------------------------------------------------------------------------
# Simulation


def _apply_gate(amps: dict, gate: Gate, n: int) -> dict:
    """One gate on a sparse state {basis index: nonzero amplitude}.

    on masks every one of the gate's wires, so g & on picks the gate's
    local index out of basis index g.  A permutation gate moves that
    index; any other gate scatters the amplitude along the matching
    column of its matrix, and exact cancellations are dropped.
    """
    masks = wire_masks(gate.wires, n)
    on = masks[-1]
    m = gate.matrix
    perm = m.perm_or_none()
    if perm is not None:
        moves = {masks[j]: masks[p] for j, p in enumerate(perm)}
        return {g & ~on | moves[g & on]: a for g, a in amps.items()}
    column = {
        mask: [(r, x) for r, x in zip(masks, m.entries[j :: m.cols]) if not x.is_zero()]
        for j, mask in enumerate(masks)
    }
    out: dict = {}
    for g, a in amps.items():
        base = g & ~on
        for mask, x in column[g & on]:
            term = scalar_mul(x, a)
            h = base | mask
            out[h] = scalar_add(out[h], term) if h in out else term
    return {g: a for g, a in out.items() if not a.is_zero()}


def _run_levels(c: GateArray, amps: dict) -> dict:
    """The sparse state after every level of c."""
    for level in c.levels:
        for gate in level:
            amps = _apply_gate(amps, gate, c.width)
    return amps


def simulate(c: GateArray, s: StateVector) -> StateVector:
    """Run the array on the state, level by level."""
    report = validate_array(c)
    if not report.ok:
        raise ValidationError(f"invalid gate array: {report.violations[0]}")
    if s.width != c.width:
        raise ValidationError(
            f"state width {s.width} != array width {c.width}"
        )
    if s.tag is not c.tag:
        raise TagMismatchError(
            f"state tag {s.tag.value} != array tag {c.tag.value}"
        )
    amps = {g: a for g, a in enumerate(s.amplitudes.entries) if not a.is_zero()}
    out = [scalar_zero(c.tag)] * (1 << c.width)
    for g, a in _run_levels(c, amps).items():
        out[g] = a
    return StateVector(c.width, Matrix.from_entries(c.tag, len(out), 1, out))


def _embed_gate(gate: Gate, n: int, tag: Tag) -> Matrix:
    """The full 2^n operator of one gate: route its wires to the top bits,
    apply matrix (x) identity, route back."""
    rest = [w for w in range(1, n + 1) if w not in gate.wires]
    # Column j of q carries the routed index j to the global one.
    q = Matrix.from_perm(tag, wire_masks(list(gate.wires) + rest, n))
    wide = kronecker(gate.matrix, identity(1 << len(rest), tag))
    return mat_mul(q, mat_mul(wide, conj_transpose(q)))


def level_operator(c: GateArray, level_index: int) -> Matrix:
    """The 2^n x 2^n operator of level level_index (1-based).

    Built from per-gate embeddings, independently of simulate's index
    arithmetic; a level with no gates is the identity.
    """
    if not 1 <= level_index <= len(c.levels):
        raise ValidationError(
            f"level {level_index} outside 1..{len(c.levels)}"
        )
    op = identity(1 << c.width, c.tag)
    for gate in sorted(c.levels[level_index - 1], key=lambda g: g.wires[0]):
        op = mat_mul(_embed_gate(gate, c.width, c.tag), op)
    return op


def acceptance_probability(s: StateVector, k: int) -> Scalar:
    """Probability mass of the k lexicographically last basis states."""
    return partial_trace_outer(s.amplitudes, k)


# ---------------------------------------------------------------------------
# Text format


def _split_gate_spec(rest: str, tag: Tag, ln: int):
    """Split a gate line body into (matrix, wire-text)."""
    if rest.startswith("["):
        try:
            matrix, end = scan_atom(rest, 0, tag, {})
        except ParseError as exc:
            raise ParseError(f"line {ln}: {exc}") from None
        return matrix, rest[end:]
    name, _, wire_text = rest.partition(" ")
    try:
        matrix = builtin_gate(name, tag)
    except ValidationError as exc:
        raise ParseError(f"line {ln}: {exc}") from None
    return matrix, wire_text


def _positive_int(text: str):
    """The value of a positive decimal numeral, or None."""
    if not text.isdecimal():
        return None
    try:
        value = int(text)
    except ValueError:  # longer than the interpreter's digit limit
        return None
    return value if value >= 1 else None


def _parse_wires(text: str, ln: int) -> tuple:
    parts = text.split()
    if not parts:
        raise ParseError(f"line {ln}: gate needs at least one wire")
    wires = []
    for part in parts:
        wire = _positive_int(part)
        if wire is None:
            raise ParseError(f"line {ln}: bad wire index {part!r}")
        wires.append(wire)
    return tuple(wires)


def parse_gate_array(text: str, tag: Tag):
    """Parse the line-oriented format; returns (GateArray, StateVector or
    None).  Syntax problems raise ParseError naming the line; the array's
    semantic health is validate_array's business."""
    width = None
    levels: list = []
    state = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "width":
            if width is not None:
                raise ParseError(f"line {ln}: duplicate width")
            width = _positive_int(rest)
            if width is None:
                raise ParseError(f"line {ln}: width must be a positive integer")
        elif width is None:
            raise ParseError(f"line {ln}: expected 'width <n>' first")
        elif head == "level":
            if rest:
                raise ParseError(f"line {ln}: unexpected text after 'level'")
            levels.append([])
        elif head == "gate":
            if not levels:
                raise ParseError(f"line {ln}: gate before any level")
            matrix, wire_text = _split_gate_spec(rest, tag, ln)
            levels[-1].append(Gate(_parse_wires(wire_text, ln), matrix))
        elif head == "input":
            if state is not None:
                raise ParseError(f"line {ln}: duplicate input")
            kind, _, payload = rest.partition(" ")
            payload = payload.strip()
            try:
                if kind == "basis":
                    state = StateVector.basis(width, payload, tag)
                elif kind == "amps":
                    node = parse_formula(payload, tag)
                    if not isinstance(node, Atom):
                        raise ValidationError("input amps takes a single atom")
                    state = StateVector(width, node.matrix)
                else:
                    raise ParseError("input kind must be 'basis' or 'amps'")
            except (ValidationError, ParseError) as exc:
                raise ParseError(f"line {ln}: {exc}") from None
        else:
            raise ParseError(f"line {ln}: unknown directive {head!r}")
    if width is None:
        raise ParseError("missing 'width' line")
    return GateArray(tag, width, tuple(tuple(l) for l in levels)), state


def _gate_spec(m: Matrix, tag: Tag) -> str:
    """The builtin name of gate matrix m under tag, else the inline
    matrix."""
    if m.tag is tag:
        perm = m.perm_or_none()
        if perm in _PERM_NAMES:
            return _PERM_NAMES[perm]
        if perm is None and tag in _ROT35 and m == _ROT35[tag]:
            return "rot35"
    return render_formula(Atom(m))


def render_gate_array(c: GateArray, state: StateVector | None = None) -> str:
    """Inverse of parse_gate_array; builtin matrices render by name.  Each
    distinct matrix object is named or rendered once."""
    specs: dict = {}  # id(gate.matrix) -> spec; c keeps the matrices alive
    lines = [f"width {c.width}"]
    for level in c.levels:
        lines.append("level")
        for gate in level:
            spec = specs.get(id(gate.matrix))
            if spec is None:
                spec = specs[id(gate.matrix)] = _gate_spec(gate.matrix, c.tag)
            wires = " ".join(str(w) for w in gate.wires)
            lines.append(f"gate {spec} {wires}")
    if state is not None:
        bits = state.basis_bits()
        if bits is not None:
            lines.append(f"input basis {bits}")
        else:
            lines.append(f"input amps {render_formula(Atom(state.amplitudes))}")
    return "\n".join(lines) + "\n"
