"""Compile gate arrays into equivalent sum-free tensor formulas.

A level whose gates sit on consecutive wires is one factor, the (first
wire, last wire, atom) blocks of its gates.  Gates on scattered wires are
brought together by moving the wires themselves.  The compiler tracks an
arrangement, the wire label sitting on each position, starting from the
identity.  Before each level it routes the wires to that level's target
arrangement: the current one, walked position by position, with all of
a gate's wires gathered, in the gate's wire order, where the first of
them sits; every other wire keeps its relative order.  So a level whose
gates already sit on adjacent wires in order needs no route.  The packed
level is one factor, the arrangement becomes the target, and after the
last level one more route brings every wire home; empty levels add none.

Each route is odd-even transposition sort (Knuth, TAOCP Vol. 3, 5.3.4):
at most n rounds of disjoint adjacent swaps, each round one factor of
two-wire swap blocks; rounds without a swap are dropped.  So wires a
level leaves alone stay where the previous level put them.  The array is
the product of the factors, level 1 rightmost, built over the wires each
run of factors touches, by the mixed-product property (A # I)(B # I) =
(AB) # I: at wire cuts no block crosses, a run splits into the Kronecker
product of its parts, each the product of the factors with a block there,
if that leaves a factor out of a part (wires no block covers get identity
chains); else it is the product of its two halves, and one factor is its
tensor chain.  The depth is O(log n log F) for F factors on n wires.

The output is a DAG, not a tree.  Each call builds its nodes through one
table: each distinct atom matrix is one Atom, and each binary node is one
object per (kind, left, right), as the parser keys them.  So every swap
round, identity chain and gate atom that recurs is one shared object, and
passes that key their work on node identity (rendering, evaluation,
padding) do it once.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import Sequence, Union

from .circuit import Gate, GateArray, validate_array
from .errors import ValidationError
from .formula import Atom, Formula, Prod, Tensor, _balance, _shared_node
from .linalg import Matrix, basis_vector, identity, is_unit_column
from .semiring import Tag

__all__ = [
    "compile_array_to_formula",
    "input_vector_formula",
    "odd_even_rounds",
]


class _Nodes:
    """The node table of one compile.

    A permutation matrix is keyed on its permutation and any other matrix
    on itself, so each distinct atom matrix is one Atom.  Binary nodes go
    through _shared_node, so equal subtrees are one object.  The table
    holds every node it built, so no id is reused while it is in use.
    """

    def __init__(self, tag: Tag):
        self.atoms: dict = {}
        self.nodes: dict = {}
        self.joins = {k: partial(_shared_node, self.nodes, k) for k in (Prod, Tensor)}
        self.wire = self.atom(identity(2, tag))
        self.swap = self.atom(Matrix.from_perm(tag, [0, 2, 1, 3]))

    def atom(self, m: Matrix) -> Atom:
        perm = m.perm_or_none()
        key = m if perm is None else perm
        atom = self.atoms.get(key)
        if atom is None:
            atom = self.atoms[key] = Atom(m)
        return atom

    def chain(self, kind, factors: Sequence[Formula]) -> Formula:
        """factors joined by kind left to right, as a balanced tree."""
        return _balance(self.joins[kind], factors)


def odd_even_rounds(start: Sequence[int], target: Sequence[int]) -> list:
    """Rounds of adjacent swaps taking arrangement start to target.

    An arrangement lists the wire label on each position 1..n.  This is
    odd-even transposition sort on the labels' target positions: round r
    compares the pairs (p, p+1) with p of r's parity, so its swaps are
    disjoint, and n rounds sort any arrangement.  Rounds are returned in
    application order, each a tuple of the positions p whose pair it
    swaps; rounds without a swap are dropped.
    """
    n = len(start)
    if sorted(start) != sorted(target):
        raise ValidationError(
            f"{list(target)} is not a rearrangement of {list(start)}"
        )
    rank = {label: i for i, label in enumerate(target)}
    keys = [rank[label] for label in start]
    rounds = []
    for r in range(n):
        swaps = []
        for i in range(r % 2, n - 1, 2):
            if keys[i] > keys[i + 1]:
                keys[i], keys[i + 1] = keys[i + 1], keys[i]
                swaps.append(i + 1)
        if swaps:
            rounds.append(tuple(swaps))
    return rounds


def _chain(t: _Nodes, factors: Sequence[tuple], lo: int, hi: int) -> Formula:
    """Tensor chain on wires lo..hi of at most one factor's blocks there,
    with an I_2 atom on every wire no block covers."""
    parts = []
    wire = lo
    for a, b, atom in factors[0][2] if factors else ():
        if lo <= a <= hi:
            parts += [t.wire] * (a - wire)
            parts.append(atom)
            wire = b + 1
    parts += [t.wire] * (hi - wire + 1)
    return t.chain(Tensor, parts)


def _factor(blocks: list) -> tuple:
    """(covered, crossed, blocks in wire order); bit w is wire w, cut w|w+1."""
    blocks.sort()  # disjoint blocks: no two share a first wire
    cover = cross = 0
    for a, b, _ in blocks:
        cover |= (2 << b) - (1 << a)
        cross |= (1 << b) - (1 << a)
    return cover, cross, blocks


def _route(t: _Nodes, start: Sequence[int], target: Sequence[int]) -> list:
    """Round factors, first round first, each swapping p, p + 1 per p in it."""
    return [
        _factor([(p, p + 1, t.swap) for p in swaps])
        for swaps in odd_even_rounds(start, target)
    ]


def _packed_target(gates: Sequence[Gate], current: Sequence[int]) -> list:
    """The current arrangement with each gate's wires gathered, in the
    gate's wire order, where the first of them sits; the other wires keep
    their relative order."""
    group = {w: g.wires for g in gates for w in g.wires}
    target: list = []
    for w in current:
        if w not in target:
            target += group.get(w, (w,))
    return target


def _packed_level(gates: Sequence[Gate], target: Sequence[int]) -> list:
    """The gates moved onto the positions their wires hold in target."""
    at = {w: pos for pos, w in enumerate(target, start=1)}
    return [Gate(tuple(at[w] for w in g.wires), g.matrix) for g in gates]


def _product(t: _Nodes, factors: list, n: int) -> Formula:
    """Product of factors on wires 1..n, last leftmost, from a stack of steps:
    factors on wires lo..hi, each with a block there and none across lo, hi."""
    done: list = []
    todo: list = [(factors, 1, n)]
    while todo:
        step = todo.pop()
        if len(step) == 2:  # join the last k parts built
            kind, k = step
            done[-k:] = [t.chain(kind, done[-k:])]
            continue
        factors, lo, hi = step
        m = len(factors)
        if m < 2:
            done.append(_chain(t, factors, lo, hi))
            continue
        cover = cross = 0
        for c, x, _ in factors:
            cover |= c
            cross |= x
        cuts = ~cross & (cover | cover >> 1) & ((1 << hi) - (1 << lo))
        ends = cuts and cuts | 1 << hi  # each piece ends at a cut or at hi
        pieces, narrow, a = [], False, lo
        while ends:
            b = (ends & -ends).bit_length() - 1
            ends &= ends - 1
            part = (2 << b) - (1 << a) & cover
            sub = [f for f in factors if f[0] & part] if part else []
            narrow = narrow or len(sub) < m
            pieces.append((sub, a, b))
            a = b + 1
        if narrow:
            todo.append((Tensor, len(pieces)))
        else:
            mid = m // 2
            pieces = [(factors[mid:], lo, hi), (factors[:mid], lo, hi)]
            todo.append((Prod, 2))
        todo += reversed(pieces)
    return done[0]


def compile_array_to_formula(c: GateArray) -> Formula:
    """Sum-free formula F with F . d_x evaluating to simulate(c, x), built
    as the module docstring says: a DAG, equal subtrees being one object."""
    report = validate_array(c)
    if not report.ok:
        raise ValidationError(f"invalid gate array: {report.violations[0]}")
    n = c.width
    t = _Nodes(c.tag)
    current = home = list(range(1, n + 1))
    factors = []  # in application order
    for level in c.levels:
        if not level:
            continue
        target = _packed_target(level, current)
        factors += _route(t, current, target)
        gates = _packed_level(level, target)
        factors.append(_factor([(g.wires[0], g.wires[-1], t.atom(g.matrix)) for g in gates]))
        current = target
    factors += _route(t, current, home)
    return _product(t, factors, n)


InputSpec = Union[str, Sequence[Matrix]]


def input_vector_formula(spec: InputSpec, tag: Tag) -> Formula:
    """Input column as a right-associated tensor chain.

    A bit string gives one 2x1 basis atom per wire.  A sequence of
    matrices may mix in longer unit columns of order 2^j x 1, covering j
    wires each; that is how uniformly random bit pairs enter, since the
    length-4 column (1/2, 1/2, 1/2, 1/2) has no exact 2x1 factorization.
    """
    if isinstance(spec, str):
        if not spec or any(ch not in "01" for ch in spec):
            raise ValidationError(f"bit string must be nonempty 0/1, got {spec!r}")
        parts = [basis_vector(2, int(ch) + 1, tag) for ch in spec]
    else:
        parts = list(spec)
        if not parts:
            raise ValidationError("input spec must cover at least one wire")
        for m in parts:
            if m.tag is not tag:
                raise ValidationError(
                    f"input block tag {m.tag.value} does not match {tag.value}"
                )
            if m.cols != 1 or m.rows < 2 or m.rows & (m.rows - 1):
                raise ValidationError(
                    f"input block must be a 2^j x 1 column, got {m.rows}x{m.cols}"
                )
            if not is_unit_column(m):
                raise ValidationError("input block is not a unit column")
    atoms = [Atom(m) for m in parts]
    return reduce(lambda rest, a: Tensor(a, rest), reversed(atoms[:-1]), atoms[-1])
