"""Compile gate arrays into equivalent sum-free tensor formulas.

One level whose gates sit on consecutive wires is a single tensor chain:
gate matrices interleaved with I_2 factors for untouched wires.  Gates on
scattered wires are brought together by moving the wires themselves.  The
compiler tracks an arrangement, the wire label sitting on each position,
starting from the identity.  Before each level it routes the wires to
that level's target arrangement: the current one, walked position by
position, with all of a gate's wires gathered, in the gate's wire order,
where the first of them sits; every other wire keeps its relative order.
So a level whose gates already sit on adjacent wires in order needs no
route.  The packed level is one tensor chain, the arrangement becomes
the target, and after the last level one more route brings every wire
home.  Levels without gates add nothing.

Each route is odd-even transposition sort (Knuth, TAOCP Vol. 3, 5.3.4):
at most n rounds of disjoint adjacent swaps, each round one balanced
tensor chain of two-wire swap atoms and I_2 atoms.  Rounds without a swap
are dropped.  So the routing between two levels costs at most n chains,
and wires a level leaves alone stay where the previous level put them
instead of being sent home and fetched again.  The whole array is the
product of these chains, level 1 rightmost, parenthesized as a balanced
tree so the formula depth stays logarithmic in the chain count.

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
        return _balance(partial(_shared_node, self.nodes, kind), factors)

    def identity(self, n: int) -> Formula:
        return self.chain(Tensor, [self.wire] * n)


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


def _chain(t: _Nodes, blocks: Sequence[tuple], n: int) -> Formula:
    """Tensor chain of the (first wire, last wire, atom) blocks, given in
    wire order, with an I_2 atom on every wire no block covers."""
    parts = []
    wire = 1
    for lo, hi, atom in blocks:
        parts += [t.wire] * (lo - wire)
        parts.append(atom)
        wire = hi + 1
    parts += [t.wire] * (n - wire + 1)
    return t.chain(Tensor, parts)


def _route(t: _Nodes, start: Sequence[int], target: Sequence[int]) -> list:
    """Round formulas in application order (first round first), each a
    tensor chain swapping wires p, p+1 for each p in the round."""
    n = len(start)
    return [
        _chain(t, [(p, p + 1, t.swap) for p in swaps], n)
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


def _level_formula(t: _Nodes, level: Sequence[Gate], n: int) -> Formula:
    """Tensor chain for a packed level: each gate on consecutive wires."""
    gates = sorted(level, key=lambda g: g.wires[0])
    return _chain(t, [(g.wires[0], g.wires[-1], t.atom(g.matrix)) for g in gates], n)


def compile_array_to_formula(c: GateArray) -> Formula:
    """Sum-free formula F with F . d_x evaluating to simulate(c, x).

    Wires are routed once between consecutive levels (see the module
    docstring).  Level 1 ends up rightmost in the product; the chain is
    balanced, so depth grows with log of the chain count.  An array
    without gates compiles to the identity.  The result is a DAG: equal
    subtrees are one object.
    """
    report = validate_array(c)
    if not report.ok:
        raise ValidationError(f"invalid gate array: {report.violations[0]}")
    n = c.width
    t = _Nodes(c.tag)
    home = list(range(1, n + 1))
    current = home
    factors = []  # in application order
    for level in c.levels:
        if not level:
            continue
        target = _packed_target(level, current)
        factors += _route(t, current, target)
        factors.append(_level_formula(t, _packed_level(level, target), n))
        current = target
    if not factors:
        return t.identity(n)
    factors += _route(t, current, home)
    factors.reverse()
    return t.chain(Prod, factors)


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
