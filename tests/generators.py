"""Seeded random instance builders and formula texts shared by the test
modules."""

import random
from fractions import Fraction

from sft_tensor.circuit import BUILTIN_GATE_NAMES, Gate, GateArray, builtin_gate
from sft_tensor.errors import CapExceededError
from sft_tensor.formula import Atom, Formula, Prod, Sum, Tensor, walk
from sft_tensor.linalg import Matrix, basis_vector, kronecker, mat_add, mat_mul
from sft_tensor.semiring import (
    Tag,
    make_scalar,
    scalar_mul,
    scalar_one,
    scalar_zero,
)

ARITY = {"not": 1, "cnot": 2, "swap": 2, "toffoli": 3, "fredkin": 3, "rot35": 1}


def rand_array(
    rng: random.Random,
    width: int,
    depth: int,
    tag: Tag = Tag.RATIONAL,
    names=BUILTIN_GATE_NAMES,
) -> GateArray:
    """Random array; wire lists are shuffled, so gates routinely come out
    non-adjacent and out of order."""
    levels = []
    for _ in range(depth):
        free = list(range(1, width + 1))
        rng.shuffle(free)
        gates = []
        while free and rng.random() < 0.8:
            fits = [n for n in names if ARITY[n] <= len(free)]
            if tag in (Tag.BOOLEAN, Tag.NONNEG_RATIONAL):
                fits = [n for n in fits if n != "rot35"]
            if not fits:
                break
            name = rng.choice(fits)
            wires = tuple(free[: ARITY[name]])
            del free[: ARITY[name]]
            gates.append(Gate(wires, builtin_gate(name, tag)))
        levels.append(tuple(gates))
    return GateArray(tag, width, tuple(levels))


# ---------------------------------------------------------------------------
# Random OSL formulas: value is always a unit column, atoms are orthogonal
# squares or unit columns, sizes deliberately include non-powers of 2.

_UNIT_POOLS = {
    2: [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))],
    3: [
        (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
        (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)),
        (Fraction(4, 9), Fraction(4, 9), Fraction(7, 9)),
    ],
    4: [
        (Fraction(1, 2),) * 4,
        (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5), Fraction(4, 5)),
    ],
}

_TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17)]


def _units(tag):
    if tag is Tag.GAUSSIAN_RATIONAL:
        return [
            make_scalar(tag, 1),
            make_scalar(tag, -1),
            make_scalar(tag, 0, 1),
            make_scalar(tag, 0, -1),
        ]
    if tag is Tag.RATIONAL:
        return [make_scalar(tag, 1), make_scalar(tag, -1)]
    return [make_scalar(tag, 1)]


def _unit_column_atom(rng: random.Random, n: int, tag: Tag, dense: bool) -> Matrix:
    if not dense or (tag is Tag.BOOLEAN and rng.random() < 0.5):
        return basis_vector(n, rng.randint(1, n), tag)
    if tag is Tag.BOOLEAN:
        bits = [rng.randint(0, 1) for _ in range(n)]
        bits[rng.randrange(n)] = 1
        one, zero = scalar_one(tag), scalar_zero(tag)
        return Matrix.from_entries(tag, n, 1, [one if b else zero for b in bits])
    pools = [p for size, ps in _UNIT_POOLS.items() if size <= n for p in ps]
    if not pools or rng.random() < 0.3:
        return basis_vector(n, rng.randint(1, n), tag)
    base = list(rng.choice(pools))
    entries = [Fraction(0)] * n
    for v, slot in zip(base, rng.sample(range(n), len(base))):
        entries[slot] = v
    units = _units(tag)
    return Matrix.from_entries(
        tag, n, 1, [scalar_mul(make_scalar(tag, e), rng.choice(units)) for e in entries]
    )


def _orthogonal_atom(rng: random.Random, n: int, tag: Tag, dense: bool) -> Matrix:
    perm = list(range(n))
    rng.shuffle(perm)
    if not dense or tag in (Tag.BOOLEAN, Tag.NONNEG_RATIONAL) or rng.random() < 0.4:
        return Matrix.from_perm(tag, perm)
    units = _units(tag)
    zero = scalar_zero(tag)
    flat = [zero] * (n * n)
    for col, row in enumerate(perm):
        flat[row * n + col] = rng.choice(units)
    signed = Matrix.from_entries(tag, n, n, flat)
    if n < 2 or rng.random() < 0.4:
        return signed
    # Work a plane rotation into the mix so entries go properly dense.
    a, b, c = rng.choice(_TRIPLES)
    i, j = sorted(rng.sample(range(n), 2))
    rot = [
        [make_scalar(tag, Fraction(int(r == s))) for s in range(n)] for r in range(n)
    ]
    if tag is Tag.GAUSSIAN_RATIONAL and rng.random() < 0.5:
        rot[i][i] = make_scalar(tag, Fraction(a, c))
        rot[i][j] = make_scalar(tag, 0, Fraction(b, c))
        rot[j][i] = make_scalar(tag, 0, Fraction(b, c))
        rot[j][j] = make_scalar(tag, Fraction(a, c))
    else:
        rot[i][i] = make_scalar(tag, Fraction(a, c))
        rot[i][j] = make_scalar(tag, Fraction(b, c))
        rot[j][i] = make_scalar(tag, Fraction(-b, c))
        rot[j][j] = make_scalar(tag, Fraction(a, c))
    return mat_mul(Matrix.from_rows(tag, rot), signed)


def _rand_square(rng: random.Random, order: int, depth: int, tag: Tag, dense: bool):
    if order == 1:
        return Atom(Matrix.from_entries(tag, 1, 1, [rng.choice(_units(tag))]))
    splits = [d for d in range(2, order) if order % d == 0]
    if depth > 0 and splits and rng.random() < 0.5:
        d = rng.choice(splits)
        return Tensor(
            _rand_square(rng, d, depth - 1, tag, dense),
            _rand_square(rng, order // d, depth - 1, tag, dense),
        )
    if depth > 0 and rng.random() < 0.3:
        return Prod(
            _rand_square(rng, order, depth - 1, tag, dense),
            _rand_square(rng, order, depth - 1, tag, dense),
        )
    if order <= 7:
        return Atom(_orthogonal_atom(rng, order, tag, dense))
    return Atom(Matrix.from_perm(tag, rng.sample(range(order), order)))


def _rand_column(rng: random.Random, depth: int, budget: int, tag: Tag, dense: bool):
    roll = rng.random()
    if depth == 0 or budget < 4 or roll < 0.3:
        n = rng.randint(2, min(6, budget))
        return Atom(_unit_column_atom(rng, n, tag, dense)), n
    if roll < 0.6:
        sub, rows = _rand_column(rng, depth - 1, budget, tag, dense)
        return Prod(_rand_square(rng, rows, depth - 1, tag, dense), sub), rows
    if roll < 0.9:
        left, rl = _rand_column(rng, depth - 1, max(2, budget // 2), tag, dense)
        right, rr = _rand_column(rng, depth - 1, max(2, budget // rl), tag, dense)
        return Tensor(left, right), rl * rr
    sub, rows = _rand_column(rng, depth - 1, budget, tag, dense)
    return Tensor(_rand_square(rng, 1, 0, tag, dense), sub), rows


def rand_osl_formula(
    rng: random.Random,
    tag: Tag = Tag.RATIONAL,
    max_depth: int = 3,
    max_rows: int = 36,
    dense: bool = True,
) -> Formula:
    """Random OSL formula whose value is a unit column of at most
    max_rows entries.  dense=False keeps every atom a permutation or
    basis vector, which pads and evaluates much faster."""
    formula, _ = _rand_column(rng, max_depth, max_rows, tag, dense)
    return formula


def unshared(f: Formula) -> Formula:
    """A copy of f with a fresh node for every occurrence: the same
    formula written as a tree.  Runs on walk, so deep chains copy too."""

    def copy(node):
        if isinstance(node, Atom):
            return Atom(node.matrix)
        left = yield copy(node.left)
        right = yield copy(node.right)
        return type(node)(left, right)

    return walk(copy(f))


def multiplied_out(f: Formula, cap: int) -> Matrix:
    """The value of f with each distinct node multiplied out once by the
    linalg operations: the dense reference for evaluate.  Each node's order
    is checked against cap at its first occurrence in post-order, and an
    offender raises CapExceededError with its path, as evaluate does.
    Runs on walk, so deep chains evaluate too."""
    ops = {Sum: mat_add, Prod: mat_mul, Tensor: kronecker}
    values = {}

    def visit(node, pos):
        if not isinstance(node, Atom):
            for child, side in ((node.left, "/L"), (node.right, "/R")):
                if id(child) not in values:
                    yield visit(child, (pos, side))
        rows, cols = node.order
        if rows * cols > cap:
            sides = []
            while pos:
                pos, side = pos
                sides.append(side)
            raise CapExceededError("".join(reversed(sides)), rows, cols, cap)
        if isinstance(node, Atom):
            values[id(node)] = node.matrix
        else:
            left, right = values[id(node.left)], values[id(node.right)]
            values[id(node)] = ops[type(node)](left, right)

    walk(visit(f, ()))
    return values[id(f)]


def distinct_nodes(f: Formula) -> list:
    """The nodes of f, each shared node once."""
    seen = {}
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if not isinstance(node, Atom):
                stack += [node.left, node.right]
    return list(seen.values())


def nested(side, factors, op="*"):
    """factors joined by op in order, nested to the left or the right."""
    n = len(factors) - 1
    if side == "left":
        return "(" * n + factors[0] + "".join(op + x + ")" for x in factors[1:])
    return "".join("(" + x + op for x in factors[:-1]) + factors[-1] + ")" * n
