"""Seeded corpus generator for the benchmark, standard library only.

It writes the documented gate-array and formula text formats directly and
never imports sft_tensor, so a refactor of the package or of its tests
cannot change the inputs or the set-up time.  The random shapes follow
tests/generators.py: shuffled wire lists (so gates come out non-adjacent
and out of order) and OSL formulas built from unit columns and orthogonal
atoms whose orders are often not powers of 2.

Each instance is a dict with the file name and text the program reads,
plus what the checks need to know about it.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

ARITY = {"not": 1, "cnot": 2, "swap": 2, "toffoli": 3, "fredkin": 3, "rot35": 1}
PERM_GATES = ("not", "cnot", "swap", "toffoli", "fredkin")
DEPTH = 8

# Instance counts per pass: at least 100, so that ten or more samples lie
# beyond each p90.
DENSE_OPS = 105
PERM_OPS = 105
OSL_OPS = 500
# Gates per array besides the rotations.
DENSE_GATES = 12
PERM_GATES_PER_ARRAY = 8

# ---------------------------------------------------------------------------
# Gate arrays


def rand_levels(rng: random.Random, width: int, gates: int, rot35: int) -> list:
    """DEPTH levels holding `gates` permutation gates and `rot35` rotations.

    Each gate goes to a random level with room for it, on random free
    wires in random order, so gates routinely come out non-adjacent and
    with their wires out of order.  The rotations sit on distinct wires:
    evaluation cost grows with the number of distinct rotated wires, and
    fixing it (like the gate count) keeps the cost of one instance from
    swinging by orders of magnitude between seeds.  The permutation gates
    are the five kinds in turn, shuffled: a random mix of kinds moved the
    p90 of a pass by 10-20% between seeds.
    """
    free = [set(range(1, width + 1)) for _ in range(DEPTH)]
    levels = [[] for _ in range(DEPTH)]

    def place(name, wires, level):
        free[level].difference_update(wires)
        levels[level].append((name, wires))

    for wire in rng.sample(range(1, width + 1), rot35):
        place("rot35", (wire,), rng.randrange(DEPTH))
    names = [PERM_GATES[i % len(PERM_GATES)] for i in range(gates)]
    rng.shuffle(names)
    for name in names:
        room = [lv for lv in range(DEPTH) if len(free[lv]) >= ARITY[name]]
        level = rng.choice(room)
        place(name, tuple(rng.sample(sorted(free[level]), ARITY[name])), level)
    for level in levels:
        rng.shuffle(level)
    return levels


def circuit_text(width: int, levels: list, bits: str) -> str:
    lines = [f"width {width}"]
    for level in levels:
        lines.append("level")
        lines.extend(
            f"gate {name} {' '.join(map(str, wires))}" for name, wires in level
        )
    lines.append(f"input basis {bits}")
    return "\n".join(lines) + "\n"


def permute_bits(bits: str, levels: list) -> str:
    """Output of a permutation array on a basis input; wire 1 is bits[0]."""
    b = [int(c) for c in bits]
    for level in levels:
        for name, wires in level:
            x = [w - 1 for w in wires]
            if name == "not":
                b[x[0]] ^= 1
            elif name == "cnot":
                b[x[1]] ^= b[x[0]]
            elif name == "swap":
                b[x[0]], b[x[1]] = b[x[1]], b[x[0]]
            elif name == "toffoli":
                b[x[2]] ^= b[x[0]] & b[x[1]]
            elif name == "fredkin":
                if b[x[0]]:
                    b[x[1]], b[x[2]] = b[x[2]], b[x[1]]
            else:
                raise ValueError(f"{name} is not a permutation gate")
    return "".join(map(str, b))


def _array_instance(rng, i, width, gates, rot35, semiring):
    levels = rand_levels(rng, width, gates, rot35)
    bits = "".join(rng.choice("01") for _ in range(width))
    return {
        "name": f"c{i:03d}.circuit",
        "text": circuit_text(width, levels, bits),
        "semiring": semiring,
        "width": width,
        "k": 1 << (width - 1),
        "input_gates": sum(len(level) for level in levels),
        "levels": levels,
        "bits": bits,
    }


def dense_decide(rng: random.Random) -> list:
    """Rational arrays with two rot35 gates, widths cycling through 6, 7, 8."""
    return [
        _array_instance(rng, i, 6 + i % 3, DENSE_GATES, 2, "q") for i in range(DENSE_OPS)
    ]


def perm_roundtrip(rng: random.Random) -> list:
    """Boolean permutation arrays, widths cycling through 6, 7, 8."""
    corpus = []
    for i in range(PERM_OPS):
        inst = _array_instance(rng, i, 6 + i % 3, PERM_GATES_PER_ARRAY, 0, "bool")
        inst["output_bits"] = permute_bits(inst["bits"], inst["levels"])
        corpus.append(inst)
    return corpus


# ---------------------------------------------------------------------------
# OSL formulas.  Entries are (re, im) pairs of Fractions; a matrix is a list
# of rows.

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
_ZERO = (Fraction(0), Fraction(0))
_ONE = (Fraction(1), Fraction(0))


def _units(semiring):
    units = [_ONE, (Fraction(-1), Fraction(0))]
    if semiring == "qi":
        units += [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))]
    return units


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _basis_column(n, i):
    return [[_ONE if r == i else _ZERO] for r in range(n)]


def _perm_matrix(perm):
    n = len(perm)
    return [[_ONE if perm[c] == r else _ZERO for c in range(n)] for r in range(n)]


def _unit_column_atom(rng, n, semiring):
    pools = [p for size, ps in _UNIT_POOLS.items() if size <= n for p in ps]
    if not pools or rng.random() < 0.3:
        return _basis_column(n, rng.randrange(n))
    base = rng.choice(pools)
    column = [_ZERO] * n
    units = _units(semiring)
    for v, slot in zip(base, rng.sample(range(n), len(base))):
        column[slot] = _mul((v, Fraction(0)), rng.choice(units))
    return [[e] for e in column]


def _orthogonal_atom(rng, n, semiring):
    perm = list(range(n))
    rng.shuffle(perm)
    if rng.random() < 0.4:
        return _perm_matrix(perm)
    units = _units(semiring)
    signed = [[_ZERO] * n for _ in range(n)]
    for col, row in enumerate(perm):
        signed[row][col] = rng.choice(units)
    if n < 2 or rng.random() < 0.4:
        return signed
    # A plane rotation makes the entries properly dense.
    a, b, c = rng.choice(_TRIPLES)
    i, j = sorted(rng.sample(range(n), 2))
    rot = [[_ONE if r == s else _ZERO for s in range(n)] for r in range(n)]
    cos = (Fraction(a, c), Fraction(0))
    if semiring == "qi" and rng.random() < 0.5:
        sin = (Fraction(0), Fraction(b, c))
        rot[i][i], rot[i][j], rot[j][i], rot[j][j] = cos, sin, sin, cos
    else:
        sin = (Fraction(b, c), Fraction(0))
        neg = (Fraction(-b, c), Fraction(0))
        rot[i][i], rot[i][j], rot[j][i], rot[j][j] = cos, sin, neg, cos
    # rot times the signed permutation: column c of the product is column
    # perm[c] of rot times that column's unit.
    return [[_mul(rot[r][perm[c]], signed[perm[c]][c]) for c in range(n)] for r in range(n)]


class _OslBuilder:
    """Random OSL formula trees; counts the square atoms as it goes."""

    def __init__(self, rng, semiring):
        self.rng = rng
        self.semiring = semiring
        self.square_atoms = 0

    def square(self, order, depth):
        rng = self.rng
        if order == 1:
            self.square_atoms += 1
            return ("atom", [[rng.choice(_units(self.semiring))]])
        splits = [d for d in range(2, order) if order % d == 0]
        if depth > 0 and splits and rng.random() < 0.5:
            d = rng.choice(splits)
            return ("#", self.square(d, depth - 1), self.square(order // d, depth - 1))
        if depth > 0 and rng.random() < 0.3:
            return ("*", self.square(order, depth - 1), self.square(order, depth - 1))
        self.square_atoms += 1
        if order <= 7:
            return ("atom", _orthogonal_atom(rng, order, self.semiring))
        return ("atom", _perm_matrix(rng.sample(range(order), order)))

    def column(self, depth, budget):
        rng = self.rng
        roll = rng.random()
        if depth == 0 or budget < 4 or roll < 0.3:
            n = rng.randint(2, min(6, budget))
            return ("atom", _unit_column_atom(rng, n, self.semiring)), n
        if roll < 0.6:
            sub, rows = self.column(depth - 1, budget)
            return ("*", self.square(rows, depth - 1), sub), rows
        if roll < 0.9:
            left, rl = self.column(depth - 1, max(2, budget // 2))
            right, rr = self.column(depth - 1, max(2, budget // rl))
            return ("#", left, right), rl * rr
        sub, rows = self.column(depth - 1, budget)
        return ("#", self.square(1, 0), sub), rows


def render_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def render_entry(e) -> str:
    re, im = e
    if im == 0:
        return render_fraction(re)
    if re == 0:
        return render_fraction(im) + "i"
    sign = "+" if im > 0 else "-"
    return render_fraction(re) + sign + render_fraction(abs(im)) + "i"


def formula_text(node) -> str:
    if node[0] == "atom":
        return "[%s]" % "".join(
            "[%s]" % " ".join(render_entry(e) for e in row) for row in node[1]
        )
    op, left, right = node
    return f"({formula_text(left)}{op}{formula_text(right)})"


def _padded_rows(node) -> int:
    """Rows once every atom is padded to a power-of-2 order, as the
    backward compiler pads; this sets the compiled array's width."""
    if node[0] == "atom":
        return 1 << (len(node[1]) - 1).bit_length()
    op, left, right = node
    if op == "#":
        return _padded_rows(left) * _padded_rows(right)
    return max(_padded_rows(left), _padded_rows(right))


# Padded-row classes of the OSL formulas, in turn.  Compiling and simulating
# a formula that pads to 64 rows costs 10-50x what a small one does, and
# one that pads past 64 costs 2-4x more again, so a random mix of sizes
# would swing a pass's time, and its p90, by half between seeds.  The
# shares (1/5, 3/5, 1/5) put the median and p90 inside a class, not on the
# edge between two, where they would jump with the seed.
OSL_PADDED_CLASSES = [(2, 8)] + [(16, 32)] * 3 + [(64, 64)]
# Longer texts come from large permutation atoms (up to 64x64).  They made
# the tail of a class 10-100x its median, and a pass's time and p90 rode on
# how many of them a seed drew.
OSL_MAX_CHARS = 1000


def osl_small(rng: random.Random) -> list:
    """Small OSL formulas, alternately rational and Gaussian rational."""
    corpus = []
    for i in range(OSL_OPS):
        semiring = ("q", "qi")[i % 2]
        low, high = OSL_PADDED_CLASSES[i % len(OSL_PADDED_CLASSES)]
        padded, text = 0, ""
        while not low <= padded <= high or len(text) > OSL_MAX_CHARS:
            builder = _OslBuilder(rng, semiring)
            tree, rows = builder.column(4, high)
            padded = _padded_rows(tree)
            text = formula_text(tree) if low <= padded <= high else ""
        corpus.append(
            {
                "name": f"f{i:03d}.formula",
                "text": text,
                "semiring": semiring,
                "rows": rows,
                "k": rng.randint(1, rows),
                "input_gates": builder.square_atoms,
            }
        )
    return corpus


GENERATORS = {
    "dense-decide": dense_decide,
    "perm-roundtrip": perm_roundtrip,
    "osl-small": osl_small,
}


def generate(workload: str, seed: int) -> list:
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))


def speed_probe(rounds: int = 24) -> int:
    """A fixed slice of generator work (random OSL trees: Fraction
    arithmetic, small lists, text), which is the same kind of work as the
    program's.  The benchmark times it between ops to follow the speed of
    the machine it shares."""
    size = 0
    for i in range(rounds):
        tree, _ = _OslBuilder(random.Random(i), "qi").column(4, 64)
        size += len(formula_text(tree))
    return size


def digest(corpus: list) -> str:
    """SHA-256 over every file name and text, in corpus order."""
    h = hashlib.sha256()
    for inst in corpus:
        h.update(inst["name"].encode() + b"\0" + inst["text"].encode() + b"\0")
    return h.hexdigest()
