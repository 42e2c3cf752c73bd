"""The sum-free partial-trace decision problem.

An instance bundles an OSL formula F, a window size k, an exact rational
threshold alpha in [1/2, 1), and a variant.  The decided quantity is the
k'th partial trace of val(F) val(F)^dagger: the summed squared
magnitudes of the last k entries of the value column.  The standard and
promise variants accept when that value exceeds alpha; the nonzero
variant accepts on any nonzero value.  The promise variant additionally
reports whether the value fell inside the band [1-alpha, alpha] that
promise instances are supposed to avoid; a single instance can only be
checked against the promise, not proven to satisfy it.

The value is read off the sparse column that evaluate's walk leaves
behind, so no dense column is built.  Over the Boolean semiring the value
is 0 or 1 and the three variants agree.  Every orthogonal Boolean atom is
a permutation, so the walk only moves support indices: the fast path is
the same decision with the entry cap lifted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# evaluate, pad_formula and formula_to_array are not called here, but the
# benchmark's traced run times those layers at these names, so they stay.
from .backward_compiler import formula_to_array, pad_formula  # noqa: F401
from .errors import ValidationError
from .formula import DEFAULT_ENTRY_CAP, Formula, _sparse_value, check_osl, evaluate  # noqa: F401
from .semiring import Scalar, Tag, norm_square, norm_tag, scalar_add, scalar_zero

__all__ = [
    "SftInstance",
    "SftVerdict",
    "VARIANTS",
    "boolean_fastpath",
    "decide_sft",
]

VARIANTS = ("standard", "promise", "nonzero")


@dataclass(frozen=True)
class SftInstance:
    formula: Formula
    k: int
    alpha: Fraction = Fraction(1, 2)
    variant: str = "standard"

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not Fraction(1, 2) <= self.alpha < 1:
            raise ValidationError(
                f"alpha must satisfy 1/2 <= alpha < 1, got {self.alpha}"
            )
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"variant must be one of {'/'.join(VARIANTS)}, got {self.variant!r}"
            )
        check_osl(self.formula).raise_unless_osl()


@dataclass(frozen=True)
class SftVerdict:
    value: Scalar
    accept: bool
    in_promise_band: bool | None = None


def _verdict(inst: SftInstance, value: Scalar) -> SftVerdict:
    # Partial traces of v v^dagger are real, so .re carries the value for
    # every tag (Booleans compare as 0 and 1).
    magnitude = value.re
    if inst.variant == "nonzero":
        accept = not value.is_zero()
    else:
        accept = magnitude > inst.alpha
    band = None
    if inst.variant == "promise":
        band = 1 - inst.alpha <= magnitude <= inst.alpha
    return SftVerdict(value=value, accept=accept, in_promise_band=band)


def decide_sft(inst: SftInstance, entry_cap: int = DEFAULT_ENTRY_CAP) -> SftVerdict:
    """Weigh the last k rows of the formula's sparse value column (a
    Boolean OR) against the instance threshold."""
    f = inst.formula
    value = scalar_zero(norm_tag(f.tag))
    for i, s in _sparse_value(f, entry_cap).items():
        if i >= f.order[0] - inst.k:
            value = scalar_add(value, norm_square(s))
    return _verdict(inst, value)


def boolean_fastpath(inst: SftInstance) -> SftVerdict:
    """Decide a Boolean instance with no entry cap.

    Its square atoms are permutations and it has no Sum: the walk keeps
    sparse columns, index memos and permutations, and no dense operator."""
    if inst.formula.tag is not Tag.BOOLEAN:
        raise ValidationError(
            f"fast path handles Boolean instances, got {inst.formula.tag.value}"
        )
    return decide_sft(inst, entry_cap=float("inf"))
