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

Over the Boolean semiring the value is 0 or 1 and the three variants
agree.  Such instances also admit a cheaper route: every orthogonal
Boolean atom is a permutation, so the compiled gate array moves basis
states to basis states and the decision follows from tracking the set of
basis indices in the input's support instead of a full state vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# formula_to_array is not called here, but the benchmark's traced run
# times the compile step at sft.formula_to_array, so the name stays.
from .backward_compiler import (  # noqa: F401
    formula_to_array,
    pad_formula,
    padded_to_array,
)
from .circuit import _perm_moves
from .errors import ValidationError
from .formula import DEFAULT_ENTRY_CAP, Formula, check_osl, evaluate
from .linalg import partial_trace_outer
from .semiring import Scalar, Tag, make_scalar

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
    """Evaluate the formula and compare its trailing-window weight
    against the instance threshold."""
    value = partial_trace_outer(evaluate(inst.formula, entry_cap=entry_cap), inst.k)
    return _verdict(inst, value)


def boolean_fastpath(inst: SftInstance) -> SftVerdict:
    """Decide a Boolean instance by support tracking.

    The formula compiles to an array of permutation gates, so the set of
    basis indices with amplitude 1 is simply pushed through each gate.
    The instance accepts exactly when the final support meets the last
    k entries of the true (unpadded) block.
    """
    if inst.formula.tag is not Tag.BOOLEAN:
        raise ValidationError(
            f"fast path handles Boolean instances, got {inst.formula.tag.value}"
        )
    # SftInstance has checked the formula is OSL.
    padding = pad_formula(inst.formula, checked=False)
    if padding.padded.order == (1, 1):
        # No wires to build an array on; the value is the single entry.
        return decide_sft(inst)
    array, amplitudes = padded_to_array(padding.padded)
    support = {g for g, a in amplitudes.items() if not a.is_zero()}
    for level in array.levels:
        for gate in level:
            moves = _perm_moves(gate, array.width)
            if moves is None:
                raise ValidationError("Boolean gate is not a permutation")
            on = max(moves)  # the mask with every one of the gate's wires set
            support = {g & ~on | moves[g & on] for g in support}
    k_eff = min(inst.k, padding.block_length)
    window = range(padding.block_length - k_eff, padding.block_length)
    hit = any(i in support for i in window)
    return _verdict(inst, make_scalar(Tag.BOOLEAN, 1 if hit else 0))
