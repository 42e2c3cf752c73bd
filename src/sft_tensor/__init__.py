"""Tensor formulas over semirings, exact evaluation, and gate-array compilation.

The package provides, roughly bottom-up:

- `semiring`: exact tagged scalars over the Booleans, the (nonnegative)
  rationals, and the Gaussian rationals.
- `linalg`: dense matrices over a tagged semiring, Kronecker products,
  stride permutations, orthogonality and unit-column predicates, and the
  partial trace of an outer product.
- `formula`: the tensor-formula AST, its text grammar, validity and order
  checking, sum-free / OSL predicates, and the exact evaluator.
- `circuit`: leveled gate arrays, a builtin gate library, and an exact
  state-vector simulator.
- `forward_compiler`: gate array to sum-free tensor formula, including the
  adjacent-swap routing for gates on non-adjacent wires.
- `backward_compiler`: power-of-2 padding of OSL formulas, the stride-based
  row/column correction permutations, denominator normalization, and
  formula to gate array.
- `sft`: the sum-free partial-trace decision problem with its promise and
  nonzero variants.
- `cli`: the `sft-tensor` command line front end.
"""

from .semiring import Scalar, Tag
from .linalg import Matrix
from .formula import (
    Atom,
    Formula,
    OslReport,
    Prod,
    Sum,
    Tensor,
    check_osl,
    evaluate,
    parse_formula,
    render_formula,
)
from .circuit import (
    Gate,
    GateArray,
    StateVector,
    parse_gate_array,
    render_gate_array,
    simulate,
)
from .forward_compiler import compile_array_to_formula, input_vector_formula
from .backward_compiler import formula_to_array, pad_formula
from .sft import SftInstance, SftVerdict, boolean_fastpath, decide_sft

__all__ = [
    "Scalar",
    "Tag",
    "Matrix",
    "Atom",
    "Formula",
    "OslReport",
    "Prod",
    "Sum",
    "Tensor",
    "check_osl",
    "evaluate",
    "parse_formula",
    "render_formula",
    "Gate",
    "GateArray",
    "StateVector",
    "parse_gate_array",
    "render_gate_array",
    "simulate",
    "compile_array_to_formula",
    "input_vector_formula",
    "formula_to_array",
    "pad_formula",
    "SftInstance",
    "SftVerdict",
    "boolean_fastpath",
    "decide_sft",
]
