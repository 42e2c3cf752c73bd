"""Command line front end.

Six verbs over the library: validate / eval / sft read a formula file,
compile-circuit / simulate read a gate-array file, compile-formula turns
a formula file into an array file.  All output is exact rational text,
so identical inputs and flags produce byte-identical output.

Exit codes: 0 success (or SFT accept), 1 SFT reject, 2 usage error,
3 parse or validation error, 4 entry cap exceeded, 5 internal error (any
other failure), so that a crash never reads as a verdict.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .backward_compiler import formula_to_array
from .circuit import (
    acceptance_probability,
    parse_gate_array,
    render_gate_array,
    simulate,
)
from .errors import CapExceededError, ParseError, SftTensorError, ValidationError
from .formula import (
    DEFAULT_ENTRY_CAP,
    Atom,
    Prod,
    check_osl,
    diameter,
    evaluate,
    parse_formula,
    render_formula,
    size,
)
from .forward_compiler import compile_array_to_formula, input_vector_formula
from .semiring import Tag, render_scalar
from .sft import SftInstance, VARIANTS, decide_sft

TAGS = {
    "bool": Tag.BOOLEAN,
    "qplus": Tag.NONNEG_RATIONAL,
    "q": Tag.RATIONAL,
    "qi": Tag.GAUSSIAN_RATIONAL,
}


def _add_common(sub, mode=False, cap=False):
    sub.add_argument(
        "--semiring",
        choices=sorted(TAGS),
        default="q",
        help="scalar semiring (default q)",
    )
    if mode:
        sub.add_argument(
            "--mode",
            choices=("strict", "paper"),
            default="strict",
            help="strict raises on malformed input; paper degrades to the trivial formula",
        )
    if cap:
        sub.add_argument(
            "--max-entries",
            type=_positive_int,
            default=DEFAULT_ENTRY_CAP,
            help=f"largest intermediate matrix entry count (default {DEFAULT_ENTRY_CAP})",
        )
    sub.add_argument("file", help="input file")


def _fraction(text: str) -> Fraction:
    # Fraction("1/0") raises ZeroDivisionError, which argparse would let
    # escape as a traceback; both faults are usage errors.
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _positive_int(text: str) -> int:
    # A cap below 1 refuses every formula, a 1x1 atom included; that is a
    # usage error, not an evaluation that exceeded the cap.
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sft-tensor",
        description="Tensor formulas over semirings: evaluate, decide, compile.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="report formula metrics")
    validate.add_argument(
        "--require-osl",
        action="store_true",
        help="fail (exit 3) unless the formula is OSL",
    )
    _add_common(validate, mode=True)

    evaluate_cmd = commands.add_parser("eval", help="print the formula value")
    _add_common(evaluate_cmd, mode=True, cap=True)

    sft = commands.add_parser("sft", help="decide the partial-trace problem")
    sft.add_argument("--k", type=int, required=True, help="trailing window size")
    sft.add_argument(
        "--alpha",
        type=_fraction,
        default=Fraction(1, 2),
        help="acceptance threshold in [1/2, 1) (default 1/2)",
    )
    sft.add_argument(
        "--variant", choices=VARIANTS, default="standard", help="decision variant"
    )
    _add_common(sft, mode=True, cap=True)

    compile_circuit = commands.add_parser(
        "compile-circuit", help="gate array file to formula text"
    )
    _add_common(compile_circuit)

    compile_formula = commands.add_parser(
        "compile-formula", help="OSL formula file to gate array text"
    )
    _add_common(compile_formula, mode=True)

    simulate_cmd = commands.add_parser(
        "simulate", help="run a gate array file on its declared input"
    )
    simulate_cmd.add_argument(
        "--k", type=int, help="also print the trailing-window probability"
    )
    _add_common(simulate_cmd)

    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        # One read decodes the whole file, so exc.start is a file offset.
        raise ParseError(
            f"{path}: byte 0x{exc.object[exc.start]:02x} at byte offset "
            f"{exc.start} is not UTF-8"
        ) from None


def _load_formula(args):
    return parse_formula(_read(args.file), TAGS[args.semiring], mode=args.mode)


def cmd_validate(args) -> int:
    f = _load_formula(args)
    rows, cols = f.order
    report = check_osl(f)
    print(f"order {rows}x{cols}")
    print(f"size {size(f)}")
    print(f"diameter {diameter(f)}")
    print(f"sum-free {'yes' if report.is_sum_free else 'no'}")
    print(f"osl {'yes' if report.is_osl else 'no'}")
    if args.require_osl and not report.is_osl:
        for path in report.offending_paths:
            print(f"offending {path or 'root'}")
        return 3
    return 0


def cmd_eval(args) -> int:
    value = evaluate(_load_formula(args), entry_cap=args.max_entries)
    print(render_formula(Atom(value)))
    return 0


def cmd_sft(args) -> int:
    inst = SftInstance(
        _load_formula(args), k=args.k, alpha=args.alpha, variant=args.variant
    )
    verdict = decide_sft(inst, entry_cap=args.max_entries)
    print(f"value {render_scalar(verdict.value)}")
    print(f"verdict {'accept' if verdict.accept else 'reject'}")
    if verdict.in_promise_band is not None:
        print(f"in-band {'yes' if verdict.in_promise_band else 'no'}")
    return 0 if verdict.accept else 1


def cmd_compile_circuit(args) -> int:
    tag = TAGS[args.semiring]
    array, state = parse_gate_array(_read(args.file), tag)
    f = compile_array_to_formula(array)
    if state is not None:
        bits = state.basis_bits()
        if bits is not None:
            g = input_vector_formula(bits, tag)
        else:
            g = input_vector_formula([state.amplitudes], tag)
        f = Prod(f, g)
    print(render_formula(f))
    return 0


def cmd_compile_formula(args) -> int:
    array, state = formula_to_array(_load_formula(args))
    print(render_gate_array(array, state), end="")
    return 0


def cmd_simulate(args) -> int:
    if args.k is not None and args.k < 1:
        raise ValidationError(f"k must be positive, got {args.k}")
    tag = TAGS[args.semiring]
    array, state = parse_gate_array(_read(args.file), tag)
    if state is None:
        raise ValidationError("array file declares no input state")
    out = simulate(array, state)
    bits = out.basis_bits()
    if bits is not None:
        print(f"output basis {bits}")
    else:
        print(f"output amps {render_formula(Atom(out.amplitudes))}")
    if args.k is not None:
        weight = acceptance_probability(out, args.k)
        print(f"probability {render_scalar(weight)}")
    return 0


_HANDLERS = {
    "validate": cmd_validate,
    "eval": cmd_eval,
    "sft": cmd_sft,
    "compile-circuit": cmd_compile_circuit,
    "compile-formula": cmd_compile_formula,
    "simulate": cmd_simulate,
}


# Built once: parse_args keeps no state between calls.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SftTensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal error: {detail}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
