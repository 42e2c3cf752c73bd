"""Exact scalar arithmetic over the four supported semirings.

Supported semirings: the Booleans (with OR as sum and AND as product), the
nonnegative rationals, the rationals, and the Gaussian rationals a + bi with
a, b rational.  The last stands in for the complex numbers: every value the
rest of the package produces is a finite combination of rational inputs, so
restricting to exact Gaussian rationals loses nothing and keeps every
comparison decidable.  There is no floating point anywhere; all components
are `fractions.Fraction`, which guarantees lowest terms and a positive
denominator.

A Scalar is immutable and tagged.  Mixed-tag arithmetic is rejected rather
than coerced, since silently widening Boolean 1 to rational 1 would change
the meaning of "+".
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, TagMismatchError, ValidationError


class Tag(enum.Enum):
    """Identifies which semiring a value lives in.

    The enum values double as the CLI spellings.
    """

    BOOLEAN = "bool"
    NONNEG_RATIONAL = "qplus"
    RATIONAL = "q"
    GAUSSIAN_RATIONAL = "qi"


_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Scalar:
    """A tagged semiring element.

    `re` and `im` are exact rationals; `im` is zero except under the
    Gaussian tag.  Boolean values store 0 or 1 in `re`.
    """

    tag: Tag
    re: Fraction
    im: Fraction = _ZERO

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def __repr__(self) -> str:
        return f"Scalar({self.tag.value}, {render_scalar(self)})"


def make_scalar(tag: Tag, re: Fraction | int, im: Fraction | int = 0) -> Scalar:
    """Build a Scalar, enforcing the per-tag range restrictions."""
    re = Fraction(re)
    im = Fraction(im)
    if tag is Tag.BOOLEAN:
        if im != 0 or re not in (0, 1):
            raise ValidationError(f"Boolean scalar must be 0 or 1, got {re}+{im}i")
    elif tag is Tag.NONNEG_RATIONAL:
        if im != 0:
            raise ValidationError("nonnegative-rational scalar cannot be imaginary")
        if re < 0:
            raise ValidationError(f"nonnegative-rational scalar cannot be {re}")
    elif tag is Tag.RATIONAL:
        if im != 0:
            raise ValidationError("rational scalar cannot be imaginary")
    return Scalar(tag, re, im)


def scalar_zero(tag: Tag) -> Scalar:
    return Scalar(tag, _ZERO)


def scalar_one(tag: Tag) -> Scalar:
    return Scalar(tag, _ONE)


def _require_same_tag(a: Scalar, b: Scalar) -> None:
    if a.tag is not b.tag:
        raise TagMismatchError(f"cannot combine {a.tag.value} with {b.tag.value}")


def scalar_add(a: Scalar, b: Scalar) -> Scalar:
    """Semiring sum: OR for Booleans, exact addition otherwise."""
    _require_same_tag(a, b)
    if a.tag is Tag.BOOLEAN:
        return scalar_one(a.tag) if (a.re == 1 or b.re == 1) else scalar_zero(a.tag)
    return Scalar(a.tag, a.re + b.re, a.im + b.im)


def scalar_mul(a: Scalar, b: Scalar) -> Scalar:
    """Semiring product: AND for Booleans, exact multiplication otherwise."""
    _require_same_tag(a, b)
    if a.tag is Tag.BOOLEAN:
        return scalar_one(a.tag) if (a.re == 1 and b.re == 1) else scalar_zero(a.tag)
    if a.tag is Tag.GAUSSIAN_RATIONAL:
        return Scalar(a.tag, a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
    return Scalar(a.tag, a.re * b.re)


def conjugate(a: Scalar) -> Scalar:
    """Complex conjugate; the identity on every non-Gaussian tag."""
    if a.tag is Tag.GAUSSIAN_RATIONAL and a.im != 0:
        return Scalar(a.tag, a.re, -a.im)
    return a


def norm_square(a: Scalar) -> Scalar:
    """a times its conjugate, as a real scalar.

    Gaussian inputs come back with the plain rational tag so that partial
    traces and probabilities are directly comparable against thresholds.
    Booleans are their own squared norm.
    """
    if a.tag is Tag.BOOLEAN:
        return a
    if a.tag is Tag.GAUSSIAN_RATIONAL:
        return Scalar(Tag.RATIONAL, a.re * a.re + a.im * a.im)
    return Scalar(a.tag, a.re * a.re)


def norm_tag(tag: Tag) -> Tag:
    """The tag norm_square produces for inputs of the given tag."""
    return Tag.RATIONAL if tag is Tag.GAUSSIAN_RATIONAL else tag


# Token shapes.  A rational token is an optionally signed integer with an
# optional /denominator; a Gaussian token is a rational, or a rational
# followed by i, or a rational plus/minus an unsigned rational times i.
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")
_GAUSSIAN_RE = re.compile(
    r"(?P<re>-?\d+(?:/\d+)?)"
    r"(?:(?P<pure>i)|(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)i)?"
)


def _int_from_digits(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # int() refuses digit strings past the interpreter's length limit.
        digits = len(text.lstrip("-"))
        raise ParseError(f"integer of {digits} digits is too long") from None


def _fraction_from_token(token: str) -> Fraction:
    # Fraction would happily parse "3/0" into an exception of its own; keep
    # the error in our vocabulary.
    if "/" in token:
        num, den = token.split("/", 1)
        if _int_from_digits(den) == 0:
            raise ParseError(f"zero denominator in {token!r}")
        return Fraction(_int_from_digits(num), _int_from_digits(den))
    return Fraction(_int_from_digits(token))


def parse_scalar(token: str, tag: Tag) -> Scalar:
    """Parse one scalar token for the given tag.

    Boolean tokens are the single characters 0 and 1.  Rational tokens look
    like `3`, `-4/5`.  Gaussian tokens additionally allow `3i`, `-1i`, and
    `1/2+1/2i` (no internal whitespace).
    """
    if tag is Tag.BOOLEAN:
        if token == "0":
            return scalar_zero(tag)
        if token == "1":
            return scalar_one(tag)
        raise ParseError(f"invalid Boolean scalar {token!r}")
    if tag is Tag.GAUSSIAN_RATIONAL:
        m = _GAUSSIAN_RE.fullmatch(token)
        if m is None:
            raise ParseError(f"invalid Gaussian-rational scalar {token!r}")
        first = _fraction_from_token(m.group("re"))
        if m.group("pure"):
            return Scalar(tag, _ZERO, first)
        if m.group("im") is not None:
            second = _fraction_from_token(m.group("im"))
            if m.group("sign") == "-":
                second = -second
            return Scalar(tag, first, second)
        return Scalar(tag, first)
    m = _RATIONAL_RE.fullmatch(token)
    if m is None:
        raise ParseError(f"invalid rational scalar {token!r}")
    value = _fraction_from_token(token)
    if tag is Tag.NONNEG_RATIONAL and value < 0:
        raise ParseError(f"negative scalar {token!r} not allowed in this semiring")
    return Scalar(tag, value)


_CHUNK = 10**600  # below the least digit limit the interpreter accepts


def _long_int_text(n: int) -> str:
    """Decimal text of an integer past the interpreter's digit limit,
    split off 600 digits at a time with divmod."""
    rest, chunks = abs(n), []
    while rest >= _CHUNK:
        rest, chunk = divmod(rest, _CHUNK)
        chunks.append(f"{chunk:0600d}")
    return ("-" if n < 0 else "") + str(rest) + "".join(reversed(chunks))


def _render_fraction(f: Fraction) -> str:
    # str() stays the common case: rendering every integer through
    # _long_int_text costs about three times as much per scalar, and
    # rendering is a visible share of compiling a dense formula.
    try:
        return str(f)  # "n", or "n/d" in lowest terms
    except ValueError:  # an integer past the interpreter's digit limit
        num, den = _long_int_text(f.numerator), _long_int_text(f.denominator)
        return num if f.denominator == 1 else f"{num}/{den}"


def render_scalar(a: Scalar) -> str:
    """Canonical token for a scalar; parse_scalar inverts it exactly within
    the parser's digit limit.  Longer integers still render, but reading
    them back is a parse error (exit 3 on the command line)."""
    if a.tag is Tag.BOOLEAN:
        return "1" if a.re == 1 else "0"
    if a.im == 0:
        return _render_fraction(a.re)
    if a.re == 0:
        return _render_fraction(a.im) + "i"
    sign = "+" if a.im > 0 else "-"
    return _render_fraction(a.re) + sign + _render_fraction(abs(a.im)) + "i"
