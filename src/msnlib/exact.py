"""Exact scalar arithmetic and combinatorial primitives.

Every quantity in this library except the Monte Carlo estimates is an exact
rational.  ``Rational`` is the standard-library :class:`fractions.Fraction`,
which already guarantees a positive canonical denominator and gcd-reduced
representation after every operation.  This module adds the combinatorial
building blocks the rest of the package is written in terms of: integer
powers with the ``0**0 == 1`` convention, binomial coefficients extended to
negative upper arguments, the generalized (rational upper argument) binomial,
and multinomial coefficients.  It also holds :class:`PreconditionError`, the
base of every error that input given to the CLI can cause, the integer
check the other modules share, and the frozen value base :class:`Record`.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Sequence, Union

Rational = Fraction

RationalLike = Union[int, Fraction, str]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class PreconditionError(ValueError):
    """An input breaks a stated requirement: a malformed literal, JSON field,
    matrix or argument type, a law or chain outside its domain, a hypothesis
    a closed form needs, too many truncated walks.  Every error input given
    to the CLI can cause derives from it (``ChainError``, ``InputTypeError``,
    ``SingularMatrixError``, ``CommutabilityError``, ``TruncationError``),
    and the CLI exits 3 on exactly this class and its subclasses; any other
    exception, a bare ValueError included, is an internal fault."""


class InputTypeError(PreconditionError, TypeError):
    """An argument of a type the call cannot read, such as a float for a rational."""


class Record:
    """A frozen value whose fields are its ``__init__`` parameters, those
    named with a leading "_" aside, which ``__init__`` stores through
    ``__dict__``.  ``==``, ``hash`` and ``repr`` read them in that order, as
    a frozen dataclass's do, and assigning or deleting one later is an
    AttributeError.  Unlike a dataclass, a Record generates no code."""

    def __init_subclass__(cls):
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            names = code.co_varnames[1 : code.co_argcount]
            cls._fields = tuple(name for name in names if not name.startswith("_"))

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_integer(name: str, value, least: int = 1):
    """A PreconditionError naming ``name`` unless ``value`` is an integer >= ``least``."""
    if type(value) is not int:  # a bool is an int subclass, not a count
        raise PreconditionError(f"{name} must be an integer, got {value}")
    if value < least:
        bound = f">= {least}" if least else "nonnegative"
        raise PreconditionError(f"{name} must be {bound}")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string like ``"-3/7"`` to an exact Fraction.

    Decimal notation is rejected deliberately: accepting it would force a
    rounding policy, and this library performs no rounding anywhere.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise PreconditionError(f"not an exact rational literal: {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise PreconditionError(f"zero denominator in rational literal: {value!r}") from None
    raise InputTypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def exact_field(value, name: str, integer: bool = False, depth: int = 0):
    """A JSON field as exact rationals (ints if ``integer``).

    ``depth`` is the field's shape: 0 a scalar, 1 a list of scalars, 2 a
    matrix (a list of such lists).  Only JSON integers and literal strings
    are read: a float was rounded when it was written and a boolean is no
    number, so either is a PreconditionError naming the field, as is a
    non-integral value where an integer is needed and a value of the wrong
    shape.
    """
    if depth:
        if type(value) is not list:
            shape = "a list" if depth == 1 else "a list of rows"
            raise PreconditionError(f"field {name!r} must be {shape}, got {value!r}")
        return [exact_field(v, name, integer, depth - 1) for v in value]
    number = as_rational(value) if type(value) in (int, str) else None
    if number is not None and (not integer or number.denominator == 1):
        return number.numerator if integer else number
    kind = "an integer" if integer else "an exact rational"
    raise PreconditionError(f"field {name!r} must be {kind}, got {value!r}")


def format_rational(value: Fraction) -> str:
    """Render as ``"num/den"``, or plain ``"n"`` for integers, in full.

    Python's limit on int-to-str conversion guards the parsing of untrusted
    text, so it is lifted only while a longer value is rendered.
    """
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return format_rational(value)
        finally:
            sys.set_int_max_str_digits(limit)


def qpow(base: RationalLike, exp: int) -> Fraction:
    """``base ** exp`` for exp >= 0, with ``qpow(0, 0) == 1``."""
    if exp < 0:
        raise PreconditionError(f"exponent must be nonnegative, got {exp}")
    return as_rational(base) ** exp


def binom(n: int, r: int) -> int:
    """Binomial coefficient, extended beyond the classical triangle.

    * 0 <= r <= n: the usual value.
    * r < 0, or r > n >= 0: zero.
    * n < 0, r >= 0: ``(-1)**r * binom(r - n - 1, r)``, the unique polynomial
      (falling factorial) extension in the upper argument.
    """
    if r < 0:
        return 0
    if n < 0:
        sign = -1 if r % 2 else 1
        return sign * math.comb(r - n - 1, r)
    if r > n:
        return 0
    return math.comb(n, r)


def binom_gen(x: RationalLike, j: int) -> Fraction:
    """Generalized binomial ``x*(x-1)*...*(x-j+1) / j!`` for rational x."""
    if j < 0:
        raise PreconditionError(f"lower index must be nonnegative, got {j}")
    x = as_rational(x)
    num = Fraction(1)
    for t in range(j):
        num *= x - t
    return num / math.factorial(j)


def multinom(i: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient ``i! / (parts[0]! * ... * parts[-1]!)``."""
    if i < 0:
        raise PreconditionError(f"total must be nonnegative, got {i}")
    if any(p < 0 for p in parts):
        raise PreconditionError(f"parts must be nonnegative, got {list(parts)}")
    if sum(parts) != i:
        raise PreconditionError(f"parts {list(parts)} do not sum to {i}")
    result = math.factorial(i)
    for p in parts:
        result //= math.factorial(p)
    return result
