"""Truncated formal power series over exact rationals.

All series here are formal objects truncated at a fixed order N: a
:class:`TruncatedSeries` is just the coefficient vector of x^0 .. x^N, and
every operation (sum, product, exponential) is exact modulo x^(N+1).  No
convergence questions arise because nothing is ever evaluated analytically.

As a :class:`~msnlib.linalg.RationalMatrix` does, a series stores integer
numerators ``num`` over one denominator ``den > 0``, kept canonical with
``gcd(den, *num) == 1`` (FLINT's ``fmpq_poly``).  Every operation works on
the integers and reduces once per result: a product is one integer
convolution per coefficient over the product of the denominators.
Coefficients are handed out as reduced Fractions built on demand.

The three generating-function routes for the b family live here:

* :func:`ogf_coeffs`: ordinary generating function, a product of geometric
  series; coefficient of x^i is b(i, j, k) for any rational k.
* :func:`egf_coeffs`: exponential generating function (e^x - 1)^j * e^(k*x)
  for integer k; i! times the coefficient of x^i is b(i, j, k).
* :func:`binomial_gf_value`: the finite binomial transform
  sum_j b(i, j, k) * C(x, j), which collapses to (x + k)**i.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .exact import PreconditionError, RationalLike, _check_integer, as_rational
from .msn import msn_row_scaled


def _convolve(a, b) -> list[int]:
    """The integer coefficients of a * b mod x^len(a), for len(b) == len(a)."""
    rev = b[::-1]
    n = len(a)
    return [sum(map(mul, a[: i + 1], rev[n - 1 - i :])) for i in range(n)]


def _series(num, den: int) -> "TruncatedSeries":
    """Divide integer coefficients ``num`` and ``den > 0`` by their common gcd."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            den //= g
            num = [v // g for v in num]
    obj = object.__new__(TruncatedSeries)
    obj.order = len(num) - 1
    obj.num = tuple(num)
    obj.den = den
    return obj


class TruncatedSeries:
    """Coefficients c_0 .. c_N of a univariate series, exact mod x^(N+1):
    integer ``num`` over ``den``."""

    __slots__ = ("order", "num", "den")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [as_rational(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        _check_integer("order", order, 0)
        coeffs = coeffs[: order + 1]
        # the lcm of reduced denominators leaves gcd(den, *num) == 1
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        self.order = order
        self.num = tuple(num + [0] * (order + 1 - len(num)))
        self.den = den

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> "TruncatedSeries":
        return cls([as_rational(value)], order)

    @classmethod
    def geometric(cls, c: RationalLike, order: int) -> "TruncatedSeries":
        """1 / (1 - c*x) = sum c**n x**n: p^n q^(N-n) over q^N for c = p/q."""
        c = as_rational(c)
        p, q = c.numerator, c.denominator
        return _series([p**n * q ** (order - n) for n in range(order + 1)], q**order)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.num)

    def coeff(self, i: int) -> Fraction:
        _check_integer("index", i, 0)
        if i > self.order:
            raise IndexError(f"coefficient {i} outside order {self.order}")
        return Fraction(self.num[i], self.den)

    def _check_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise PreconditionError(f"order mismatch: {self.order} vs {other.order}")

    def _combine(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """``self + sign * other`` over the lcm of the two denominators."""
        self._check_order(other)
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return _series([s * a + t * b for a, b in zip(self.num, other.num)], den)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, -1)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return _series(_convolve(self.num, other.num), self.den * other.den)
        scalar = as_rational(other)
        p = scalar.numerator
        return _series([p * v for v in self.num], self.den * scalar.denominator)

    __rmul__ = __mul__

    def shift(self, j: int) -> "TruncatedSeries":
        """Multiply by x**j (coefficients past the order fall off)."""
        _check_integer("shift", j, 0)
        num = ((0,) * j + self.num)[: self.order + 1]
        return _series(num, self.den)

    def pow(self, n: int) -> "TruncatedSeries":
        _check_integer("exponent", n, 0)
        num = [1] + [0] * self.order
        for _ in range(n):
            num = _convolve(num, self.num)
        return _series(num, self.den**n)

    def exp(self) -> "TruncatedSeries":
        """Series exponential; requires zero constant term so it stays formal.

        With s = num / den, the terms s^n / n! vanish past n = N, and the sum
        of the others is sum_n num^n (N!/n!) den^(N-n) over N! den^N.
        """
        if self.num[0] != 0:
            raise PreconditionError("exp needs a zero constant term")
        order, den = self.order, self.den
        top = math.factorial(order) * den**order
        term = [1] + [0] * order
        total, weight = [top] + [0] * order, top
        for n in range(1, order + 1):
            term = _convolve(term, self.num)
            weight //= n * den
            total = [t + weight * v for t, v in zip(total, term)]
        return _series(total, top)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.den, self.num))

    def __repr__(self):
        return f"TruncatedSeries({[str(c) for c in self.coeffs]})"


def exp_x(order: int, scale: RationalLike = 1) -> TruncatedSeries:
    """Truncation of e^(scale * x): p^n q^(N-n) N!/n! over N! q^N for scale = p/q."""
    _check_integer("order", order, 0)
    scale = as_rational(scale)
    p, q = scale.numerator, scale.denominator
    top = math.factorial(order)
    return _series(
        [p**n * q ** (order - n) * (top // math.factorial(n)) for n in range(order + 1)],
        top * q**order,
    )


def ogf_coeffs(j: int, k: RationalLike, order: int) -> TruncatedSeries:
    """Coefficients of  j! x^j / ((1 - k x) * prod_{r=1..j} (1 - (k+r) x)).

    The rational function is expanded as a product of geometric series, which
    sidesteps partial fractions entirely (repeated roots occur whenever k+r
    values collide, e.g. for negative integer k).  Coefficient i is b(i, j, k).
    """
    _check_integer("j", j, 0)
    _check_integer("order", order, 0)
    k = as_rational(k)
    series = TruncatedSeries.geometric(k, order)
    for r in range(1, j + 1):
        series = series * TruncatedSeries.geometric(k + r, order)
    return (series * math.factorial(j)).shift(j)


def egf_coeffs(j: int, k: int, order: int) -> TruncatedSeries:
    """Coefficients of (e^x - 1)^j * e^(k x); valid for integer k only."""
    _check_integer("j", j, 0)
    _check_integer("order", order, 0)
    if type(k) is not int:
        raise PreconditionError(f"exponential route requires integer k, got {k!r}")
    em1 = exp_x(order) - TruncatedSeries.constant(1, order)
    return em1.pow(j) * exp_x(order, k)


def binomial_gf_value(i: int, k: RationalLike, x: RationalLike) -> Fraction:
    """sum_{j=0}^{i} b(i, j, k) * C(x, j), evaluated at rational x.

    Contract: equals (x + k)**i, the power-expansion identity
    (n+k)^i = sum_r C(n, r) b(i, r, k) continued from integer n to rational x
    (the continuation is unique because both sides are polynomials in x).

    It reads the one scaled row B_j = q^i b(i, j, k) of k = p/q.  For
    x = a/c, C(x, j) is the integer falling factorial
    F_j = a (a - c) ... (a - (j-1) c) over c^j j!, so the sum is the
    integer sum_j B_j F_j c^(i-j) i!/j! over q^i c^i i!: one division.
    """
    _check_integer("i", i, 0)
    x = as_rational(x)
    row, scale = msn_row_scaled(i, k)
    a, c = x.numerator, x.denominator
    total, falling, weight = 0, 1, math.factorial(i) * c**i
    for j, b in enumerate(row):
        total += b * falling * weight
        falling *= a - j * c
        if j < i:
            weight //= (j + 1) * c
    return Fraction(total, scale * math.factorial(i) * c**i)
