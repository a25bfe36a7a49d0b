"""Truncated formal power series over exact rationals.

All series here are formal objects truncated at a fixed order N: a
:class:`TruncatedSeries` is just the coefficient vector of x^0 .. x^N, and
every operation (sum, product, exponential) is exact modulo x^(N+1).  No
convergence questions arise because nothing is ever evaluated analytically.

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

from .exact import PreconditionError, RationalLike, _check_integer, as_rational, binom_gen, qpow
from .msn import msn_direct


class TruncatedSeries:
    """Coefficients c_0 .. c_N of a univariate series, exact mod x^(N+1)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [as_rational(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [Fraction(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs[: order + 1])

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> "TruncatedSeries":
        return cls([as_rational(value)], order)

    @classmethod
    def geometric(cls, c: RationalLike, order: int) -> "TruncatedSeries":
        """1 / (1 - c*x) = sum c**n x**n."""
        c = as_rational(c)
        return cls([qpow(c, n) for n in range(order + 1)], order)

    def coeff(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient {i} outside order {self.order}")
        return self.coeffs[i]

    def _check_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            n = self.order
            out = [Fraction(0)] * (n + 1)
            for a, ca in enumerate(self.coeffs):
                if ca == 0:
                    continue
                for b in range(n + 1 - a):
                    cb = other.coeffs[b]
                    if cb != 0:
                        out[a + b] += ca * cb
            return TruncatedSeries(out, n)
        scalar = as_rational(other)
        return TruncatedSeries([scalar * c for c in self.coeffs], self.order)

    __rmul__ = __mul__

    def shift(self, j: int) -> "TruncatedSeries":
        """Multiply by x**j (coefficients past the order fall off)."""
        if j < 0:
            raise ValueError("shift must be nonnegative")
        out = [Fraction(0)] * j + list(self.coeffs)
        return TruncatedSeries(out[: self.order + 1], self.order)

    def pow(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        result = TruncatedSeries.constant(1, self.order)
        for _ in range(n):
            result = result * self
        return result

    def exp(self) -> "TruncatedSeries":
        """Series exponential; requires zero constant term so it stays formal."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        result = TruncatedSeries.constant(1, self.order)
        term = TruncatedSeries.constant(1, self.order)
        for n in range(1, self.order + 1):
            term = term * self * Fraction(1, n)
            result = result + term
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries({[str(c) for c in self.coeffs]})"


def exp_x(order: int, scale: RationalLike = 1) -> TruncatedSeries:
    """Truncation of e^(scale * x)."""
    scale = as_rational(scale)
    return TruncatedSeries(
        [qpow(scale, n) / math.factorial(n) for n in range(order + 1)], order
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
    if not isinstance(k, int) or isinstance(k, bool):
        raise PreconditionError(f"exponential route requires integer k, got {k!r}")
    em1 = exp_x(order) - TruncatedSeries.constant(1, order)
    return em1.pow(j) * exp_x(order, k)


def binomial_gf_value(i: int, k: RationalLike, x: RationalLike) -> Fraction:
    """sum_{j=0}^{i} b(i, j, k) * C(x, j), evaluated at rational x.

    Contract: equals (x + k)**i, the power-expansion identity
    (n+k)^i = sum_r C(n, r) b(i, r, k) continued from integer n to rational x
    (the continuation is unique because both sides are polynomials in x).
    """
    _check_integer("i", i, 0)
    k = as_rational(k)
    x = as_rational(x)
    total = Fraction(0)
    for j in range(i + 1):
        total += msn_direct(i, j, k) * binom_gen(x, j)
    return total
