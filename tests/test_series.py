import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnlib.exact import PreconditionError, as_rational, binom_gen, qpow
from msnlib.msn import msn_direct
from msnlib.series import (
    TruncatedSeries,
    binomial_gf_value,
    egf_coeffs,
    exp_x,
    ogf_coeffs,
)


class TestTruncatedSeries:
    def test_mul_truncates(self):
        a = TruncatedSeries([1, 1, 1], order=2)
        b = TruncatedSeries([1, 2, 3], order=2)
        assert (a * b).coeffs == (1, 3, 6)

    def test_geometric(self):
        g = TruncatedSeries.geometric(Fraction(2, 3), 3)
        assert g.coeffs == (1, Fraction(2, 3), Fraction(4, 9), Fraction(8, 27))

    def test_shift_drops_tail(self):
        s = TruncatedSeries([1, 2, 3], order=2).shift(2)
        assert s.coeffs == (0, 0, 1)

    def test_exp_of_x(self):
        x = TruncatedSeries([0, 1], order=5)
        assert x.exp().coeffs == tuple(
            Fraction(1, math.factorial(n)) for n in range(6)
        )

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 1], order=1).exp()

    def test_exp_is_multiplicative(self):
        s = TruncatedSeries([0, 1, Fraction(1, 2), 0, Fraction(-2, 3)], order=4)
        t = TruncatedSeries([0, Fraction(-1, 3), 1, Fraction(1, 5), 0], order=4)
        assert (s + t).exp() == s.exp() * t.exp()

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1], order=0) + TruncatedSeries([1, 1], order=1)

    def test_coeff_past_the_order_is_an_index_error(self):
        """As ``MsnTable.value`` past ``i_max``: an IndexError, no precondition."""
        series = TruncatedSeries([1, 2, 3])
        assert series.coeff(2) == 3
        with pytest.raises(IndexError, match="^coefficient 3 outside order 2$") as exc:
            series.coeff(3)
        assert not isinstance(exc.value, PreconditionError)


class TestOgf:
    def test_j1_k2(self):
        assert ogf_coeffs(1, 2, 2).coeffs == (0, 1, 5)

    def test_j0_is_geometric(self):
        k = Fraction(-3, 4)
        series = ogf_coeffs(0, k, 5)
        assert series.coeffs == tuple(k**n for n in range(6))

    def test_j2_k0_slice(self):
        # 2 x^2 / ((1-x)(1-2x)) opens with 0, 0, 2, 6
        assert ogf_coeffs(2, 0, 3).coeffs == (0, 0, 2, 6)

    def test_matches_family(self):
        for k in (Fraction(-5), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(2)):
            for j in range(5):
                series = ogf_coeffs(j, k, 10)
                for i in range(11):
                    assert series.coeff(i) == msn_direct(i, j, k)

    def test_colliding_roots_are_fine(self):
        # k = -2 makes the 1-kx factor collide with the r = 2 factor's negative
        series = ogf_coeffs(3, -2, 8)
        for i in range(9):
            assert series.coeff(i) == msn_direct(i, 3, -2)


class TestEgf:
    def test_j1_k1(self):
        series = egf_coeffs(1, 1, 3)
        assert [math.factorial(i) * series.coeff(i) for i in range(4)] == [0, 1, 3, 7]

    def test_j0_k0(self):
        assert egf_coeffs(0, 0, 4).coeffs == (1, 0, 0, 0, 0)

    def test_j2_k0(self):
        series = egf_coeffs(2, 0, 3)
        assert [math.factorial(i) * series.coeff(i) for i in range(4)] == [0, 0, 2, 6]

    def test_matches_family(self):
        for k in range(-3, 4):
            for j in range(5):
                series = egf_coeffs(j, k, 10)
                for i in range(11):
                    assert math.factorial(i) * series.coeff(i) == msn_direct(i, j, k)

    def test_rejects_non_integer_k(self):
        with pytest.raises(ValueError):
            egf_coeffs(1, Fraction(1, 2), 4)


class TestBinomialGf:
    def test_power_identity_at_half(self):
        # explicit sum: b(2,0,1) + b(2,1,1)/2 + b(2,2,1) * (-1/8) = 9/4 = (1/2 + 1)^2
        assert binomial_gf_value(2, 1, Fraction(1, 2)) == Fraction(9, 4)

    def test_constant(self):
        for k in (Fraction(0), Fraction(2), Fraction(-1, 3)):
            for x in (Fraction(1, 2), Fraction(5)):
                assert binomial_gf_value(0, k, x) == 1

    def test_k0(self):
        assert binomial_gf_value(3, 0, 2) == 8

    def test_collapses_to_power(self):
        for k in (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)):
            for x in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-2, 3)):
                for i in range(8):
                    assert binomial_gf_value(i, k, x) == (x + k) ** i


def test_exp_x_scaling():
    series = exp_x(6, Fraction(-1, 2))
    for n in range(7):
        assert series.coeff(n) == Fraction(-1, 2) ** n / math.factorial(n)


class _FractionSeries:
    """Reference: the series kept as a tuple of Fraction coefficients, each
    operation done coefficient by coefficient in Fraction arithmetic."""

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [as_rational(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) < order + 1:
            coeffs = coeffs + [Fraction(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs[: order + 1])

    @classmethod
    def constant(cls, value, order: int):
        return cls([as_rational(value)], order)

    @classmethod
    def geometric(cls, c, order: int):
        c = as_rational(c)
        return cls([qpow(c, n) for n in range(order + 1)], order)

    def __add__(self, other):
        return _FractionSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __sub__(self, other):
        return _FractionSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __mul__(self, other):
        if isinstance(other, _FractionSeries):
            n = self.order
            out = [Fraction(0)] * (n + 1)
            for a, ca in enumerate(self.coeffs):
                if ca == 0:
                    continue
                for b in range(n + 1 - a):
                    cb = other.coeffs[b]
                    if cb != 0:
                        out[a + b] += ca * cb
            return _FractionSeries(out, n)
        scalar = as_rational(other)
        return _FractionSeries([scalar * c for c in self.coeffs], self.order)

    def shift(self, j: int):
        out = [Fraction(0)] * j + list(self.coeffs)
        return _FractionSeries(out[: self.order + 1], self.order)

    def pow(self, n: int):
        result = _FractionSeries.constant(1, self.order)
        for _ in range(n):
            result = result * self
        return result

    def exp(self):
        result = _FractionSeries.constant(1, self.order)
        term = _FractionSeries.constant(1, self.order)
        for n in range(1, self.order + 1):
            term = term * self * Fraction(1, n)
            result = result + term
        return result


def _reference_exp_x(order: int, scale) -> _FractionSeries:
    scale = as_rational(scale)
    return _FractionSeries(
        [qpow(scale, n) / math.factorial(n) for n in range(order + 1)], order
    )


_COEFFS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
)
_SCALARS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def _pairs(draw):
    """Two coefficient lists of one order 0..8, with zeros among them."""
    order = draw(st.integers(0, 8))
    coeffs = st.lists(_COEFFS, min_size=order + 1, max_size=order + 1)
    return order, draw(coeffs), draw(coeffs)


def _same(series: TruncatedSeries, ref: _FractionSeries):
    """Equal coefficients, equal repr text, and a canonical (num, den)."""
    assert series.order == ref.order
    assert series.coeffs == ref.coeffs
    assert [series.coeff(i) for i in range(series.order + 1)] == list(ref.coeffs)
    assert repr(series) == f"TruncatedSeries({[str(c) for c in ref.coeffs]})"
    assert series.den > 0 and math.gcd(series.den, *series.num) == 1
    assert all(type(v) is int for v in series.num) and type(series.den) is int


@settings(max_examples=150, deadline=None)
@given(pair=_pairs(), scalar=_SCALARS, j=st.integers(0, 10), n=st.integers(0, 4))
def test_integer_series_matches_the_fraction_reference(pair, scalar, j, n):
    order, xs, ys = pair
    a, b = TruncatedSeries(xs, order), TruncatedSeries(ys, order)
    ra, rb = _FractionSeries(xs, order), _FractionSeries(ys, order)
    _same(a, ra)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(a * b, ra * rb)
    _same(a * scalar, ra * scalar)
    _same(scalar * a, ra * scalar)
    _same(a.shift(j), ra.shift(j))
    _same(a.pow(n), ra.pow(n))
    flat = TruncatedSeries([0] + xs[1:], order)
    _same(flat.exp(), _FractionSeries([0] + xs[1:], order).exp())
    _same(TruncatedSeries.geometric(scalar, order), _FractionSeries.geometric(scalar, order))
    _same(exp_x(order, scalar), _reference_exp_x(order, scalar))


@settings(max_examples=100, deadline=None)
@given(pair=_pairs())
def test_equal_series_compare_and_hash_alike(pair):
    order, xs, ys = pair
    a, b = TruncatedSeries(xs, order), TruncatedSeries(ys, order)
    for left, right in [
        (a * b, b * a),
        ((a + b) - b, a),
        (a * b, TruncatedSeries((a * b).coeffs, order)),
        (a.shift(order + 1), TruncatedSeries([], order)),
    ]:
        assert left == right and hash(left) == hash(right)
        assert (left.num, left.den) == (right.num, right.den)
    assert (a == b) == (a.coeffs == b.coeffs)


_RATIONALS = st.fractions(min_value=-7, max_value=7, max_denominator=9)


@settings(max_examples=150, deadline=None)
@given(i=st.integers(0, 12), k=_RATIONALS, x=_RATIONALS)
def test_binomial_gf_value_is_the_power_and_the_msn_direct_sum(i, k, x):
    value = binomial_gf_value(i, k, x)
    assert type(value) is Fraction
    assert value == (x + k) ** i
    assert value == sum(
        (msn_direct(i, j, k) * binom_gen(x, j) for j in range(i + 1)), Fraction(0)
    )
