import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import compositions
from msnlib.exact import (
    PreconditionError,
    as_rational,
    binom,
    binom_gen,
    exact_field,
    format_rational,
    multinom,
    qpow,
)
from msnlib.distributions import (
    Binomial,
    central_from_raw,
    central_via_factorial,
    factorial_moments_from_raw,
    raw_moment,
)
from msnlib.linalg import RationalMatrix, combine, partition
from msnlib.msn import msn_shift, msn_table, stirling2, surjection_count
from msnlib.msn1 import inversion_product, msn1_table, stirling1
from msnlib.series import TruncatedSeries, binomial_gf_value, egf_coeffs, ogf_coeffs
from msnlib.simulate import SimConfig


class TestQpow:
    def test_zero_to_zero_is_one(self):
        assert qpow(0, 0) == 1

    def test_sign(self):
        assert qpow(-1, 1) == -1

    def test_rational_base(self):
        assert qpow(Fraction(3, 2), 3) == Fraction(27, 8)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            qpow(2, -1)


class TestBinom:
    def test_standard(self):
        assert binom(5, 2) == 10

    def test_out_of_range(self):
        assert binom(3, 5) == 0
        assert binom(3, -1) == 0

    def test_negative_upper(self):
        # falling-factorial extension
        assert binom(-1, 2) == 1
        assert binom(-1, 0) == 1
        assert binom(-2, 3) == -4

    def test_pascal(self):
        for n in range(1, 31):
            for r in range(n + 1):
                assert binom(n, r) == binom(n - 1, r - 1) + binom(n - 1, r)


class TestBinomGen:
    def test_half(self):
        assert binom_gen(Fraction(1, 2), 2) == Fraction(-1, 8)

    def test_empty_product(self):
        for x in (0, 5, Fraction(-7, 3)):
            assert binom_gen(x, 0) == 1

    def test_agrees_with_integer_binom(self):
        assert binom_gen(4, 2) == 6
        for x in range(13):
            for j in range(13):
                assert binom_gen(x, j) == binom(x, j)


class TestMultinom:
    def test_basic(self):
        assert multinom(4, [2, 1, 1]) == 12

    def test_empty(self):
        assert multinom(0, []) == 1

    def test_single_part(self):
        assert multinom(3, [3]) == 1

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            multinom(4, [2, 1])

    def test_matches_composition_count(self):
        # sum of multinomials over all compositions of i into t parts is t**i
        for t in (2, 3):
            for i in range(6):
                total = sum(multinom(i, parts) for parts in compositions(i, t))
                assert total == t**i


class TestRationalParsing:
    def test_round_trip_strings(self):
        for text in ("-3/7", "5", "0", "12/5"):
            assert format_rational(as_rational(text)) == text

    def test_integer_formatting(self):
        assert format_rational(Fraction(6, 3)) == "2"

    def test_decimal_rejected(self):
        with pytest.raises(ValueError):
            as_rational("0.5")

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    def test_zero_denominator_names_the_literal(self):
        with pytest.raises(ValueError, match="zero denominator.*'-3/0'"):
            as_rational("-3/0")


class TestExactField:
    def test_reads_integers_and_literals(self):
        assert exact_field("-3/7", "p") == Fraction(-3, 7)
        assert exact_field(4, "p") == 4
        assert exact_field("6/2", "n", integer=True) == 3
        assert type(exact_field("6/2", "n", integer=True)) is int

    def test_reads_lists_entrywise(self):
        assert exact_field([["1/2", 1], []], "P", depth=2) == [[Fraction(1, 2), 1], []]
        assert exact_field(["6/2", 1], "M", integer=True, depth=1) == [3, 1]
        with pytest.raises(ValueError, match="field 'P' must be an exact rational"):
            exact_field([["1/2"], ["1/4", 0.75]], "P", depth=2)

    @pytest.mark.parametrize(
        "value, depth, shape",
        [
            ("1/2", 1, "a list, got '1/2'"),
            (["1/2"], 0, "an exact rational, got ['1/2']"),
            ([["1/2"]], 1, "an exact rational, got ['1/2']"),
            ("1/2", 2, "a list of rows, got '1/2'"),
            (["1/2"], 2, "a list, got '1/2'"),
            ([[["1/2"]]], 2, "an exact rational, got ['1/2']"),
        ],
    )
    def test_refuses_the_wrong_shape(self, value, depth, shape):
        with pytest.raises(ValueError) as err:
            exact_field(value, "P", depth=depth)
        assert str(err.value) == f"field 'P' must be {shape}"

    @pytest.mark.parametrize("value", [0.5, 1.0, True, None, {"a": 1}])
    def test_rational_field_refuses_non_exact_values(self, value):
        with pytest.raises(ValueError, match="field 'p' must be an exact rational"):
            exact_field(value, "p")

    @pytest.mark.parametrize("value", [3.9, 3.0, True, False, "7/2"])
    def test_integer_field_refuses_non_integers(self, value):
        with pytest.raises(ValueError, match="field 'n' must be an integer"):
            exact_field(value, "n", integer=True)


@given(
    st.integers(-10**6, 10**6),
    st.integers(1, 10**6),
    st.integers(-10**6, 10**6),
    st.integers(1, 10**6),
)
def test_rational_arithmetic_round_trips(a, b, c, d):
    x = Fraction(a, b)
    y = Fraction(c, d)
    assert (x + y) - y == x
    assert x.denominator > 0


@given(st.fractions(), st.integers(0, 8))
def test_binom_gen_degree(x, j):
    # a polynomial identity: C(x, j) * j = C(x, j-1) * (x - j + 1) for j >= 1
    if j >= 1:
        assert binom_gen(x, j) * j == binom_gen(x, j - 1) * (x - j + 1)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (stirling1, (2.5, 1), "indices must be an integer, got 2.5"),
        (stirling1, (2, -1), "indices must be nonnegative"),
        (stirling2, (2.5, 1), "indices must be an integer, got 2.5"),
        (stirling2, (3, Fraction(1, 2)), "indices must be an integer, got 1/2"),
        (egf_coeffs, (1.5, 1, 3), "j must be an integer, got 1.5"),
        (egf_coeffs, (1, 1, -1), "order must be nonnegative"),
        (
            egf_coeffs,
            (1, Fraction(1, 2), 3),
            "exponential route requires integer k, got Fraction(1, 2)",
        ),
        (ogf_coeffs, (1, Fraction(1, 2), -1), "order must be nonnegative"),
        (ogf_coeffs, (Fraction(3, 2), 1, 3), "j must be an integer, got 3/2"),
        (binomial_gf_value, (2.5, 1, 1), "i must be an integer, got 2.5"),
        (binomial_gf_value, (-1, 1, 1), "i must be nonnegative"),
        (surjection_count, (2.5, 1, 0), "indices must be an integer, got 2.5"),
        (surjection_count, (2, 1.0, 0), "indices must be an integer, got 1.0"),
        (surjection_count, (2, 1, Fraction(1, 2)), "combinatorial count needs integer k >= 0"),
        (surjection_count, (2, 17, 0), "brute force covers at most 16 boxes, got j + k = 17"),
    ],
)
def test_public_entry_points_raise_named_preconditions(fn, args, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        fn(*args)


_SQUARE = RationalMatrix([[1, 2], [3, 4]])
_ROW = RationalMatrix([[1, 2]])
_TWO_STATE = RationalMatrix([[Fraction(1, 2), Fraction(1, 2)], [1, 0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TruncatedSeries([1], order=-1), "order must be nonnegative"),
        (
            lambda: TruncatedSeries([1], 0) + TruncatedSeries([1, 1], 1),
            "order mismatch: 0 vs 1",
        ),
        (lambda: TruncatedSeries([1, 1]).shift(-1), "shift must be nonnegative"),
        (lambda: TruncatedSeries([1, 1]).pow(-1), "exponent must be nonnegative"),
        (lambda: TruncatedSeries([1, 1]).exp(), "exp needs a zero constant term"),
        (lambda: qpow(0, -1), "exponent must be nonnegative, got -1"),
        (lambda: binom_gen(Fraction(1, 2), -1), "lower index must be nonnegative, got -1"),
        (lambda: multinom(-1, []), "total must be nonnegative, got -1"),
        (lambda: multinom(1, [2, -1]), "parts must be nonnegative, got [2, -1]"),
        (lambda: multinom(3, [1, 1]), "parts [1, 1] do not sum to 3"),
        (lambda: central_from_raw([]), "raw moment list must start with M_0 = 1"),
        (
            lambda: factorial_moments_from_raw([2, 1]),
            "raw moment list must start with M_0 = 1",
        ),
        (
            lambda: central_via_factorial([0, 1], 1),
            "factorial moment list must start with F_0 = 1",
        ),
        (lambda: central_via_factorial([1], 5), "need factorial moments up to order 5"),
        (lambda: _ROW**2, "matrix power needs a square matrix"),
        (lambda: _SQUARE**-1, "negative powers: invert first"),
        (lambda: _SQUARE**2.5, "matrix power needs an integer exponent, got 2.5"),
        (
            lambda: msn_shift(2, 1, Fraction(1, 2)),
            "shift route requires integer k, got Fraction(1, 2)",
        ),
        (lambda: msn_shift(2, 1, -1), "shift route requires k >= 0, got -1"),
        (lambda: msn_shift(-2, 1, 1), "indices must be nonnegative"),
        (lambda: msn_shift(2.5, 1, 1), "indices must be an integer, got 2.5"),
        (lambda: inversion_product(1, 2, 0, 0), "need 0 <= j <= i, got i=1, j=2"),
        (lambda: inversion_product(2.5, 1, 0, 0), "indices must be an integer, got 2.5"),
        (lambda: msn_table(3, 1).value(-1, 0), "indices must be nonnegative"),
        (lambda: msn1_table(3, 1).s(2, -1), "indices must be nonnegative"),
        (lambda: msn1_table(3, 1).c(-1, 0), "indices must be nonnegative"),
        (lambda: _ROW @ _ROW, "dimension mismatch: 1x2 @ 1x2"),
        (lambda: _ROW.inverse(), "inverse needs a square matrix"),
        (lambda: combine([(1, _ROW), (1, _SQUARE)]), "shape mismatch"),
        (lambda: combine([]), "combine needs at least one term"),
        (lambda: as_rational(2.5), "cannot interpret float as an exact rational"),
        (lambda: raw_moment(7, 1), "unknown distribution spec: 7"),
        # a bool is an int subclass, not a count
        (lambda: Binomial(True, "1/2"), "n must be an integer, got True"),
        (
            lambda: SimConfig(partition(_TWO_STATE, [1]), "N", True, True, 1),
            "k must be an integer, got True",
        ),
    ],
)
def test_bad_arguments_raise_named_preconditions(call, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call()
