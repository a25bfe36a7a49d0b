import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnlib.exact import PreconditionError, binom, qpow
from msnlib.linalg import RationalMatrix
from msnlib.msn import msn_direct, msn_table
from msnlib.msn1 import (
    inversion_matrix,
    inversion_product,
    msn1,
    msn1_table,
    stirling1,
    stirling1_triangle,
)

K_SAMPLE = [Fraction(v) for v in (-5, -3, -1)] + [
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 3),
    Fraction(1),
    Fraction(2),
    Fraction(5),
]


class TestStirling1:
    def test_base_cases(self):
        assert stirling1(0, 0) == 1
        assert stirling1(4, 0) == 0
        assert stirling1(0, 3) == 0

    def test_small_values(self):
        # s(2,1) = -1, s(2,2) = 1 => s(3,2) = -1 - 2
        assert stirling1(3, 2) == -3
        assert stirling1(3, 1) == 2
        assert stirling1(4, 2) == 11

    def test_row_sums_vanish(self):
        # sum_j s(i, j) = 0 for i >= 2 (falling factorial at x = 1)
        tri = stirling1_triangle(10)
        for i in range(2, 11):
            assert sum(tri[i]) == 0

    def test_unsigned_magnitudes(self):
        # |s(i, 1)| = (i-1)!
        for i in range(1, 9):
            assert abs(stirling1(i, 1)) == math.factorial(i - 1)


class TestMsn1:
    def test_example(self):
        assert msn1(2, 1, 1) == -3

    def test_k0_is_stirling1(self):
        for i in range(11):
            for j in range(11):
                assert msn1(i, j, 0) == stirling1(i, j)

    def test_constant_term(self):
        for k in K_SAMPLE:
            assert msn1(0, 0, k) == 1

    def test_table_matches_pointwise(self):
        tab = msn1_table(8, Fraction(1, 3))
        for i in range(9):
            for j in range(i + 1):
                assert tab.c(i, j) == msn1(i, j, Fraction(1, 3))
                assert tab.s(i, j) == stirling1(i, j)

    def test_table_rejects_bad_indices(self):
        # as MsnTable.value does: no wrap-around, no bare list IndexError
        tab = msn1_table(3, 2)
        assert tab.c(2, 3) == 0 and tab.s(2, 3) == 0
        for read in (tab.c, tab.s):
            for i, j in ((2, -1), (-1, 0), (-1, -1)):
                with pytest.raises(ValueError, match="^indices must be nonnegative$"):
                    read(i, j)
            with pytest.raises(IndexError, match="^row 5 beyond table size 3$"):
                read(5, 0)

    @pytest.mark.parametrize("i, j", [(2.5, 1), (Fraction(5, 2), 1), (3, 1.5)])
    def test_rejects_non_integer_index(self, i, j):
        with pytest.raises(PreconditionError, match="^indices must be an integer, got "):
            msn1(i, j, 1)
        with pytest.raises(ValueError, match="^indices must be nonnegative$"):
            msn1(-1, 0, 1)

    def test_table_rejects_non_integer_size(self):
        with pytest.raises(PreconditionError, match="^i_max must be an integer, got 5/2$"):
            msn1_table(Fraction(5, 2), 1)


class TestInversion:
    def test_diagonal(self):
        for i in range(7):
            assert inversion_product(i, i, Fraction(2, 3), Fraction(-1, 4)) == 1

    def test_same_k_off_diagonal(self):
        assert inversion_product(4, 2, 1, 1) == 0

    def test_distinct_k(self):
        assert inversion_product(3, 1, 2, Fraction(1, 2)) == Fraction(27, 4)

    def test_contract_over_grid(self):
        for k1 in (Fraction(0), Fraction(1), Fraction(-1, 2)):
            for k2 in (Fraction(0), Fraction(2)):
                for i in range(7):
                    for j in range(i + 1):
                        assert inversion_product(i, j, k1, k2) == binom(i, j) * qpow(
                            k1 - k2, i - j
                        )

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            inversion_product(2, 3, 1, 1)


def inversion_reference(i, j, k1, k2):
    """sum_r b(i, r, k1) c(r, j, k2) / r!, entry by entry from the defining sums."""
    terms = (msn_direct(i, r, k1) * msn1(r, j, k2) / math.factorial(r) for r in range(i + 1))
    return sum(terms, Fraction(0))


rationals_st = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 4, 5, 7]))


@settings(max_examples=60, deadline=None)
@given(rationals_st, rationals_st, st.integers(1, 10))
def test_inversion_matrix_against_reference_and_contract(k1, k2, n):
    got = inversion_matrix(msn_table(n - 1, k1), msn1_table(n - 1, k2), n)
    assert got == RationalMatrix(
        [[inversion_reference(i, j, k1, k2) for j in range(n)] for i in range(n)]
    )
    assert got == RationalMatrix(
        [
            [binom(i, j) * qpow(k1 - k2, i - j) if j <= i else 0 for j in range(n)]
            for i in range(n)
        ]
    )


def test_matrix_inverse_pair():
    top = 10
    ident = RationalMatrix.identity(top + 1)
    for k in K_SAMPLE:
        btab = msn_table(top, k)
        ctab = msn1_table(top, k)
        b_mat = RationalMatrix(
            [
                [btab.value(i, r) / math.factorial(r) for r in range(top + 1)]
                for i in range(top + 1)
            ]
        )
        c_mat = RationalMatrix(
            [[ctab.c(r, j) if j <= r else 0 for j in range(top + 1)] for r in range(top + 1)]
        )
        assert b_mat @ c_mat == ident
