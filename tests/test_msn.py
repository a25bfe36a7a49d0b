import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msnlib.msn as msn
from msnlib.exact import PreconditionError, qpow
from msnlib.msn import (
    msn_direct,
    msn_row_scaled,
    msn_row_sweep,
    msn_shift,
    msn_shifts,
    msn_table,
    stirling2,
    stirling2_triangle,
    surjection_count,
)

K_SAMPLE = [Fraction(v) for v in (-5, -3, -1)] + [
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 3),
    Fraction(1),
    Fraction(2),
    Fraction(5),
]


class TestDirect:
    def test_single_box_negative_k(self):
        assert msn_direct(1, 0, -1) == -1

    def test_diagonal_is_factorial(self):
        assert msn_direct(4, 4, 7) == 24

    def test_brute_force_sum(self):
        # 1*1^3 - 2*2^3 + 1*3^3 = 12, and 3*b(3,2,1) = b(4,3,0) = 36
        assert msn_direct(3, 2, 1) == 12
        assert 3 * msn_direct(3, 2, 1) == msn_direct(4, 3, 0) == 36

    def test_base_row_and_column(self):
        for k in K_SAMPLE:
            assert msn_direct(0, 0, k) == 1
            for j in range(1, 6):
                assert msn_direct(0, j, k) == 0
            for i in range(6):
                assert msn_direct(i, 0, k) == qpow(k, i)

    @pytest.mark.parametrize(
        "i, j", [(2.5, 1), (Fraction(1, 2), 1), (3, 1.5), (3, Fraction(3, 2))]
    )
    def test_rejects_non_integer_index(self, i, j):
        with pytest.raises(PreconditionError, match="^indices must be an integer, got "):
            msn_direct(i, j, 1)

    def test_rejects_negative_index(self):
        for i, j in ((-1, 0), (2, -1)):
            with pytest.raises(ValueError, match="^indices must be nonnegative$"):
                msn_direct(i, j, 1)


class TestRow:
    def test_example(self):
        # b(3, j, 1) for j = 0..3: 1, 7, 12, 6, with scale 1^3
        assert msn_row_scaled(3, 1) == ([1, 7, 12, 6], 1)

    def test_entries_are_integers_over_one_scale(self):
        # 2^4 b(4, j, 1/2): b(4, 0, 1/2) = 1/16 and b(4, 4, 1/2) = 4!
        row, scale = msn_row_scaled(4, Fraction(1, 2))
        assert all(type(v) is int for v in row)
        assert scale == 16 and row[0] == 1 and row[4] == 24 * 16

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            msn_row_scaled(-1, 0)


class TestTable:
    def test_row_matches_stirling_triangle(self):
        tab = msn_table(3, 0)
        assert [tab.value(3, j) for j in range(4)] == [0, 1, 6, 6]

    def test_single_entry(self):
        tab = msn_table(0, Fraction(5, 7))
        assert tab.value(0, 0) == 1

    def test_entry_2_1_at_k3(self):
        assert msn_table(2, 3).value(2, 1) == (3 + 1) ** 2 - 3**2 == 7

    def test_agrees_with_direct(self):
        for k in K_SAMPLE:
            tab = msn_table(9, k)
            for i in range(10):
                for j in range(10):
                    assert tab.value(i, j) == msn_direct(i, j, k)

    def test_queries_beyond_jmax_return_zero(self):
        tab = msn_table(4, 1, j_max=2)
        assert tab.value(4, 3) == 0
        assert tab.value(2, 4) == 0

    def test_rejects_negative_jmax(self):
        with pytest.raises(ValueError, match="^j_max must be nonnegative$"):
            msn_table(3, 2, -1)

    @pytest.mark.parametrize(
        "args, name",
        [((2.5, 1), "i_max"), ((Fraction(5, 2), 1), "i_max"), ((3, 1, 1.5), "j_max")],
    )
    def test_rejects_non_integer_size(self, args, name):
        with pytest.raises(PreconditionError, match=f"^{name} must be an integer, got "):
            msn_table(*args)

    def test_row_beyond_imax_raises(self):
        with pytest.raises(IndexError):
            msn_table(3, 1).value(4, 0)

    def test_zero_above_diagonal_and_factorial_diagonal(self):
        for k in K_SAMPLE:
            tab = msn_table(8, k)
            for i in range(9):
                assert tab.value(i, i) == math.factorial(i)
                for j in range(i + 1, 9):
                    assert tab.value(i, j) == 0


class TestShiftRoute:
    def test_example(self):
        # b(3,2,0) + b(3,3,0) = 6 + 6
        assert msn_shift(3, 2, 1) == 12

    def test_k0_slice(self):
        for i in range(6):
            assert msn_shift(i, 0, 0) == (1 if i == 0 else 0)

    def test_agrees_with_direct(self):
        assert msn_shift(2, 1, 3) == msn_direct(2, 1, 3) == 7
        for k in range(6):
            for i in range(9):
                for j in range(9):
                    assert msn_shift(i, j, k) == msn_direct(i, j, k)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            msn_shift(2, 1, -1)
        with pytest.raises(ValueError):
            msn_shift(2, 1, Fraction(1, 2))


class TestStirling2:
    def test_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(5, 5) == 1
        assert stirling2(2, 3) == 0

    def test_triangle_recurrence(self):
        tri = stirling2_triangle(12)
        for i in range(1, 12):
            for j in range(1, i + 1):
                above = tri[i][j] if j <= i else 0
                assert tri[i + 1][j] == tri[i][j - 1] + j * above

    def test_k0_slice_is_scaled_stirling(self):
        for i in range(10):
            for j in range(10):
                assert msn_direct(i, j, 0) == stirling2(i, j) * math.factorial(j)


def _surjection_count_by_digits(i: int, j: int, k: int) -> int:
    """Reference enumerator: every function as a base-(j+k) digit vector."""
    import numpy as np

    boxes = j + k
    if boxes == 0:
        return 1 if i == 0 else 0
    if i == 0:
        return 1 if j == 0 else 0
    total = boxes**i
    codes = np.arange(total, dtype=np.int64)
    digits = (codes[:, None] // boxes ** np.arange(i, dtype=np.int64)) % boxes
    covered = np.ones(total, dtype=bool)
    for box in range(j):
        covered &= (digits == box).any(axis=1)
    return int(covered.sum())


def _image_histogram_at_once(boxes: int, i: int):
    """Reference histogram: the masks of all boxes**i functions in one array."""
    import numpy as np

    bits = np.left_shift(np.uint16(1), np.arange(boxes, dtype=np.uint16))
    masks = np.zeros(1, dtype=np.uint16)
    for _ in range(i):
        masks = (masks[:, None] | bits).ravel()
    return np.bincount(masks, minlength=1 << boxes)


class TestSurjectionOracle:
    def test_matches_digit_enumeration(self):
        for boxes in range(7):
            for j in range(boxes + 1):
                for i in range(7):
                    assert surjection_count(i, j, boxes - j) == (
                        _surjection_count_by_digits(i, j, boxes - j)
                    ), (i, j, boxes - j)

    def test_rejects_negative_k_and_too_many_boxes(self):
        with pytest.raises(ValueError):
            surjection_count(2, 1, -1)
        for i, j in ((-1, 0), (2, -1), (-1, -1)):
            with pytest.raises(ValueError, match="^indices must be nonnegative$"):
                surjection_count(i, j, 0)
        with pytest.raises(ValueError, match="16 boxes"):
            surjection_count(1, 10, 7)

    def test_rejects_non_integer_k(self):
        for k in (Fraction(1, 2), 0.5):
            with pytest.raises(
                ValueError, match="^combinatorial count needs integer k >= 0$"
            ):
                surjection_count(2, 1, k)

    def test_rejects_more_than_2_24_functions_before_enumerating(self, monkeypatch):
        def no_enumeration(boxes, i):
            raise AssertionError(f"enumerated {boxes}**{i} functions")

        monkeypatch.setattr(msn, "_image_histogram", no_enumeration)
        for i, j, k in ((12, 16, 0), (7, 10, 6), (25, 2, 0), (10**9, 1, 1)):
            with pytest.raises(ValueError, match=r"^brute force covers at most 2\*\*24 functions"):
                surjection_count(i, j, k)

    def test_enumerates_up_to_2_24_functions(self, monkeypatch):
        import numpy as np

        # 16**6, 2**24 and 8**8 functions sit at the bound: each is enumerated
        monkeypatch.setattr(msn, "_image_histogram", lambda boxes, i: np.zeros(1 << boxes))
        for i, j, k in ((6, 16, 0), (24, 1, 1), (8, 7, 1)):
            assert surjection_count(i, j, k) == 0

    def test_matches_algebra(self):
        assert surjection_count(3, 2, 1) == msn_direct(3, 2, 1) == 12

    def test_no_boxes(self):
        assert surjection_count(0, 0, 0) == 1
        assert surjection_count(2, 0, 0) == 0

    def test_pure_count_without_constraint(self):
        # j = 0 leaves all (k)^i functions admissible
        assert surjection_count(3, 0, 4) == 64

    def test_image_histogram_matches_the_all_at_once_enumeration(self):
        import numpy as np

        for boxes in range(8):
            for i in range(8):
                got = msn._image_histogram.__wrapped__(boxes, i)
                want = _image_histogram_at_once(boxes, i)
                assert got.dtype == want.dtype and np.array_equal(got, want), (boxes, i)

    def test_image_histogram_holds_no_array_one_entry_per_function(self):
        import tracemalloc

        # 7**7 = 823543 masks cast to intp at once would take 6.6 MB
        build = msn._image_histogram.__wrapped__
        build(7, 7)
        tracemalloc.start()
        try:
            build(7, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 8),
    st.integers(0, 8),
    st.fractions(min_value=0, max_value=6, max_denominator=8),
)
def test_nonnegative_for_nonnegative_k(i, j, k):
    assert msn_direct(i, j, k) >= 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 9),
    st.integers(0, 9),
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
)
def test_one_step_shift_recurrence(i, j, k):
    assert msn_direct(i, j, k + 1) == msn_direct(i, j, k) + msn_direct(i, j + 1, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 14), st.integers(-60, 60), st.integers(1, 12))
def test_row_matches_direct(i, p, q):
    k = Fraction(p, q)
    row, scale = msn_row_scaled(i, k)
    assert [Fraction(v, scale) for v in row] == [
        msn_direct(i, j, k) for j in range(i + 1)
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 14),
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
    st.integers(1, 6),
)
def test_shifted_table_rows_are_single_rows(i, k, count):
    # msn_shifts steps the row of k to k+1, ..., k+count-1 over one scale
    row, scale = msn_row_scaled(i, k)
    rows = msn_shifts(row, count)
    assert len(rows) == count
    for t, row in enumerate(rows):
        assert [Fraction(v, scale) for v in row] == [
            msn_direct(i, j, k + t) for j in range(i + 1)
        ]
        assert (row, scale) == msn_row_scaled(i, k + t)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.integers(-40, 40), st.integers(1, 9))
def test_row_step_walks_the_defining_sum(i_max, p, q):
    k = Fraction(p, q)
    q = k.denominator
    for i, (row, scale) in zip(range(i_max + 1), msn_row_sweep(k)):
        assert scale == q**i
        assert row == [q**i * msn_direct(i, j, k) for j in range(i + 1)]


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.integers(0, 14),
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
)
def test_table_matches_direct(data, i_max, k):
    # values past j_max and past the diagonal read 0, as the defining sum does
    j_max = data.draw(st.none() | st.integers(0, i_max + 2))
    tab = msn_table(i_max, k, j_max)
    width = i_max if j_max is None else min(j_max, i_max)
    assert tab.j_max == width
    q = k.denominator
    for i in range(i_max + 1):
        row = tab.rows[i]
        assert all(type(v) is int for v in row)
        assert row == tuple(q**i * msn_direct(i, j, k) for j in range(min(i, width) + 1))
        for j in range(i_max + 3):
            assert tab.value(i, j) == (msn_direct(i, j, k) if j <= width else 0), (i, j)
