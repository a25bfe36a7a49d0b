"""Moment-generating Stirling numbers of the second kind.

The family computed here is

    b(i, j, k) = sum_{r=0}^{j} C(j, r) * (-1)**(j-r) * (r + k)**i

for integers i, j >= 0 and rational k, with 0**0 == 1.  At k == 0 the slice
``b(i, j, 0)`` equals ``S(i, j) * j!`` with the classical Stirling numbers of
the second kind, which is why no division by j! is built into the family: the
moment formulas downstream stay free of factorials this way.

The production route is one integer difference table.  For k = p/q in
lowest terms, q**i b(i, j, k) is an integer, and :func:`msn_row_scaled`
gives the scaled row (q**i b(i, 0, k), ..., q**i b(i, i, k)) and q**i.  A
caller that reads the orders i = 0, 1, ... of one k in turn draws them from
the generator :func:`msn_row_sweep` instead, which steps each row to the
next by the triangle recurrence in integers: orders 0..m cost O(m^2)
integer steps, not the O(m^3) of m+1 difference tables.  A sum over the
consecutive shifts k, k+1, ..., k+n takes the one row of k and steps the
others from it by the shift identity (:func:`msn_shifts`, the only code
that forms such rows).  Every closed-form b-sum of :mod:`msnlib.markov`
and :mod:`msnlib.distributions` runs on those integers and divides once.
The triangle :func:`msn_table` holds the first rows of that same sweep,
kept as the integers they are: the identity battery checks the rows the
closed forms read.  Two independent routes remain as cross-checks: the
defining sum (:func:`msn_direct`) and the shift formula over the k == 0
slice (:func:`msn_shift`).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import islice
from operator import add, sub
from typing import Iterator

from .exact import PreconditionError, RationalLike, _check_integer, as_rational, binom, qpow


def msn_direct(i: int, j: int, k: RationalLike) -> Fraction:
    """b(i, j, k) straight from the defining alternating sum."""
    _check_integer("indices", i, 0)
    _check_integer("indices", j, 0)
    k = as_rational(k)
    total = Fraction(0)
    for r in range(j + 1):
        sign = -1 if (j - r) % 2 else 1
        total += sign * binom(j, r) * qpow(r + k, i)
    return total


def msn_row_scaled(i: int, k: RationalLike) -> tuple[list[int], int]:
    """The integer row q**i b(i, ., k) and q**i, for k = p/q in lowest terms.

    b(i, j, k) is the j-th forward difference of r -> (r + k)**i at r = 0,
    so q**i b(i, j, k) is the j-th forward difference of the integers
    (q*r + p)**i at r = 0: one difference table over r = 0..i.
    """
    _check_integer("indices", i, 0)
    k = as_rational(k)
    p, q = k.numerator, k.denominator
    diffs = [(q * r + p) ** i for r in range(i + 1)]
    row = []
    while diffs:
        row.append(diffs[0])
        diffs = list(map(sub, diffs[1:], diffs))
    return row, q**i


def msn_shifts(row: list[int], count: int) -> list[list[int]]:
    """The scaled rows of the shifts k, k+1, ..., k+count-1 from ``row``, that of k.

    Each is stepped from the one before by b(i, j, k+1) = b(i, j, k) +
    b(i, j+1, k), with b(i, i+1, k) = 0, over the one scale of ``row``.
    """
    rows = [row]
    for _ in range(count - 1):
        rows.append(list(map(add, rows[-1], rows[-1][1:] + [0])))
    return rows


def msn_row_sweep(k: RationalLike) -> Iterator[tuple[list[int], int]]:
    """The scaled rows (q**i b(i, 0, k), ..., q**i b(i, i, k)) and q**i, i = 0, 1, ...

    b(i+1, j, k) = j b(i, j-1, k) + (j + k) b(i, j, k), times q**(i+1), is
    B(i+1, j) = q j B(i, j-1) + (q j + p) B(i, j) on the integers
    B(i, j) = q**i b(i, j, k), for k = p/q in lowest terms: two integer
    products per entry, so rows 0..m cost O(m^2) steps where m+1 difference
    tables cost O(m^3).  The next row is stepped from the one yielded, so
    read a row, do not change it.
    """
    k = as_rational(k)
    p, q = k.numerator, k.denominator
    row, scale = [1], 1
    while True:
        yield row, scale
        step = [p * row[0]]
        step += [
            q * j * left + (q * j + p) * b
            for j, left, b in zip(range(1, len(row)), row, row[1:])
        ]
        step.append(q * len(row) * row[-1])
        row, scale = step, scale * q


class MsnTable:
    """Dense triangle of b(i, j, k) values for one fixed k = p/q in lowest terms.

    ``rows[i]`` is the integer row (q**i b(i, 0, k), ..., q**i b(i, w, k)),
    w = min(i, j_max), for 0 <= i <= i_max, as :func:`msn_row_sweep` yields
    it; the rows are tuples, read-only.  :meth:`value` divides one entry by
    q**i.  The triangle is zero for i < j, and queries beyond j_max return 0
    without error.
    """

    __slots__ = ("k", "i_max", "j_max", "rows")

    def __init__(self, k: Fraction, i_max: int, j_max: int, rows: tuple):
        self.k = k
        self.i_max = i_max
        self.j_max = j_max
        self.rows = rows

    def value(self, i: int, j: int) -> Fraction:
        _check_integer("indices", i, 0)
        _check_integer("indices", j, 0)
        if i > self.i_max:
            raise IndexError(f"row {i} beyond table size {self.i_max}")
        if j > min(i, self.j_max):
            return Fraction(0)
        return Fraction(self.rows[i][j], self.k.denominator**i)

    def __repr__(self):
        return f"MsnTable(k={self.k}, i_max={self.i_max}, j_max={self.j_max})"


def msn_table(i_max: int, k: RationalLike, j_max: int | None = None) -> MsnTable:
    """The triangle of b(i, j, k) for i <= i_max, j <= j_max, off :func:`msn_row_sweep`.

    Its rows are the sweep's first i_max + 1 scaled integer rows, each cut at
    j_max (None, or a j_max past i_max, means i_max): the integers every
    closed form reads, with no recurrence of its own.
    """
    _check_integer("i_max", i_max, 0)
    if j_max is not None:
        _check_integer("j_max", j_max, 0)
    k = as_rational(k)
    j_max = i_max if j_max is None else min(j_max, i_max)
    sweep = islice(msn_row_sweep(k), i_max + 1)
    return MsnTable(k, i_max, j_max, tuple(tuple(row[: j_max + 1]) for row, _ in sweep))


def msn_shift(i: int, j: int, k: int) -> Fraction:
    """b(i, j, k) for integer k >= 0 via the k == 0 slice.

    Uses b(i, j, k) = sum_{r=0}^{k} C(k, r) * b(i, j+r, 0), over the integer
    row b(i, ., 0) of :func:`msn_table`; b(i, j+r, 0) is zero past j+r = i.
    """
    _check_integer("indices", i, 0)
    _check_integer("indices", j, 0)
    _check_integer("k", k, 0)
    row = msn_table(i, 0).rows[i]
    return Fraction(sum(binom(k, r) * row[j + r] for r in range(min(k, i - j) + 1)))


def stirling2_triangle(i_max: int) -> list[list[int]]:
    """Classical Stirling-2 triangle S(i, j) via S(i+1, j) = S(i, j-1) + j*S(i, j).

    Built independently of the b family so the two can be checked against
    each other.
    """
    rows = [[1]]
    for i in range(1, i_max + 1):
        prev = rows[i - 1]
        row = [0] * (i + 1)
        for j in range(1, i + 1):
            row[j] = prev[j - 1] + (j * prev[j] if j <= i - 1 else 0)
        rows.append(row)
    return rows


def stirling2(i: int, j: int) -> int:
    """Stirling number of the second kind S(i, j); equals b(i, j, 0) / j!."""
    _check_integer("indices", i, 0)
    _check_integer("indices", j, 0)
    if j > i:
        return 0
    return stirling2_triangle(i)[i][j]


@functools.lru_cache(maxsize=128)
def _image_histogram(boxes: int, i: int):
    """How many of the boxes**i functions {1..i} -> {1..boxes} have each image.

    Every function is enumerated: its image is an int bitmask (bit b set when
    box b+1 is hit), built one argument at a time.  The masks of the first
    i-1 arguments are formed in full; the last argument is taken one box at a
    time, and the histograms of those ``boxes`` slices are added, so no array
    holds one entry per function.  The returned array is read-only because
    the cache hands the same one to every caller.
    """
    import numpy as np

    bits = np.left_shift(np.uint16(1), np.arange(boxes, dtype=np.uint16))
    masks = np.zeros(1, dtype=np.uint16)
    for _ in range(i - 1):
        masks = (masks[:, None] | bits).ravel()
    hist = np.zeros(1 << boxes, dtype=np.intp)
    for part in (masks | bit for bit in bits) if i else (masks,):
        hist += np.bincount(part, minlength=1 << boxes)
    hist.flags.writeable = False
    return hist


def surjection_count(i: int, j: int, k: int) -> int:
    """Brute-force count of functions {1..i} -> {1..j+k} hitting all of {1..j}.

    Enumerates every one of the (j+k)**i functions explicitly (by the
    bitmask of its image, see :func:`_image_histogram`) and keeps those whose
    image covers the first j boxes.  For integer k >= 0 this count equals
    b(i, j, k); the enumeration is the independent combinatorial oracle for
    that fact.  The image histogram is cached per (j+k, i), so the battery
    and the tests enumerate each function space once; at most 16 boxes fit
    the 16-bit masks, and at most 2**24 functions are enumerated.
    """
    import numpy as np

    _check_integer("indices", i, 0)
    _check_integer("indices", j, 0)
    _check_integer("k", k, 0)
    boxes = j + k
    if boxes > 16:
        raise PreconditionError(f"brute force covers at most 16 boxes, got j + k = {boxes}")
    # boxes**25 > 2**24 once boxes >= 2: capping i at 25 forms no huge power
    if boxes ** min(i, 25) > 1 << 24:
        raise PreconditionError(f"brute force covers at most 2**24 functions, got {boxes}**{i}")
    hist = _image_histogram(boxes, i)
    need = (1 << j) - 1
    covering = (np.arange(hist.size) & need) == need
    return int(hist[covering].sum())
