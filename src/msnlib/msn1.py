"""Signed Stirling numbers of the first kind and their k-generalization.

There are several sign/offset conventions for Stirling numbers of the first
kind in the literature; this module fixes the recursive one

    s(i+1, j) = s(i, j-1) - i * s(i, j),   s(0,0) = 1,  s(i,0) = s(0,j) = 0

for i, j > 0, and generalizes to

    c(i, j, k) = sum_{r=j}^{i} C(r, j) * (-k)**(r-j) * s(i, r)

so that c(i, j, 0) == s(i, j).  The c family is the two-sided inverse of the
b family of :mod:`msnlib.msn`: :func:`inversion_matrix` is the one place the
product sum_r b(i, r, k1) c(r, j, k2) / r! is formed, from tables the caller
passes in, and :func:`inversion_product` reads one entry of it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import PreconditionError, RationalLike, _check_integer, as_rational, binom
from .linalg import RationalMatrix
from .msn import MsnTable, msn_table


def stirling1_triangle(i_max: int) -> list[list[int]]:
    """Rows 0..i_max of the signed Stirling-1 triangle."""
    rows = [[1]]
    for i in range(1, i_max + 1):
        prev = rows[i - 1]
        row = [0] * (i + 1)
        for j in range(1, i + 1):
            row[j] = prev[j - 1] - (i - 1) * (prev[j] if j <= i - 1 else 0)
        rows.append(row)
    return rows


def stirling1(i: int, j: int) -> int:
    """Signed Stirling number of the first kind s(i, j)."""
    _check_integer("indices", i, 0)
    _check_integer("indices", j, 0)
    if j > i:
        return 0
    return stirling1_triangle(i)[i][j]


def msn1(i: int, j: int, k: RationalLike) -> Fraction:
    """c(i, j, k) from its defining sum over the Stirling-1 triangle."""
    _check_integer("indices", i, 0)
    _check_integer("indices", j, 0)
    minus_k = -as_rational(k)
    return _c_value(stirling1_triangle(i)[i], j, [minus_k**t for t in range(i + 1)])


def _c_value(srow: list[int], j: int, powers: list[Fraction]) -> Fraction:
    """sum_{r>=j} C(r, j) (-k)**(r-j) s(i, r) over the Stirling-1 row ``srow`` of
    i, with ``powers[t] == (-k)**t``."""
    total = Fraction(0)
    for r in range(j, len(srow)):
        total += binom(r, j) * powers[r - j] * srow[r]
    return total


class Msn1Table:
    """Triangles of s(i, j) and c(i, j, k) for one fixed k, up to i_max."""

    __slots__ = ("k", "i_max", "s_values", "c_values")

    def __init__(self, k: RationalLike, i_max: int):
        self.k = as_rational(k)
        self.i_max = i_max
        self.s_values = stirling1_triangle(i_max)
        powers = [(-self.k) ** t for t in range(i_max + 1)]
        self.c_values = [
            [_c_value(srow, j, powers) for j in range(len(srow))]
            for srow in self.s_values
        ]

    def _stored(self, i: int, j: int) -> bool:
        """Whether (i, j) is stored (j <= i); bad indices raise as in MsnTable."""
        if i < 0 or j < 0:
            raise PreconditionError("indices must be nonnegative")
        if i > self.i_max:
            raise IndexError(f"row {i} beyond table size {self.i_max}")
        return j <= i

    def s(self, i: int, j: int) -> int:
        return self.s_values[i][j] if self._stored(i, j) else 0

    def c(self, i: int, j: int) -> Fraction:
        return self.c_values[i][j] if self._stored(i, j) else Fraction(0)


def msn1_table(i_max: int, k: RationalLike) -> Msn1Table:
    _check_integer("i_max", i_max, 0)
    return Msn1Table(k, i_max)


def inversion_matrix(btab: MsnTable, ctab: Msn1Table, n: int) -> RationalMatrix:
    """The n x n matrix (b(i, r, k1) / r!) @ c(r, j, k2), i, r, j < n.

    ``btab`` holds b at k1 and ``ctab`` holds c at k2, both through row n - 1.
    Entry (i, j) is sum_{r=j}^{i} b(i, r, k1) * c(r, j, k2) / r!.

    Contract: it equals C(i, j) * (k1 - k2)**(i - j), so at k1 == k2 the b and
    c triangles (scaled by 1/r!) are mutually inverse lower-triangular matrices.
    """
    b_mat = RationalMatrix(
        [[btab.value(i, r) / math.factorial(r) for r in range(n)] for i in range(n)]
    )
    c_mat = RationalMatrix([[ctab.c(r, j) for j in range(n)] for r in range(n)])
    return b_mat @ c_mat


def inversion_product(i: int, j: int, k1: RationalLike, k2: RationalLike) -> Fraction:
    """Entry (i, j) of :func:`inversion_matrix` at k1, k2."""
    _check_integer("indices", i, 0)
    _check_integer("indices", j, 0)
    if j > i:
        raise PreconditionError(f"need 0 <= j <= i, got i={i}, j={j}")
    return inversion_matrix(msn_table(i, k1), msn1_table(i, k2), i + 1)[i, j]
