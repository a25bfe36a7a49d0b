"""The exhaustive identity battery for the b/c families and their series.

Every algebraic identity the package relies on is registered here under a
short code (a8, a17, n30, ...) together with the parameter ranges it is
verified over.  The same codes appear in the CLI ``identity-suite`` output
and throughout the test suite, so a failure report always names the exact
identity that broke.  All comparisons are exact; there are no tolerances
anywhere in this module.

A check ``check_<code>`` is written as a generator of ``(lhs, rhs, detail)``
cases, one per parameter point.  The ``@_identity`` decorator registers it
in :data:`IDENTITY_CHECKS` (in definition order) and turns it into
``fn(ctx) -> int``: it counts the cases, raises :class:`IdentityFailure`
``"<code>: <detail>"`` on the first ``lhs != rhs`` or float on either side,
and returns the count.  :meth:`Context.b` returns an int for every integral
b value, so most checks sum and compare plain integers; the float guard
catches an ``int / int`` that would otherwise round.

The binomial-convolution family ``sum_r C(i, r) x_r y_(i-r)`` (a17-a21,
a23), the k-shift sums (a30, a31) and the sums of a36, a37 and a38 over
the ways to write i = r_1 + ... + r_m compare integers.  Those three sums
are binomial convolutions of m columns, so each folds
:func:`_binomial_convolution` over its columns.  With k = p/q, the
defining sum makes ``Q^i b(i, j, k)`` an integer for every multiple Q of
q.  The b table holds the integer rows ``q^i b(i, ., k)`` of
:func:`msnlib.msn.msn_row_sweep`, the rows every closed form reads, so
:meth:`Context.scaled` lifts them by ``(Q/q)^i`` into integer columns once,
and a power ``k^s`` becomes ``(Q k)^s``.

The default k test set deliberately mixes negative integers, negative and
positive non-integers, zero, and positive integers, because sign and
integrality change which identities apply (the reflection rules need
negatives, the shift rules need nonnegative integers).
"""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction
from itertools import product

from .exact import PreconditionError, Record, _check_integer, as_rational, binom
from .exact import binom_gen, qpow
from .linalg import RationalMatrix
from .msn import MsnTable, msn_table, surjection_count
from .msn1 import Msn1Table, inversion_matrix, msn1_table
from .series import TruncatedSeries, binomial_gf_value, egf_coeffs, exp_x, ogf_coeffs

K_SET: tuple[Fraction, ...] = tuple(
    as_rational(v) for v in (-5, -3, -1, "-1/2", 0, "1/3", 1, 2, 5)
)


# the largest i read by the checks whose ranges are fixed rather than tied
# to i_max or order (a36, a37, a38, a41, a42, a44)
FIXED_I = 8

# the rational points x at which bgf checks sum_j b(i, j, k) C(x, j) = (x + k)^i
BGF_POINTS = tuple(as_rational(v) for v in ("1/2", 1, 2))


class IdentityFailure(AssertionError):
    pass


def _expect(cond: bool, label: str, detail: str):
    if not cond:
        raise IdentityFailure(f"{label}: {detail}")


def _exact(value: Fraction) -> int | Fraction:
    return value.numerator if value.denominator == 1 else value


class Context:
    """Shared b-table cache for one battery run."""

    def __init__(self, i_max: int = 12, k_set=K_SET, order: int = 12):
        _check_integer("i_max", i_max, 0)
        _check_integer("order", order, 0)
        self.i_max = i_max
        self.k_set = tuple(as_rational(k) for k in k_set)
        self.order = order
        self._tables: dict[Fraction, MsnTable] = {}
        self._rows: dict[Fraction, list | tuple] = {}
        self._c_tables: dict[Fraction, Msn1Table] = {}
        self._scaled: dict[tuple[Fraction, int], list[list[int]]] = {}

    def table(self, k) -> MsnTable:
        k = as_rational(k)
        tab = self._tables.get(k)
        if tab is None:
            # the highest row any check reads: i_max + 1 in the recurrences
            # (a12, a15, a16, a23, n3, ...), order in the ogf and egf series
            tab = msn_table(max(self.i_max + 1, self.order, FIXED_I), k)
            self._tables[k] = tab
        return tab

    def b(self, i: int, j: int, k) -> int | Fraction:
        """``b(i, j, k)`` off :meth:`table`, as an int when it is integral.

        The checks then sum and compare integers where they can; the table
        itself stays the battery's subject.  At an integer k the lists are
        the table's rows themselves.
        """
        # an int k finds its equal Fraction key: equal numbers hash alike
        rows = self._rows.get(k)
        if rows is None:
            k = as_rational(k)
            if k not in self._rows:
                tab, q = self.table(k), k.denominator
                self._rows[k] = tab.rows if q == 1 else [
                    [_exact(Fraction(v, q**i)) for v in row] for i, row in enumerate(tab.rows)
                ]
            rows = self._rows[k]
        if 0 <= i < len(rows) and 0 <= j:
            # row i holds j <= i; past the diagonal the table holds zeros
            return rows[i][j] if j <= i else 0
        # raises outside the table and on a negative index
        return _exact(self.table(k).value(i, j))

    def scaled(self, k, scale: int) -> list[list[int]]:
        """Integer columns ``cols[j][i] == scale**i * b(i, j, k)`` off :meth:`table`.

        ``scale`` must be a multiple of k's denominator q, or this is a
        PreconditionError: the table's row i is ``q**i b(i, ., k)``, and it
        is lifted by ``(scale // q)**i``.
        """
        k = as_rational(k)
        cols = self._scaled.get((k, scale))
        if cols is None:
            lift, rest = divmod(scale, k.denominator)
            if rest:
                raise PreconditionError(f"scale {scale} is not a multiple of {k}'s denominator")
            tab = self.table(k)
            n = tab.i_max + 1
            rows = [
                [lift**i * v for v in row] + [0] * (n - 1 - i) for i, row in enumerate(tab.rows)
            ]
            cols = self._scaled[(k, scale)] = [list(col) for col in zip(*rows)]
        return cols

    def c_table(self, k) -> Msn1Table:
        k = as_rational(k)
        tab = self._c_tables.get(k)
        if tab is None:
            tab = msn1_table(self.i_max + 1, k)
            self._c_tables[k] = tab
        return tab

    def ij_range(self):
        return range(self.i_max + 1)

    def kij(self):
        """Every (k, i, j) with k in the k set and i, j <= i_max."""
        return product(self.k_set, self.ij_range(), self.ij_range())


IDENTITY_CHECKS = []


def _identity(cases):
    """Register the case generator ``check_<code>`` as ``fn(ctx, ...) -> int``."""
    label = cases.__name__.removeprefix("check_")

    @functools.wraps(cases)
    def check(ctx: Context, *args, **kwargs) -> int:
        count = 0
        for lhs, rhs, detail in cases(ctx, *args, **kwargs):
            # a float is an inexact value, such as an int / int division
            _expect(lhs == rhs and float not in (type(lhs), type(rhs)), label, detail)
            count += 1
        return count

    IDENTITY_CHECKS.append((label, check))
    return check


def _sign(n: int) -> int:
    return -1 if n % 2 else 1


def _binomial_convolution(columns, n: int) -> list[int]:
    """The binomial convolution of integer sequences, for i = 0..n.

    Entry i is ``sum i! / (r_1! ... r_m!) x_1[r_1] ... x_m[r_m]`` over every
    ``r_1 + ... + r_m = i`` with nonnegative parts.  That is i! times the
    x^i coefficient of the product of the columns' exponential generating
    functions, so the columns fold pairwise by ``sum_r C(i, r) x[r] y[i - r]``.
    """
    first, *rest = columns
    acc = list(first[: n + 1])
    for col in rest:
        acc = [
            sum(math.comb(i, r) * acc[r] * col[i - r] for r in range(i + 1))
            for i in range(n + 1)
        ]
    return acc


def _powers(k: Fraction, scale: int, n: int) -> list[int]:
    """``(scale * k)**s`` for s = 0..n; scale is a multiple of k's denominator."""
    base = k.numerator * (scale // k.denominator)
    return [base**s for s in range(n + 1)]


# ------------------------------------------------ values and recurrences


@_identity
def check_a6(ctx):
    for k, i in product(ctx.k_set, ctx.ij_range()):
        yield ctx.b(i, 1, k), qpow(k + 1, i) - qpow(k, i), f"i={i}, k={k}"


@_identity
def check_a7(ctx):
    for k, j in product(ctx.k_set, ctx.ij_range()):
        yield ctx.b(1, j, k), {0: k, 1: 1}.get(j, 0), f"j={j}, k={k}"


@_identity
def check_a8(ctx):
    for k, i, j in ctx.kij():
        want = ctx.b(i, j, k) + ctx.b(i, j + 1, k)
        yield ctx.b(i, j, k + 1), want, f"i={i}, j={j}, k={k}"


@_identity
def check_a10(ctx):
    for k, i, j in ctx.kij():
        total = sum(binom(i, r) * ctx.b(r, j, k) for r in range(i))
        yield ctx.b(i, j + 1, k), total, f"i={i}, j={j}, k={k}"


@_identity
def check_a11(ctx):
    for k, i, j in ctx.kij():
        total = sum(binom(i, r) * ctx.b(r, j, k) for r in range(i + 1))
        yield ctx.b(i, j, k + 1), total, f"i={i}, j={j}, k={k}"


@_identity
def check_a12(ctx):
    for k, i, j in ctx.kij():
        want = (j + 1) * ctx.b(i, j, k + 1) + k * ctx.b(i, j + 1, k)
        yield ctx.b(i + 1, j + 1, k), want, f"i={i}, j={j}, k={k}"


@_identity
def check_a12a(ctx):
    for k, i, j in ctx.kij():
        total = (j + 1) * sum(
            binom(i, r) * ctx.b(r, j, k) for r in range(i + 1)
        ) + k * ctx.b(i, j + 1, k)
        yield ctx.b(i + 1, j + 1, k), total, f"i={i}, j={j}, k={k}"


@_identity
def check_a12b(ctx):
    for k, i, j in ctx.kij():
        total = (j + 1) * sum(
            ctx.b(r, j, k) * qpow(j + k + 1, i - r) for r in range(j, i + 1)
        )
        yield ctx.b(i + 1, j + 1, k), total, f"i={i}, j={j}, k={k}"


@_identity
def check_a13(ctx):
    for k, i in product(ctx.k_set, ctx.ij_range()):
        for j in range(i + 1, ctx.i_max + 1):
            yield ctx.b(i, j, k), 0, f"b({i},{j},{k}) != 0"


@_identity
def check_a14(ctx):
    for k, i in product(ctx.k_set, ctx.ij_range()):
        yield ctx.b(i, i, k), math.factorial(i), f"b({i},{i},{k}) != {i}!"


@_identity
def check_a15(ctx):
    for k, i in product(ctx.k_set, ctx.ij_range()):
        want = math.factorial(i + 1) * Fraction(i + 2 * k, 2)
        yield ctx.b(i + 1, i, k), want, f"i={i}, k={k}"


@_identity
def check_a16(ctx):
    for i, j in product(ctx.ij_range(), repeat=2):
        yield (j + 1) * ctx.b(i, j, 1), ctx.b(i + 1, j + 1, 0), f"i={i}, j={j}"


# ------------------------------------------------------- convolution family


@_identity
def check_a17(ctx):
    # the cases (k1, k2, j1, j2) and (k2, k1, j2, j1) convolve the same two
    # columns, and the convolution commutes: the second reads the first's
    mirrors = {}
    for k1, k2 in product(ctx.k_set, repeat=2):
        scale = math.lcm(k1.denominator, k2.denominator)
        x, y = ctx.scaled(k1, scale), ctx.scaled(k2, scale)
        target = ctx.scaled(k1 + k2, scale)
        for j1 in range(9):
            for j2 in range(9 - j1):
                conv = mirrors.pop((k1, k2, j1, j2), None)
                if conv is None:
                    conv = _binomial_convolution([x[j1], y[j2]], ctx.i_max)
                    mirrors[k2, k1, j2, j1] = conv
                for i in ctx.ij_range():
                    detail = f"i={i}, j1={j1}, j2={j2}, k1={k1}, k2={k2}"
                    yield target[j1 + j2][i], conv[i], detail


@_identity
def check_a18(ctx):
    for k in ctx.k_set:
        scale = k.denominator
        x, y = ctx.scaled(k, scale), ctx.scaled(-k, scale)
        target = ctx.scaled(0, scale)
        for j1 in range(7):
            for j2 in range(7 - j1):
                conv = _binomial_convolution([x[j1], y[j2]], ctx.i_max)
                for i in ctx.ij_range():
                    detail = f"i={i}, j1={j1}, j2={j2}, k={k}"
                    yield target[j1 + j2][i], conv[i], detail


@_identity
def check_a19(ctx):
    for k in ctx.k_set:
        scale = k.denominator
        powers, y = _powers(k, scale, ctx.i_max), ctx.scaled(-k, scale)
        target = ctx.scaled(0, scale)
        conv = [_binomial_convolution([powers, col], ctx.i_max) for col in y]
        for i, j in product(ctx.ij_range(), repeat=2):
            yield target[j][i], conv[j][i], f"i={i}, j={j}, k={k}"


@_identity
def check_a20(ctx):
    for k in ctx.k_set:
        scale = k.denominator
        x, powers = ctx.scaled(0, scale), _powers(k, scale, ctx.i_max)
        target = ctx.scaled(k, scale)
        conv = [_binomial_convolution([col, powers], ctx.i_max) for col in x]
        for i, j in product(ctx.ij_range(), repeat=2):
            yield target[j][i], conv[j][i], f"i={i}, j={j}, k={k}"


@_identity
def check_a21(ctx):
    for k1, k2 in product(ctx.k_set, repeat=2):
        scale = math.lcm(k1.denominator, k2.denominator)
        x, powers = ctx.scaled(k2, scale), _powers(k1, scale, ctx.i_max)
        target = ctx.scaled(k1 + k2, scale)
        conv = [_binomial_convolution([col, powers], ctx.i_max) for col in x]
        for i, j in product(ctx.ij_range(), repeat=2):
            yield target[j][i], conv[j][i], f"i={i}, j={j}, k1={k1}, k2={k2}"


@_identity
def check_a23(ctx):
    # j b(i, j-1, k+1) = sum_r C(i, r) k^(i-r) b(r+1, j, 0), both sides
    # scaled by Q^(i+1) so that the shifted column Q^(r+1) b(r+1, j, 0) fits
    for k in ctx.k_set:
        scale = k.denominator
        x, powers = ctx.scaled(0, scale), _powers(k, scale, ctx.i_max)
        lhs = ctx.scaled(k + 1, scale)
        conv = [_binomial_convolution([col[1:], powers], ctx.i_max) for col in x]
        for i, j in product(ctx.ij_range(), range(1, ctx.i_max + 1)):
            yield j * scale * lhs[j - 1][i], conv[j][i], f"i={i}, j={j}, k={k}"


# --------------------------------------------------- alternating sums (a24)


@_identity
def check_a24(ctx):
    for k, i, j in ctx.kij():
        total = sum(_sign(j - r) * ctx.b(i, r, k) for r in range(j + 1))
        want = ctx.b(i, j + 1, k - 1) + _sign(j) * qpow(k - 1, i)
        yield total, want, f"i={i}, j={j}, k={k}"


@_identity
def check_a25(ctx):
    for i, j in product(range(1, ctx.i_max + 1), repeat=2):
        total = sum(_sign(j - r) * ctx.b(i, r, 1) for r in range(j + 1))
        yield total, ctx.b(i, j + 1, 0), f"i={i}, j={j}"


@_identity
def check_a26(ctx):
    for k, i in product(ctx.k_set, ctx.ij_range()):
        total = sum(_sign(i - 1 - r) * ctx.b(i, r, k) for r in range(i))
        want = math.factorial(i) + _sign(i - 1) * qpow(k - 1, i)
        yield total, want, f"i={i}, k={k}"


@_identity
def check_a27(ctx):
    for k, i in product(ctx.k_set, ctx.ij_range()):
        total = sum(_sign(r) * ctx.b(i, r, k) for r in range(i + 1))
        yield total, qpow(k - 1, i), f"i={i}, k={k}"


@_identity
def check_a28(ctx):
    for i in ctx.ij_range():
        yield sum(_sign(i - r) * ctx.b(i, r, 0) for r in range(i + 1)), 1, f"i={i}"


# ------------------------------------------- binomial-weighted j sums (a29)


@_identity
def check_a29(ctx):
    for j in ctx.ij_range():
        for i, k in product(range(j, ctx.i_max + 1), range(1 - j, 6)):
            total = sum(
                _sign(i - r) * binom(r + k - 1, r - j) * ctx.b(i, r, k)
                for r in range(j, i + 1)
            )
            yield total, ctx.b(i, j, 0), f"i={i}, j={j}, k={k}"


@_identity
def check_a29a(ctx):
    for j in ctx.ij_range():
        for i, k in product(range(j, ctx.i_max + 1), range(1 - j, 6)):
            total = sum(
                _sign(i - r) * binom(r + k - 1, r - j) * ctx.b(i, r, 0)
                for r in range(j, i + 1)
            )
            yield total, ctx.b(i, j, k), f"i={i}, j={j}, k={k}"


# ------------------------------------------------------ shifts in k


@_identity
def check_a30(ctx):
    # b(i, j + r, k1) is zero past r = i - j, so the sum stops there
    for k1 in ctx.k_set:
        scale = k1.denominator
        x = ctx.scaled(k1, scale)
        for k2 in range(7):
            target = ctx.scaled(k1 + k2, scale)
            for i, j in product(ctx.ij_range(), repeat=2):
                total = sum(
                    binom(k2, r) * x[j + r][i] for r in range(min(k2, i - j) + 1)
                )
                yield target[j][i], total, f"i={i}, j={j}, k1={k1}, k2={k2}"


@_identity
def check_a31(ctx):
    for k1 in ctx.k_set:
        scale = k1.denominator
        x = [ctx.scaled(k1 + r, scale) for r in range(7)]
        for k2, i, j in product(range(7), ctx.ij_range(), ctx.ij_range()):
            lhs = x[0][j + k2][i] if j + k2 <= i else 0
            total = sum(
                binom(k2, r) * _sign(k2 - r) * x[r][j][i] for r in range(k2 + 1)
            )
            yield lhs, total, f"i={i}, j={j}, k1={k1}, k2={k2}"


@_identity
def check_a32(ctx):
    for j in ctx.ij_range():
        for i in range(j, ctx.i_max + 1):
            total = sum(
                binom(i - j, r) * _sign(i - j - r) * ctx.b(i, j, r)
                for r in range(i - j + 1)
            )
            yield total, math.factorial(i), f"i={i}, j={j}"


@_identity
def check_a33(ctx):
    for j, i in product(range(1, ctx.i_max + 1), ctx.ij_range()):
        total = sum(binom(i, r) * _sign(i - r) * ctx.b(i, j, r) for r in range(i + 1))
        yield total, 0, f"i={i}, j={j}"


@_identity
def check_a34(ctx):
    for k, i, j in product(range(7), ctx.ij_range(), ctx.ij_range()):
        total = ctx.b(i, j, 1) + sum(ctx.b(i, j + 1, r) for r in range(1, k + 1))
        yield ctx.b(i, j, k + 1), total, f"i={i}, j={j}, k={k}"


# -------------------------------------------- sums over i = r_1 + ... + r_m

_A36_TRIPLES = [
    ((0, 0, 0), (0, 0, 0)),
    ((1, 0, 0), (1, 0, 0)),
    ((1, 1, 0), (as_rational("1/2"), 1, -1)),
    ((1, 1, 1), (1, 1, 1)),
    ((2, 1, 0), (-1, 2, as_rational("1/2"))),
    ((2, 1, 1), (0, as_rational("1/3"), 1)),
]

_A36_PAIRS = [
    ((0, 0), (1, -1)),
    ((1, 1), (as_rational("1/2"), as_rational("1/2"))),
    ((2, 1), (2, -3)),
    ((3, 1), (as_rational("1/3"), 1)),
]


# the column of a free part, all ones (e^x), and of a part that must take
# at least one of the i, [0, 1, 1, ...] (e^x - 1)
_ONES = [1] * (FIXED_I + 1)
_POSITIVE = [0] + _ONES[1:]


@_identity
def check_a36(ctx):
    # over Q, the lcm of the k denominators, each part's Q^part scales
    # multiply to the Q^i of the left side, so the sums run on ints
    for js, ks in _A36_PAIRS + _A36_TRIPLES:
        scale = math.lcm(*(as_rational(k).denominator for k in ks))
        cols = [ctx.scaled(k_r, scale)[j_r] for j_r, k_r in zip(js, ks)]
        lhs = ctx.scaled(sum(as_rational(k) for k in ks), scale)[sum(js)]
        total = _binomial_convolution(cols, FIXED_I)
        for i in range(FIXED_I + 1):
            yield lhs[i], total[i], f"i={i}, js={js}, ks={ks}"


@_identity
def check_a37(ctx):
    # at k = 0 every b is the integer j! S(i, j), so the sums run on ints;
    # each of the k free parts is an all-ones column
    cols = ctx.scaled(0, 1)
    for js in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
        for k in range(4):
            total = _binomial_convolution([cols[j_r] for j_r in js] + [_ONES] * k, FIXED_I)
            for i in range(FIXED_I + 1):
                yield ctx.b(i, sum(js), k), total[i], f"i={i}, js={js}, k={k}"


@_identity
def check_a38(ctx):
    # i balls into j nonempty boxes and k free ones
    for j, k in product(range(5), range(4)):
        if j + k == 0:
            continue
        total = _binomial_convolution([_POSITIVE] * j + [_ONES] * k, FIXED_I)
        for i in range(FIXED_I + 1):
            yield ctx.b(i, j, k), total[i], f"i={i}, j={j}, k={k}"


# ------------------------------------------------- sums of the j = 1 column


@_identity
def check_k_i(ctx):
    for k, i in product(range(1, 7), range(1, ctx.i_max + 1)):
        yield sum(ctx.b(i, 1, r) for r in range(k)), qpow(k, i), f"i={i}, k={k}"


@_identity
def check_k_i_l(ctx):
    for l, k, i in product(range(1, 5), range(1, 7), range(1, ctx.i_max + 1)):
        total = sum(ctx.b(i, 1, l + r) for r in range(k))
        yield total, qpow(k + l, i) - qpow(l, i), f"i={i}, k={k}, l={l}"


# ---------------------------------------------------- reflection and signs


@_identity
def check_n1(ctx):
    for k, i, j in ctx.kij():
        want = _sign(i + j) * ctx.b(i, j, -k)
        yield ctx.b(i, j, k - j), want, f"i={i}, j={j}, k={k}"


@_identity
def check_n2(ctx):
    for k, i in product(range(ctx.i_max // 2 + 1), range(1, ctx.i_max + 1, 2)):
        yield ctx.b(i, 2 * k, -k), 0, f"i={i}, k={k}"


@_identity
def check_n3(ctx):
    for k, i, j in ctx.kij():
        total = (j + 1) * sum(
            ctx.b(r, j, k + 1) * qpow(k, i - r) for r in range(j, i + 1)
        )
        yield ctx.b(i + 1, j + 1, k), total, f"i={i}, j={j}, k={k}"


@_identity
def check_n30(ctx):
    for l, k, i, j in product((2, 3), range(5), ctx.ij_range(), ctx.ij_range()):
        hi = min(i - j, (l - 1) * k)
        total = sum(binom((l - 1) * k, r) * ctx.b(i, j + r, k) for r in range(hi + 1))
        yield ctx.b(i, j, l * k), total, f"i={i}, j={j}, k={k}, l={l}"


@_identity
def check_nonneg(ctx):
    for k in ctx.k_set:
        if k < 0:
            continue
        for i in ctx.ij_range():
            for j in range(i + 1):
                yield ctx.b(i, j, k) >= 0, True, f"b({i},{j},{k}) < 0"


@_identity
def check_comb(ctx):
    """Brute-force surjection counting against the algebraic values."""
    for j in range(8):
        for k, i in product(range(8 - j), range(8)):
            yield ctx.b(i, j, k), surjection_count(i, j, k), f"i={i}, j={j}, k={k}"


# ------------------------------------------------------- first-kind family


@_identity
def check_sn2_k0(ctx):
    tab = ctx.c_table(0)
    for i in range(min(ctx.i_max, 10) + 1):
        for j in range(i + 1):
            yield tab.c(i, j), tab.s(i, j), f"i={i}, j={j}"


@_identity
def check_a46(ctx):
    top = min(ctx.i_max, 10)
    for k1, k2 in product(ctx.k_set, repeat=2):
        prod = inversion_matrix(ctx.table(k1), ctx.c_table(k2), top + 1)
        for i in range(top + 1):
            for j in range(i + 1):
                want = binom(i, j) * qpow(k1 - k2, i - j)
                yield prod[i, j], want, f"i={i}, j={j}, k1={k1}, k2={k2}"


@_identity
def check_a46_matrix(ctx):
    top = min(ctx.i_max, 10)
    ident = RationalMatrix.identity(top + 1)
    for k in ctx.k_set:
        yield inversion_matrix(ctx.table(k), ctx.c_table(k), top + 1), ident, f"k={k}"


# --------------------------------------------------- generating functions


@_identity
def check_ogf(ctx, j_max: int = 5, k_set=None, order: int | None = None):
    order = ctx.order if order is None else order
    for k in k_set or ctx.k_set:
        for j in range(j_max + 1):
            series = ogf_coeffs(j, k, order)
            for i in range(order + 1):
                yield series.coeff(i), ctx.b(i, j, k), f"i={i}, j={j}, k={k}"


@_identity
def check_egf(ctx, j_max: int = 5, k_range=range(-3, 4), order: int | None = None):
    order = ctx.order if order is None else order
    for k in k_range:
        for j in range(j_max + 1):
            series = egf_coeffs(j, k, order)
            for i in range(order + 1):
                lhs = math.factorial(i) * series.coeff(i)
                yield lhs, ctx.b(i, j, k), f"i={i}, j={j}, k={k}"


@_identity
def check_a41(ctx):
    """Coefficient of x^i y^k in (e^x - 1)^j exp(e^x y) equals b/(i! k!).

    The y expansion is walked explicitly: coefficient of y^k is (e^x)^k / k!,
    with (e^x)^k computed by repeated series multiplication.
    """
    order = FIXED_I
    em1 = exp_x(order) - TruncatedSeries.constant(1, order)
    ex_pow = TruncatedSeries.constant(1, order)
    for k in range(6):
        for j in range(4):
            series = em1.pow(j) * ex_pow
            for i in range(order + 1):
                # [x^i y^k] = coeff(i)/k!; the k! cancels against the target
                lhs = math.factorial(i) * series.coeff(i)
                yield lhs, ctx.b(i, j, k), f"i={i}, j={j}, k={k}"
        ex_pow = ex_pow * exp_x(order)


@_identity
def check_a42(ctx):
    """Slice in z of e^(k x) exp((e^x - 1) z): coefficient of x^i z^j is b/(i! j!)."""
    order = FIXED_I
    em1 = exp_x(order) - TruncatedSeries.constant(1, order)
    for k in range(5):
        ekx = exp_x(order, k)
        for j in range(order + 1):
            # z^j coefficient of exp((e^x - 1) z) is (e^x - 1)^j / j!;
            # the j! cancels against the target
            series = ekx * em1.pow(j)
            for i in range(order + 1):
                lhs = math.factorial(i) * series.coeff(i)
                yield lhs, ctx.b(i, j, k), f"i={i}, j={j}, k={k}"


@_identity
def check_bgf(ctx, i_max: int = 8, k_set=None):
    for k, x, i in product(k_set or ctx.k_set, BGF_POINTS, range(i_max + 1)):
        yield binomial_gf_value(i, k, x), qpow(x + k, i), f"i={i}, k={k}, x={x}"


@_identity
def check_a44(ctx):
    """Double sum sum_{i',j} b(i',j,k) y^i'/i'! C(x,j) vs the truncation of e^((x+k)y).

    Checked coefficient-wise per power of y (each slice is the bgf identity
    divided by i'!), then summed at the rational test points.
    """
    points = [
        (as_rational("1/2"), as_rational("1/3")),
        (as_rational(1), as_rational(1)),
        (as_rational(2), as_rational("-1/2")),
    ]
    for k in ctx.k_set:
        for x, y in points:
            lhs_total = Fraction(0)
            rhs_total = Fraction(0)
            for ip in range(FIXED_I + 1):
                slice_sum = sum(
                    (ctx.b(ip, j, k) * binom_gen(x, j) for j in range(ip + 1)),
                    Fraction(0),
                ) / math.factorial(ip)
                coeff_want = qpow(x + k, ip) / math.factorial(ip)
                yield slice_sum, coeff_want, f"i'={ip}, k={k}, x={x}"
                lhs_total += slice_sum * qpow(y, ip)
                rhs_total += qpow((x + k) * y, ip) / math.factorial(ip)
            _expect(lhs_total == rhs_total, "a44", f"summed at x={x}, y={y}, k={k}")


class IdentityResult(Record):
    def __init__(self, label: str, ok: bool, cases: int, detail: str = ""):
        self.__dict__.update(label=label, ok=ok, cases=cases, detail=detail)


def run_identity_suite(
    i_max: int = 12, k_set=K_SET, order: int = 12, labels=None
) -> list[IdentityResult]:
    """Run the registered checks and report one result per identity code."""
    ctx = Context(i_max=i_max, k_set=k_set, order=order)
    results = []
    for label, fn in IDENTITY_CHECKS:
        if labels is not None and label not in labels:
            continue
        try:
            cases = fn(ctx)
            results.append(IdentityResult(label=label, ok=True, cases=cases))
        except IdentityFailure as exc:
            results.append(
                IdentityResult(label=label, ok=False, cases=0, detail=str(exc))
            )
        except Exception as exc:  # noqa: BLE001 - one broken check must not stop the rest
            import traceback

            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail = (
                f"{label}: {type(exc).__name__}: {exc}"
                f" (at {os.path.basename(where.filename)}:{where.lineno})"
            )
            results.append(IdentityResult(label=label, ok=False, cases=0, detail=detail))
    return results
