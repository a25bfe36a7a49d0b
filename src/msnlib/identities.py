"""The exhaustive identity battery for the b/c families and their series.

Every algebraic identity the package relies on is registered here under a
short code (a8, a17, n30, ...) together with the parameter ranges it is
verified over.  The same codes appear in the CLI ``identity-suite`` output
and throughout the test suite, so a failure report always names the exact
identity that broke.  All comparisons are exact; there are no tolerances
anywhere in this module.

The default k test set deliberately mixes negative integers, negative and
positive non-integers, zero, and positive integers, because sign and
integrality change which identities apply (the reflection rules need
negatives, the shift rules need nonnegative integers).
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass
from fractions import Fraction

from .exact import as_rational, binom, binom_gen, compositions, multinom, qpow
from .linalg import RationalMatrix
from .msn import MsnTable, msn_table, surjection_count
from .msn1 import Msn1Table, msn1_table
from .series import TruncatedSeries, egf_coeffs, exp_x, ogf_coeffs

K_SET: tuple[Fraction, ...] = tuple(
    as_rational(v) for v in (-5, -3, -1, "-1/2", 0, "1/3", 1, 2, 5)
)


# the largest i read by the checks whose ranges are fixed rather than tied
# to i_max or order (a36, a37, a38, a41, a42, a44)
FIXED_I = 8


class IdentityFailure(AssertionError):
    pass


def _expect(cond: bool, label: str, detail: str):
    if not cond:
        raise IdentityFailure(f"{label}: {detail}")


class Context:
    """Shared b-table cache for one battery run."""

    def __init__(self, i_max: int = 12, k_set=K_SET, order: int = 12):
        self.i_max = i_max
        self.k_set = tuple(as_rational(k) for k in k_set)
        self.order = order
        self._tables: dict[Fraction, MsnTable] = {}
        self._c_tables: dict[Fraction, Msn1Table] = {}

    def table(self, k) -> MsnTable:
        k = as_rational(k)
        tab = self._tables.get(k)
        if tab is None:
            # the highest row any check reads: i_max + 1 in the recurrences
            # (a12, a15, a16, a23, n3, ...), order in the ogf and egf series
            tab = msn_table(max(self.i_max + 1, self.order, FIXED_I), k)
            self._tables[k] = tab
        return tab

    def b(self, i: int, j: int, k) -> Fraction:
        return self.table(k).value(i, j)

    def c_table(self, k) -> Msn1Table:
        k = as_rational(k)
        tab = self._c_tables.get(k)
        if tab is None:
            tab = msn1_table(self.i_max + 1, k)
            self._c_tables[k] = tab
        return tab

    def ij_range(self):
        return range(self.i_max + 1)


# ---------------------------------------------------------------- basics


def check_a13(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in range(i + 1, ctx.i_max + 1):
                _expect(ctx.b(i, j, k) == 0, "a13", f"b({i},{j},{k}) != 0")
                cases += 1
    return cases


def check_a14(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            _expect(
                ctx.b(i, i, k) == math.factorial(i), "a14", f"b({i},{i},{k}) != {i}!"
            )
            cases += 1
    return cases


def check_a15(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            want = math.factorial(i + 1) * Fraction(i + 2 * k, 2)
            _expect(ctx.b(i + 1, i, k) == want, "a15", f"i={i}, k={k}")
            cases += 1
    return cases


def check_a16(ctx: Context) -> int:
    cases = 0
    for i in ctx.ij_range():
        for j in ctx.ij_range():
            _expect(
                (j + 1) * ctx.b(i, j, 1) == ctx.b(i + 1, j + 1, 0),
                "a16",
                f"i={i}, j={j}",
            )
            cases += 1
    return cases


def check_a6(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            want = qpow(k + 1, i) - qpow(k, i)
            _expect(ctx.b(i, 1, k) == want, "a6", f"i={i}, k={k}")
            cases += 1
    return cases


def check_a7(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for j in ctx.ij_range():
            want = Fraction(1) if j == 1 else (k if j == 0 else Fraction(0))
            _expect(ctx.b(1, j, k) == want, "a7", f"j={j}, k={k}")
            cases += 1
    return cases


def check_n1(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                sign = -1 if (i + j) % 2 else 1
                _expect(
                    ctx.b(i, j, k - j) == sign * ctx.b(i, j, -k),
                    "n1",
                    f"i={i}, j={j}, k={k}",
                )
                cases += 1
    return cases


def check_n2(ctx: Context) -> int:
    cases = 0
    for k in range(ctx.i_max // 2 + 1):
        for i in range(1, ctx.i_max + 1, 2):
            _expect(ctx.b(i, 2 * k, -k) == 0, "n2", f"i={i}, k={k}")
            cases += 1
    return cases


def check_nonneg(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        if k < 0:
            continue
        tab = ctx.table(k)
        for i in ctx.ij_range():
            for j in range(i + 1):
                _expect(tab.value(i, j) >= 0, "nonneg", f"b({i},{j},{k}) < 0")
                cases += 1
    return cases


# ------------------------------------------------- recurrences in i and j


def check_a8(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                _expect(
                    ctx.b(i, j, k + 1) == ctx.b(i, j, k) + ctx.b(i, j + 1, k),
                    "a8",
                    f"i={i}, j={j}, k={k}",
                )
                cases += 1
    return cases


def check_a12(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                want = (j + 1) * ctx.b(i, j, k + 1) + k * ctx.b(i, j + 1, k)
                _expect(ctx.b(i + 1, j + 1, k) == want, "a12", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


def check_a10(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                total = sum(
                    (binom(i, r) * ctx.b(r, j, k) for r in range(i)), Fraction(0)
                )
                _expect(ctx.b(i, j + 1, k) == total, "a10", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


def check_a11(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                total = sum(
                    (binom(i, r) * ctx.b(r, j, k) for r in range(i + 1)), Fraction(0)
                )
                _expect(ctx.b(i, j, k + 1) == total, "a11", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


def check_a12a(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                total = (j + 1) * sum(
                    (binom(i, r) * ctx.b(r, j, k) for r in range(i + 1)), Fraction(0)
                ) + k * ctx.b(i, j + 1, k)
                _expect(ctx.b(i + 1, j + 1, k) == total, "a12a", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


def check_a12b(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                total = (j + 1) * sum(
                    (
                        ctx.b(r, j, k) * qpow(j + k + 1, i - r)
                        for r in range(j, i + 1)
                    ),
                    Fraction(0),
                )
                _expect(ctx.b(i + 1, j + 1, k) == total, "a12b", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


def check_n3(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                total = (j + 1) * sum(
                    (
                        ctx.b(r, j, k + 1) * qpow(k, i - r)
                        for r in range(j, i + 1)
                    ),
                    Fraction(0),
                )
                _expect(ctx.b(i + 1, j + 1, k) == total, "n3", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


# ------------------------------------------------------- convolution family


def check_a17(ctx: Context) -> int:
    cases = 0
    for k1 in ctx.k_set:
        for k2 in ctx.k_set:
            for j1 in range(9):
                for j2 in range(9 - j1):
                    for i in ctx.ij_range():
                        total = sum(
                            (
                                binom(i, r) * ctx.b(r, j1, k1) * ctx.b(i - r, j2, k2)
                                for r in range(i + 1)
                            ),
                            Fraction(0),
                        )
                        _expect(
                            ctx.b(i, j1 + j2, k1 + k2) == total,
                            "a17",
                            f"i={i}, j1={j1}, j2={j2}, k1={k1}, k2={k2}",
                        )
                        cases += 1
    return cases


def check_a18(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for j1 in range(7):
            for j2 in range(7 - j1):
                for i in ctx.ij_range():
                    total = sum(
                        (
                            binom(i, r) * ctx.b(r, j1, k) * ctx.b(i - r, j2, -k)
                            for r in range(i + 1)
                        ),
                        Fraction(0),
                    )
                    _expect(
                        ctx.b(i, j1 + j2, 0) == total,
                        "a18",
                        f"i={i}, j1={j1}, j2={j2}, k={k}",
                    )
                    cases += 1
    return cases


def check_a19(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                total = sum(
                    (
                        binom(i, r) * qpow(k, r) * ctx.b(i - r, j, -k)
                        for r in range(i + 1)
                    ),
                    Fraction(0),
                )
                _expect(ctx.b(i, j, 0) == total, "a19", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


def check_a20(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                total = sum(
                    (
                        binom(i, r) * qpow(k, i - r) * ctx.b(r, j, 0)
                        for r in range(i + 1)
                    ),
                    Fraction(0),
                )
                _expect(ctx.b(i, j, k) == total, "a20", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


def check_a21(ctx: Context) -> int:
    cases = 0
    for k1 in ctx.k_set:
        for k2 in ctx.k_set:
            for i in ctx.ij_range():
                for j in ctx.ij_range():
                    total = sum(
                        (
                            binom(i, r) * qpow(k1, i - r) * ctx.b(r, j, k2)
                            for r in range(i + 1)
                        ),
                        Fraction(0),
                    )
                    _expect(
                        ctx.b(i, j, k1 + k2) == total,
                        "a21",
                        f"i={i}, j={j}, k1={k1}, k2={k2}",
                    )
                    cases += 1
    return cases


def check_a23(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in range(1, ctx.i_max + 1):
                total = sum(
                    (
                        binom(i, r) * qpow(k, i - r) * ctx.b(r + 1, j, 0)
                        for r in range(i + 1)
                    ),
                    Fraction(0),
                )
                _expect(
                    j * ctx.b(i, j - 1, k + 1) == total, "a23", f"i={i}, j={j}, k={k}"
                )
                cases += 1
    return cases


# ------------------------------------------------ expansion of powers (a7a)


def check_a7a(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for n in range(11):
            for i in ctx.ij_range():
                total = sum(
                    (binom(n, r) * ctx.b(i, r, k) for r in range(i + 1)), Fraction(0)
                )
                _expect(qpow(n + k, i) == total, "a7a", f"n={n}, i={i}, k={k}")
                cases += 1
    return cases


def check_a7a1(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for l in range(-3, 4):
            for n in range(11):
                if n + l < 0:
                    continue
                for i in ctx.ij_range():
                    total = sum(
                        (binom(n + l, r) * ctx.b(i, r, k - l) for r in range(i + 1)),
                        Fraction(0),
                    )
                    _expect(
                        qpow(n + k, i) == total, "a7a1", f"n={n}, l={l}, i={i}, k={k}"
                    )
                    cases += 1
    return cases


def check_a7a2(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for l in range(4):
            for n in range(11):
                for i in ctx.ij_range():
                    total = sum(
                        (
                            binom(n, r) * ctx.b(i, r, (l - 1) * n + k)
                            for r in range(i + 1)
                        ),
                        Fraction(0),
                    )
                    _expect(
                        qpow(l * n + k, i) == total,
                        "a7a2",
                        f"n={n}, l={l}, i={i}, k={k}",
                    )
                    cases += 1
    return cases


# --------------------------------------------------- alternating sums (a24)


def check_a24(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                total = sum(
                    (
                        (-1 if (j - r) % 2 else 1) * ctx.b(i, r, k)
                        for r in range(j + 1)
                    ),
                    Fraction(0),
                )
                sign = -1 if j % 2 else 1
                want = ctx.b(i, j + 1, k - 1) + sign * qpow(k - 1, i)
                _expect(total == want, "a24", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


def check_a25(ctx: Context) -> int:
    cases = 0
    for i in range(1, ctx.i_max + 1):
        for j in range(1, ctx.i_max + 1):
            total = sum(
                ((-1 if (j - r) % 2 else 1) * ctx.b(i, r, 1) for r in range(j + 1)),
                Fraction(0),
            )
            _expect(total == ctx.b(i, j + 1, 0), "a25", f"i={i}, j={j}")
            cases += 1
    return cases


def check_a26(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            total = sum(
                (
                    (-1 if (i - 1 - r) % 2 else 1) * ctx.b(i, r, k)
                    for r in range(i)
                ),
                Fraction(0),
            )
            sign = -1 if (i - 1) % 2 else 1
            want = math.factorial(i) + sign * qpow(k - 1, i)
            _expect(total == want, "a26", f"i={i}, k={k}")
            cases += 1
    return cases


def check_a27(ctx: Context) -> int:
    cases = 0
    for k in ctx.k_set:
        for i in ctx.ij_range():
            total = sum(
                ((-1 if r % 2 else 1) * ctx.b(i, r, k) for r in range(i + 1)),
                Fraction(0),
            )
            _expect(total == qpow(k - 1, i), "a27", f"i={i}, k={k}")
            cases += 1
    return cases


def check_a28(ctx: Context) -> int:
    cases = 0
    for i in ctx.ij_range():
        total = sum(
            ((-1 if (i - r) % 2 else 1) * ctx.b(i, r, 0) for r in range(i + 1)),
            Fraction(0),
        )
        _expect(total == 1, "a28", f"i={i}")
        cases += 1
    return cases


# ------------------------------------------- binomial-weighted j sums (a29)


def check_a29(ctx: Context) -> int:
    cases = 0
    for j in ctx.ij_range():
        for i in range(j, ctx.i_max + 1):
            for k in range(1 - j, 6):
                total = sum(
                    (
                        (-1 if (i - r) % 2 else 1)
                        * binom(r + k - 1, r - j)
                        * ctx.b(i, r, k)
                        for r in range(j, i + 1)
                    ),
                    Fraction(0),
                )
                _expect(total == ctx.b(i, j, 0), "a29", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


def check_a29a(ctx: Context) -> int:
    cases = 0
    for j in ctx.ij_range():
        for i in range(j, ctx.i_max + 1):
            for k in range(1 - j, 6):
                total = sum(
                    (
                        (-1 if (i - r) % 2 else 1)
                        * binom(r + k - 1, r - j)
                        * ctx.b(i, r, 0)
                        for r in range(j, i + 1)
                    ),
                    Fraction(0),
                )
                _expect(total == ctx.b(i, j, k), "a29a", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


# ------------------------------------------------------ shifts in k


def check_a30(ctx: Context) -> int:
    cases = 0
    for k1 in ctx.k_set:
        for k2 in range(7):
            for i in ctx.ij_range():
                for j in ctx.ij_range():
                    total = sum(
                        (binom(k2, r) * ctx.b(i, j + r, k1) for r in range(k2 + 1)),
                        Fraction(0),
                    )
                    _expect(
                        ctx.b(i, j, k1 + k2) == total,
                        "a30",
                        f"i={i}, j={j}, k1={k1}, k2={k2}",
                    )
                    cases += 1
    return cases


def check_n30(ctx: Context) -> int:
    cases = 0
    for l in (2, 3):
        for k in range(0, 5):
            for i in ctx.ij_range():
                for j in ctx.ij_range():
                    hi = min(i - j, (l - 1) * k)
                    total = sum(
                        (
                            binom((l - 1) * k, r) * ctx.b(i, j + r, k)
                            for r in range(hi + 1)
                        ),
                        Fraction(0),
                    )
                    _expect(
                        ctx.b(i, j, l * k) == total, "n30", f"i={i}, j={j}, k={k}, l={l}"
                    )
                    cases += 1
    return cases


def check_a31(ctx: Context) -> int:
    cases = 0
    for k1 in ctx.k_set:
        for k2 in range(7):
            for i in ctx.ij_range():
                for j in ctx.ij_range():
                    total = sum(
                        (
                            binom(k2, r)
                            * (-1 if (k2 - r) % 2 else 1)
                            * ctx.b(i, j, k1 + r)
                            for r in range(k2 + 1)
                        ),
                        Fraction(0),
                    )
                    _expect(
                        ctx.b(i, j + k2, k1) == total,
                        "a31",
                        f"i={i}, j={j}, k1={k1}, k2={k2}",
                    )
                    cases += 1
    return cases


def check_a32(ctx: Context) -> int:
    cases = 0
    for j in ctx.ij_range():
        for i in range(j, ctx.i_max + 1):
            total = sum(
                (
                    binom(i - j, r) * (-1 if (i - j - r) % 2 else 1) * ctx.b(i, j, r)
                    for r in range(i - j + 1)
                ),
                Fraction(0),
            )
            _expect(total == math.factorial(i), "a32", f"i={i}, j={j}")
            cases += 1
    return cases


def check_a33(ctx: Context) -> int:
    cases = 0
    for j in range(1, ctx.i_max + 1):
        for i in ctx.ij_range():
            total = sum(
                (
                    binom(i, r) * (-1 if (i - r) % 2 else 1) * ctx.b(i, j, r)
                    for r in range(i + 1)
                ),
                Fraction(0),
            )
            _expect(total == 0, "a33", f"i={i}, j={j}")
            cases += 1
    return cases


def check_a34(ctx: Context) -> int:
    cases = 0
    for k in range(7):
        for i in ctx.ij_range():
            for j in ctx.ij_range():
                total = ctx.b(i, j, 1) + sum(
                    (ctx.b(i, j + 1, r) for r in range(1, k + 1)), Fraction(0)
                )
                _expect(ctx.b(i, j, k + 1) == total, "a34", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


def check_k_i(ctx: Context) -> int:
    cases = 0
    for k in range(1, 7):
        for i in range(1, ctx.i_max + 1):
            total = sum((ctx.b(i, 1, r) for r in range(k)), Fraction(0))
            _expect(total == qpow(k, i), "k_i", f"i={i}, k={k}")
            cases += 1
    return cases


def check_k_i_l(ctx: Context) -> int:
    cases = 0
    for l in range(1, 5):
        for k in range(1, 7):
            for i in range(1, ctx.i_max + 1):
                total = sum((ctx.b(i, 1, l + r) for r in range(k)), Fraction(0))
                _expect(
                    total == qpow(k + l, i) - qpow(l, i),
                    "k_i_l",
                    f"i={i}, k={k}, l={l}",
                )
                cases += 1
    return cases


# --------------------------------------------------- multinomial expansions

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


def check_a36(ctx: Context) -> int:
    cases = 0
    for js, ks in _A36_PAIRS + _A36_TRIPLES:
        j_total = sum(js)
        k_total = sum(as_rational(k) for k in ks)
        for i in range(FIXED_I + 1):
            total = Fraction(0)
            for parts in compositions(i, len(js)):
                prod = Fraction(multinom(i, parts))
                for part, j_r, k_r in zip(parts, js, ks):
                    prod *= ctx.b(part, j_r, k_r)
                    if prod == 0:
                        break
                total += prod
            _expect(
                ctx.b(i, j_total, k_total) == total,
                "a36",
                f"i={i}, js={js}, ks={ks}",
            )
            cases += 1
    return cases


def check_a37(ctx: Context) -> int:
    cases = 0
    for js in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
        l = len(js)
        for k in range(4):
            for i in range(FIXED_I + 1):
                total = Fraction(0)
                for parts in compositions(i, l + k):
                    prod = Fraction(multinom(i, parts))
                    for part, j_r in zip(parts[:l], js):
                        prod *= ctx.b(part, j_r, 0)
                        if prod == 0:
                            break
                    total += prod
                _expect(
                    ctx.b(i, sum(js), k) == total, "a37", f"i={i}, js={js}, k={k}"
                )
                cases += 1
    return cases


def check_a38(ctx: Context) -> int:
    cases = 0
    for j in range(5):
        for k in range(4):
            if j + k == 0:
                continue
            for i in range(FIXED_I + 1):
                total = sum(
                    (
                        Fraction(multinom(i, parts))
                        for parts in compositions(i, j + k, positive_prefix=j)
                    ),
                    Fraction(0),
                )
                _expect(ctx.b(i, j, k) == total, "a38", f"i={i}, j={j}, k={k}")
                cases += 1
    return cases


def check_comb(ctx: Context) -> int:
    """Brute-force surjection counting against the algebraic values."""
    cases = 0
    for j in range(8):
        for k in range(8 - j):
            for i in range(8):
                _expect(
                    ctx.b(i, j, k) == surjection_count(i, j, k),
                    "comb",
                    f"i={i}, j={j}, k={k}",
                )
                cases += 1
    return cases


# ------------------------------------------------------- first-kind family


def check_sn2_k0(ctx: Context) -> int:
    cases = 0
    tab = ctx.c_table(0)
    for i in range(min(ctx.i_max, 10) + 1):
        for j in range(i + 1):
            _expect(tab.c(i, j) == tab.s(i, j), "sn2_k0", f"i={i}, j={j}")
            cases += 1
    return cases


def check_a46(ctx: Context) -> int:
    cases = 0
    top = min(ctx.i_max, 10)
    for k1 in ctx.k_set:
        btab = ctx.table(k1)
        for k2 in ctx.k_set:
            ctab = ctx.c_table(k2)
            for i in range(top + 1):
                for j in range(i + 1):
                    total = sum(
                        (
                            btab.value(i, r) * ctab.c(r, j) / math.factorial(r)
                            for r in range(j, i + 1)
                        ),
                        Fraction(0),
                    )
                    want = binom(i, j) * qpow(k1 - k2, i - j)
                    _expect(total == want, "a46", f"i={i}, j={j}, k1={k1}, k2={k2}")
                    cases += 1
    return cases


def check_a46_matrix(ctx: Context) -> int:
    cases = 0
    top = min(ctx.i_max, 10)
    ident = RationalMatrix.identity(top + 1)
    for k in ctx.k_set:
        btab = ctx.table(k)
        ctab = ctx.c_table(k)
        b_mat = RationalMatrix(
            [
                [btab.value(i, r) / math.factorial(r) for r in range(top + 1)]
                for i in range(top + 1)
            ]
        )
        c_mat = RationalMatrix(
            [[ctab.c(r, j) for j in range(top + 1)] for r in range(top + 1)]
        )
        _expect(b_mat @ c_mat == ident, "a46_matrix", f"k={k}")
        cases += 1
    return cases


# --------------------------------------------------- generating functions


def check_ogf(ctx: Context, j_max: int = 5, k_set=None, order: int | None = None) -> int:
    cases = 0
    order = ctx.order if order is None else order
    for k in k_set or ctx.k_set:
        for j in range(j_max + 1):
            series = ogf_coeffs(j, k, order)
            for i in range(order + 1):
                _expect(
                    series.coeff(i) == ctx.b(i, j, k),
                    "ogf",
                    f"i={i}, j={j}, k={k}",
                )
                cases += 1
    return cases


def check_egf(ctx: Context, j_max: int = 5, k_range=range(-3, 4), order: int | None = None) -> int:
    cases = 0
    order = ctx.order if order is None else order
    for k in k_range:
        for j in range(j_max + 1):
            series = egf_coeffs(j, k, order)
            for i in range(order + 1):
                _expect(
                    math.factorial(i) * series.coeff(i) == ctx.b(i, j, k),
                    "egf",
                    f"i={i}, j={j}, k={k}",
                )
                cases += 1
    return cases


def check_a41(ctx: Context) -> int:
    """Coefficient of x^i y^k in (e^x - 1)^j exp(e^x y) equals b/(i! k!).

    The y expansion is walked explicitly: coefficient of y^k is (e^x)^k / k!,
    with (e^x)^k computed by repeated series multiplication.
    """
    cases = 0
    order = FIXED_I
    em1 = exp_x(order) - TruncatedSeries.constant(1, order)
    ex_pow = TruncatedSeries.constant(1, order)
    for k in range(6):
        for j in range(4):
            series = em1.pow(j) * ex_pow
            for i in range(order + 1):
                # [x^i y^k] = coeff(i)/k!; the k! cancels against the target
                _expect(
                    math.factorial(i) * series.coeff(i) == ctx.b(i, j, k),
                    "a41",
                    f"i={i}, j={j}, k={k}",
                )
                cases += 1
        ex_pow = ex_pow * exp_x(order)
    return cases


def check_a42(ctx: Context) -> int:
    """Slice in z of e^(k x) exp((e^x - 1) z): coefficient of x^i z^j is b/(i! j!)."""
    cases = 0
    order = FIXED_I
    em1 = exp_x(order) - TruncatedSeries.constant(1, order)
    for k in range(5):
        ekx = exp_x(order, k)
        for j in range(order + 1):
            # z^j coefficient of exp((e^x - 1) z) is (e^x - 1)^j / j!;
            # the j! cancels against the target
            series = ekx * em1.pow(j)
            for i in range(order + 1):
                _expect(
                    math.factorial(i) * series.coeff(i) == ctx.b(i, j, k),
                    "a42",
                    f"i={i}, j={j}, k={k}",
                )
                cases += 1
    return cases


def check_bgf(ctx: Context, i_max: int = 8, k_set=None, x_set=None) -> int:
    from .series import binomial_gf_value

    cases = 0
    xs = x_set or (as_rational("1/2"), as_rational(1), as_rational(2))
    for k in k_set or ctx.k_set:
        for x in xs:
            for i in range(i_max + 1):
                _expect(
                    binomial_gf_value(i, k, x) == qpow(x + k, i),
                    "bgf",
                    f"i={i}, k={k}, x={x}",
                )
                cases += 1
    return cases


def check_a44(ctx: Context) -> int:
    """Double sum sum_{i',j} b(i',j,k) y^i'/i'! C(x,j) vs the truncation of e^((x+k)y).

    Checked coefficient-wise per power of y (each slice is the bgf identity
    divided by i'!), then summed at the rational test points.
    """
    cases = 0
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
                _expect(
                    slice_sum == coeff_want, "a44", f"i'={ip}, k={k}, x={x}"
                )
                lhs_total += slice_sum * qpow(y, ip)
                rhs_total += qpow((x + k) * y, ip) / math.factorial(ip)
                cases += 1
            _expect(lhs_total == rhs_total, "a44", f"summed at x={x}, y={y}, k={k}")
    return cases


# ----------------------------------------------------------------- registry

IDENTITY_CHECKS = [
    ("a6", check_a6),
    ("a7", check_a7),
    ("a8", check_a8),
    ("a10", check_a10),
    ("a11", check_a11),
    ("a12", check_a12),
    ("a12a", check_a12a),
    ("a12b", check_a12b),
    ("a13", check_a13),
    ("a14", check_a14),
    ("a15", check_a15),
    ("a16", check_a16),
    ("a17", check_a17),
    ("a18", check_a18),
    ("a19", check_a19),
    ("a20", check_a20),
    ("a21", check_a21),
    ("a23", check_a23),
    ("a24", check_a24),
    ("a25", check_a25),
    ("a26", check_a26),
    ("a27", check_a27),
    ("a28", check_a28),
    ("a29", check_a29),
    ("a29a", check_a29a),
    ("a30", check_a30),
    ("a31", check_a31),
    ("a32", check_a32),
    ("a33", check_a33),
    ("a34", check_a34),
    ("a36", check_a36),
    ("a37", check_a37),
    ("a38", check_a38),
    ("k_i", check_k_i),
    ("k_i_l", check_k_i_l),
    ("n1", check_n1),
    ("n2", check_n2),
    ("n3", check_n3),
    ("n30", check_n30),
    ("nonneg", check_nonneg),
    ("comb", check_comb),
    ("sn2_k0", check_sn2_k0),
    ("a46", check_a46),
    ("a46_matrix", check_a46_matrix),
    ("ogf", check_ogf),
    ("egf", check_egf),
    ("a41", check_a41),
    ("a42", check_a42),
    ("bgf", check_bgf),
    ("a44", check_a44),
]


@dataclass(frozen=True)
class IdentityResult:
    label: str
    ok: bool
    cases: int
    detail: str = ""


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
            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail = (
                f"{label}: {type(exc).__name__}: {exc}"
                f" (at {os.path.basename(where.filename)}:{where.lineno})"
            )
            results.append(IdentityResult(label=label, ok=False, cases=0, detail=detail))
    return results
