"""Exact dense matrix arithmetic over rationals, and partitioned chains.

Matrices are immutable, dense, and small (the intended use is transition
matrices of a handful of states).  A :class:`RationalMatrix` stores one
integer numerator matrix ``num`` over one shared denominator ``den > 0``,
kept canonical with ``gcd(den, *num) == 1`` (the representation of FLINT's
``fmpq_mat``).  Every operation works on the integers and reduces once per
result, so equal matrices have equal ``(num, den)`` and compare and hash as
tuples.  Entries are handed out as reduced :class:`~fractions.Fraction`
values built on demand.

Inversion is fraction-free (Bareiss) Gauss-Jordan elimination on the
primitive rows ``G`` of ``num = diag(g) G``: every intermediate is an exact
integer minor of ``G``, and the eliminated augmented matrix holds
``det(G)`` on the left and ``adj(G)`` (up to the common sign) on the right,
so the inverse is ``den * adj(G) diag(1/g) / det(G)`` with no rational
arithmetic at all.

:func:`combine` is a linear combination ``sum_t c_t A_t``: each entry is
one integer sum over the lcm of the term denominators, reduced once, and
``+``, ``-`` and scalar ``*`` are calls of it.  ``@`` is the one matrix
product, and it and the integer routes of :mod:`msnlib.markov` share one
integer kernel, :func:`_product`; :func:`_minus_identity` builds the step
rows ``num - s I`` of a resolvent ``num / s``.

:class:`PartitionedChain` is a stochastic matrix split by a state subset M
into the four blocks P_M, P_MN, P_NM, P_N (N denotes the complement of M
throughout the code), together with the constant block row sums when those
exist, and one lazy resolvent slot per side, ``resolvent`` (I - P_M)^-1 and
``complement_resolvent`` (I - P_N)^-1, each inverted on its first read.
Partitioning checks only that the matrix is stochastic and the index sets
are sound, and forms no product; each resolvent is inverted by the first
route that reads it, and a singular one is a ChainError naming its block.
A chain also carries one lazily filled dict, ``_slots``, in which the
closed forms of :mod:`msnlib.markov` keep, for as long as the chain lives,
its commutability verdict (Q = P_NM P_MN and Qbar = P_MN P_NM, or the
failure message) and, per scalar form and k, the list of the orders
computed so far with the sweep that extends it.  The dict takes no part
in ``==``, ``hash`` or ``repr``, and every new chain, such as one
:meth:`PartitionedChain.swapped` returns, starts an empty one.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, partial
from itertools import chain as _flatten
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .exact import PreconditionError, RationalLike, Record, as_rational, exact_field
from .exact import format_rational


class SingularMatrixError(PreconditionError):
    """Raised when elimination finds no nonzero pivot in some column."""

    def __init__(self, pivot_col: int):
        self.pivot_col = pivot_col
        super().__init__(f"matrix is singular (no pivot in column {pivot_col})")


class ChainError(PreconditionError):
    """Invalid stochastic matrix or partition."""


def _product(rows, cols) -> list[list[int]]:
    """The integer matrix of the dot products of ``rows`` with ``cols``."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def _minus_identity(num, s: int) -> list[list[int]]:
    """The integer rows of ``num - s I`` for a square ``num``."""
    return [[v - s * (i == j) for j, v in enumerate(row)] for i, row in enumerate(num)]


class RationalMatrix:
    """Immutable dense matrix of exact rationals: integer ``num`` over ``den``."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows_data: Sequence[Sequence[RationalLike]]):
        data = [[as_rational(v) for v in row] for row in rows_data]
        if not data or not data[0]:
            raise PreconditionError("matrix must have positive dimensions")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise PreconditionError("rows have inconsistent lengths")
        # the lcm of reduced denominators leaves gcd(den, *num) == 1
        den = lcm(*(v.denominator for row in data for v in row))
        self.rows = len(data)
        self.cols = width
        self.num = tuple(
            tuple(v.numerator * (den // v.denominator) for v in row) for row in data
        )
        self.den = den

    @classmethod
    def _raw(cls, num: tuple, den: int) -> "RationalMatrix":
        """Wrap an already canonical numerator tuple and denominator."""
        obj = object.__new__(cls)
        obj.rows = len(num)
        obj.cols = len(num[0])
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def _reduced(cls, num, den: int) -> "RationalMatrix":
        """Divide integer rows ``num`` and ``den > 0`` by their common gcd."""
        if den != 1:
            g = gcd(den, *_flatten.from_iterable(num))
            if g != 1:
                den //= g
                num = [[v // g for v in row] for row in num]
        return cls._raw(tuple(map(tuple, num)), den)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._raw(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1
        )

    @classmethod
    def ones_column(cls, n: int) -> "RationalMatrix":
        return cls._raw(((1,),) * n, 1)

    @classmethod
    def row_vector(cls, values: Sequence[RationalLike]) -> "RationalMatrix":
        return cls([list(values)])

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as reduced Fractions, row by row."""
        den = self.den
        return tuple(tuple(Fraction(v, den) for v in row) for row in self.num)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self.num[i][j], self.den)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self.entries]

    def to_strings(self) -> list[list[str]]:
        return [[format_rational(v) for v in row] for row in self.entries]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.den, self.num))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return combine([(1, self), (1, other)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return combine([(1, self), (-1, other)])

    def __mul__(self, scalar) -> "RationalMatrix":
        return combine([(scalar, self)])

    __rmul__ = __mul__

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise PreconditionError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        return RationalMatrix._reduced(
            _product(self.num, tuple(zip(*other.num))), self.den * other.den
        )

    def __pow__(self, n: int) -> "RationalMatrix":
        if not self.is_square:
            raise PreconditionError("matrix power needs a square matrix")
        if not isinstance(n, int):
            raise PreconditionError(f"matrix power needs an integer exponent, got {n!r}")
        if n < 0:
            raise PreconditionError("negative powers: invert first")
        if n == 0:
            return RationalMatrix.identity(self.rows)
        # square-and-multiply from the lowest set bit: A ** 1 forms no product
        base = self
        while not n & 1:
            base = base @ base
            n >>= 1
        result = base
        while n > 1:
            n >>= 1
            base = base @ base
            if n & 1:
                result = result @ base
        return result

    def row_sums(self) -> list[Fraction]:
        return [Fraction(sum(row), self.den) for row in self.num]

    def inverse(self) -> "RationalMatrix":
        """Exact inverse via fraction-free Gauss-Jordan elimination on the
        primitive rows ``G`` of ``num = diag(g) G``, g_i the gcd of row i.

        ``[G | I]`` is reduced by Bareiss two-term updates applied to every
        row but the pivot row (each an exact integer division by the previous
        pivot), until it reads ``[d I | E]`` with ``d`` the last pivot, the
        determinant of the row-permuted ``G``, and ``E = d G^-1``.  The
        inverse of ``num / den`` is then ``den E diag(1/g) / d``, with
        ``diag(1/g)`` folded into the columns over ``lcm(g)``.  Pivoting
        swaps in the first row with a nonzero entry; positive row factors
        keep every minor's zero pattern, so pivots are those of ``num``.
        """
        if not self.is_square:
            raise PreconditionError("inverse needs a square matrix")
        n = self.rows
        gs = [gcd(*row) or 1 for row in self.num]  # a zero row keeps g = 1
        aug = [[v // g for v in row] + [0] * n for row, g in zip(self.num, gs)]
        for i in range(n):
            aug[i][n + i] = 1

        prev = 1
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
            if pivot_row is None:
                raise SingularMatrixError(col)
            if pivot_row != col:
                aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            pivot = aug[col]
            p = pivot[col]
            tail = pivot[col + 1 :]
            # columns up to `col` are never read again, so only the tail moves
            for r in range(n):
                if r != col:
                    row = aug[r]
                    f = row[col]
                    row[col + 1 :] = [
                        (p * x - f * y) // prev for x, y in zip(row[col + 1 :], tail)
                    ]
            prev = p

        g_all = lcm(*gs)
        fold = [(self.den if prev > 0 else -self.den) * (g_all // g) for g in gs]
        return RationalMatrix._reduced(
            [list(map(mul, fold, row[n:])) for row in aug], abs(prev) * g_all
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(v) for v in row) for row in self.entries
        )
        return f"RationalMatrix[{body}]"


def combine(terms) -> RationalMatrix:
    """``sum_t c_t A_t`` for pairs ``(c_t, A_t)`` of one shape, rational ``c_t``.

    Each term is scaled to the lcm of the term denominators ``c.den A.den``,
    so every entry is one integer sum, and the result is reduced once.  Zero
    coefficients are skipped after the shapes are checked.
    """
    shape, live = None, []
    for c, a in terms:
        if shape not in (None, (a.rows, a.cols)):
            raise PreconditionError("shape mismatch")
        shape = (a.rows, a.cols)
        c = c if isinstance(c, (int, Fraction)) else as_rational(c)
        if c:
            live.append((c.numerator, c.denominator * a.den, a))
    if shape is None:
        raise PreconditionError("combine needs at least one term")
    den = lcm(*(d for _, d, _ in live))
    acc = [[0] * shape[1] for _ in range(shape[0])]
    for p, d, a in live:
        f = p * (den // d)
        acc = [[x + f * v for x, v in zip(out, row)] for out, row in zip(acc, a.num)]
    return RationalMatrix._reduced(acc, den)


def _constant_row_sum(block: RationalMatrix) -> Fraction | None:
    sums = block.row_sums()
    first = sums[0]
    return first if all(s == first for s in sums) else None


def _resolvent(block: RationalMatrix, label: str) -> RationalMatrix:
    """``(I - block)^-1``, or a ChainError naming ``label`` when singular."""
    try:
        return (RationalMatrix.identity(block.rows) - block).inverse()
    except SingularMatrixError as exc:
        raise ChainError(f"{label} is singular; no passage moments exist") from exc


class PartitionedChain(Record):
    """Stochastic matrix split by a 1-based index set M.

    ``s_m`` / ``s_n`` are the common row sums of the diagonal blocks when all
    rows agree, else None.  No product of the blocks is stored.
    """

    def __init__(
        self, p: RationalMatrix, m_indices: tuple[int, ...], n_indices: tuple[int, ...],
        p_m: RationalMatrix, p_mn: RationalMatrix, p_nm: RationalMatrix, p_n: RationalMatrix,
        s_m: Fraction | None, s_n: Fraction | None, _resolvents: tuple,
    ):
        # _resolvents: (I - p_m)^-1 and (I - p_n)^-1, each inverted on first read;
        # _slots: what msnlib.markov's closed forms keep between calls on the chain
        self.__dict__.update(
            p=p, m_indices=m_indices, n_indices=n_indices, p_m=p_m, p_mn=p_mn,
            p_nm=p_nm, p_n=p_n, s_m=s_m, s_n=s_n, _resolvents=_resolvents, _slots={},
        )

    @property
    def size(self) -> int:
        return self.p.rows

    @property
    def resolvent(self) -> RationalMatrix:
        """``(I - p_m)^-1``; a ChainError names the block when it is singular."""
        return self._resolvents[0]()

    @property
    def complement_resolvent(self) -> RationalMatrix:
        """``(I - p_n)^-1``, the swapped chain's resolvent, without swapping."""
        return self._resolvents[1]()

    def swapped(self) -> "PartitionedChain":
        """The same matrix partitioned by the complement of M.

        Inverts nothing: the two resolvent slots are exchanged, so the
        complement's is inverted only when a route reads it, and swapping
        back and forth never inverts a block twice.  The swapped chain
        starts with empty closed-form slots of its own.
        """
        return PartitionedChain(
            p=self.p,
            m_indices=self.n_indices,
            n_indices=self.m_indices,
            p_m=self.p_n,
            p_mn=self.p_nm,
            p_nm=self.p_mn,
            p_n=self.p_m,
            s_m=self.s_n,
            s_n=self.s_m,
            _resolvents=self._resolvents[::-1],
        )


def partition(p: RationalMatrix, m_indices: Sequence[int]) -> PartitionedChain:
    """Validate a stochastic matrix and split it by the 1-based set M.

    Rejects non-square or non-stochastic input (naming the offending row),
    empty M or complement, and out-of-range indices.  Inverts nothing: a
    chain whose M is absorbing is accepted, and only a route that reads the
    singular ``I - P_M`` fails.  Forms no matrix product either.
    """
    if not p.is_square:
        raise ChainError(f"transition matrix must be square, got {p.rows}x{p.cols}")
    n = p.rows
    for idx, row in enumerate(p.num):
        if any(v < 0 or v > p.den for v in row):
            raise ChainError(f"row {idx + 1} has an entry outside [0, 1]")
        total = Fraction(sum(row), p.den)
        if total != 1:
            raise ChainError(
                f"row {idx + 1} sums to {format_rational(total)}, expected 1"
            )
    m_set = sorted(set(m_indices))
    if any(not 1 <= i <= n for i in m_set):
        raise ChainError(f"M indices out of range 1..{n}: {list(m_indices)}")
    if not m_set:
        raise ChainError("M must be nonempty")
    if len(m_set) == n:
        raise ChainError("complement of M must be nonempty")
    n_set = [i for i in range(1, n + 1) if i not in m_set]

    def block(row_idx, col_idx):
        return RationalMatrix._reduced(
            [[p.num[i - 1][j - 1] for j in col_idx] for i in row_idx], p.den
        )

    p_m = block(m_set, m_set)
    p_mn = block(m_set, n_set)
    p_nm = block(n_set, m_set)
    p_n = block(n_set, n_set)

    return PartitionedChain(
        p=p,
        m_indices=tuple(m_set),
        n_indices=tuple(n_set),
        p_m=p_m,
        p_mn=p_mn,
        p_nm=p_nm,
        p_n=p_n,
        s_m=_constant_row_sum(p_m),
        s_n=_constant_row_sum(p_n),
        _resolvents=(
            cache(partial(_resolvent, p_m, "I - P_M")),
            cache(partial(_resolvent, p_n, "I - P_N")),
        ),
    )


def is_commutable(chain: PartitionedChain, side: str) -> bool:
    """Whether every round trip commutes with the diagonal block.

    Side "M": X_s = P_MN @ P_N^s @ P_NM commutes with P_M, and so with every
    power of P_M, for all s >= 0; side "Mbar" is the mirror statement.
    Checking s < |N| is exact, not a truncation: by Cayley-Hamilton every
    higher power of P_N is a linear combination of the first |N|.
    """
    if side == "M":
        inner, outer, lift, drop = chain.p_n, chain.p_m, chain.p_mn, chain.p_nm
    elif side == "Mbar":
        inner, outer, lift, drop = chain.p_m, chain.p_n, chain.p_nm, chain.p_mn
    else:
        raise PreconditionError(f"side must be 'M' or 'Mbar', got {side!r}")
    for s in range(inner.rows):
        if s:
            drop = inner @ drop
        round_trip = lift @ drop
        if round_trip @ outer != outer @ round_trip:
            return False
    return True


def chain_from_dict(obj: dict) -> PartitionedChain:
    """Build a chain from the JSON schema {"P": [["1/2", ...], ...], "M": [1]}."""
    if not isinstance(obj, dict) or "P" not in obj or "M" not in obj:
        raise ChainError('chain JSON needs keys "P" and "M"')
    matrix = RationalMatrix(exact_field(obj["P"], "P", depth=2))
    return partition(matrix, exact_field(obj["M"], "M", integer=True, depth=1))


def chain_from_json(path: str) -> PartitionedChain:
    """Read a chain file; a file that cannot be read or parsed is a ChainError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ChainError(f"cannot read chain file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ChainError(f"chain file {path!r} is not valid JSON: {exc}") from exc
    return chain_from_dict(obj)
