"""Raw, factorial, and central moments of the classical discrete laws.

Each supported distribution carries a closed form for its raw moments and a
closed form for its central moments in which only the third parameter of the
b family changes (it is shifted by -M_1).  The binomial transform
:func:`central_from_raw` is the oracle every central closed form is checked
against, and :func:`factorial_moments_from_raw` inverts the raw/factorial
relation through the Stirling-1 triangle.

Conventions worth noting:

* ``NegBinomial(p, k)`` counts trials, not failures: its support starts at k.
* ``AltNegBinomial(p, q, k)`` is the trial count to the k-th success when the
  success probability alternates between p (after a failure, and initially)
  and q (after a success).
* ``DiscreteUniform(n)`` is uniform on {0, 1, ..., n-1}.
* ``PhaseType(a, mat)`` is the absorption-time law on {1, 2, ...} of a chain
  with substochastic block ``mat`` restarted by row ``a``; deficient mass
  1 - a.e sits at value 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .exact import RationalLike, as_rational, binom, qpow
from .linalg import PartitionedChain, RationalMatrix, partition
from .markov import (
    _alternating_nb_sum,
    b_power_sum,
    moment_anb,
    moment_nb,
    moment_recursive,
    nb_b_sum,
)
from .msn import msn_row
from .msn1 import stirling1_triangle


@dataclass(frozen=True)
class Binomial:
    n: int
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", as_rational(self.p))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.p <= 1:
            raise ValueError(f"need 0 <= p <= 1, got {self.p}")


@dataclass(frozen=True)
class Poisson:
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", as_rational(self.lam))
        if self.lam <= 0:
            raise ValueError(f"need lambda > 0, got {self.lam}")


@dataclass(frozen=True)
class NegBinomial:
    p: Fraction
    k: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_rational(self.p))
        if not 0 < self.p <= 1:
            raise ValueError(f"need 0 < p <= 1, got {self.p}")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class AltNegBinomial:
    p: Fraction
    q: Fraction
    k: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_rational(self.p))
        object.__setattr__(self, "q", as_rational(self.q))
        if not 0 < self.p <= 1:
            raise ValueError(f"need 0 < p <= 1, got {self.p}")
        if not 0 <= self.q < 1:
            raise ValueError(f"need 0 <= q < 1, got {self.q}")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class DiscreteUniform:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class PhaseType:
    a: RationalMatrix
    mat: RationalMatrix

    def __post_init__(self):
        if self.a.rows != 1:
            raise ValueError("initial vector must be a single row")
        if not self.mat.is_square or self.mat.rows != self.a.cols:
            raise ValueError("matrix must be square with the same dimension as a")
        if any(v < 0 for row in self.a.entries for v in row):
            raise ValueError("initial vector must be nonnegative")
        if any(v < 0 for row in self.mat.entries for v in row):
            raise ValueError("matrix entries must be nonnegative")
        if sum(self.a.entries[0]) > 1:
            raise ValueError("initial vector mass must not exceed 1")
        if any(s > 1 for s in self.mat.row_sums()):
            raise ValueError("matrix row sums must not exceed 1")
        # I - mat must be invertible; raises SingularMatrixError otherwise
        (RationalMatrix.identity(self.mat.rows) - self.mat).inverse()

    def embedded_chain(self) -> PartitionedChain:
        """The chain [[mat, (I-mat) e], [a, 1 - a e]]; the law is Rbar_1 there."""
        dim = self.mat.rows
        exit_col = (RationalMatrix.identity(dim) - self.mat) @ RationalMatrix.ones_column(dim)
        rows = [
            list(self.mat.entries[i]) + [exit_col[i, 0]] for i in range(dim)
        ]
        rows.append(list(self.a.entries[0]) + [1 - sum(self.a.entries[0])])
        return partition(RationalMatrix(rows), list(range(1, dim + 1)))


@dataclass(frozen=True)
class Recurrence:
    chain: PartitionedChain

    def __post_init__(self):
        if len(self.chain.m_indices) != 1:
            raise ValueError("recurrence law needs |M| = 1")


DistributionSpec = Union[
    Binomial, Poisson, NegBinomial, AltNegBinomial, DiscreteUniform, PhaseType, Recurrence
]


def raw_moment(dist: DistributionSpec, m: int) -> Fraction:
    """Exact m-th raw moment via the distribution's closed form."""
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    if isinstance(dist, Binomial):
        row = msn_row(m, 0)
        return sum(
            (
                row[j] * binom(dist.n, j) * qpow(dist.p, j)
                for j in range(min(m, dist.n) + 1)
            ),
            Fraction(0),
        )
    if isinstance(dist, Poisson):
        row = msn_row(m, 0)
        return sum(
            (
                row[j] * qpow(dist.lam, j) / math.factorial(j)
                for j in range(m + 1)
            ),
            Fraction(0),
        )
    if isinstance(dist, NegBinomial):
        return moment_nb(dist.p, dist.k, m)
    if isinstance(dist, AltNegBinomial):
        return moment_anb(dist.p, dist.q, dist.k, m)
    if isinstance(dist, DiscreteUniform):
        # lower index j+1, which is what reproduces M_1 = (n-1)/2 on {0..n-1}
        row = msn_row(m, 0)
        return sum(
            (row[j] * binom(dist.n, j + 1) for j in range(m + 1)),
            Fraction(0),
        ) / dist.n
    if isinstance(dist, PhaseType):
        return moment_recursive(dist.embedded_chain(), "Rbar1", m)[0, 0]
    if isinstance(dist, Recurrence):
        return moment_recursive(dist.chain, "R1", m)[0, 0]
    raise TypeError(f"unknown distribution spec: {dist!r}")


def raw_moments(dist: DistributionSpec, m_max: int) -> list[Fraction]:
    return [raw_moment(dist, m) for m in range(m_max + 1)]


def factorial_moments_from_raw(raw: Sequence[RationalLike]) -> list[Fraction]:
    """Factorial moments F_0..F_m from raw moments M_0..M_m.

    Inverts M_m = sum_j b(m, j, 0) F_j / j! through the signed Stirling-1
    triangle: F_m = sum_j s(m, j) M_j.  Exact round trip by construction.
    """
    raw = [as_rational(v) for v in raw]
    if not raw or raw[0] != 1:
        raise ValueError("raw moment list must start with M_0 = 1")
    tri = stirling1_triangle(len(raw) - 1)
    return [
        sum((tri[m][j] * raw[j] for j in range(m + 1)), Fraction(0))
        for m in range(len(raw))
    ]


def raw_from_factorial(factorial: Sequence[RationalLike]) -> list[Fraction]:
    """M_m = sum_j b(m, j, 0) F_j / j!, the forward direction."""
    factorial = [as_rational(v) for v in factorial]
    out = []
    for m in range(len(factorial)):
        row = msn_row(m, 0)
        out.append(
            sum(
                (row[j] * factorial[j] / math.factorial(j) for j in range(m + 1)),
                Fraction(0),
            )
        )
    return out


def central_from_raw(raw: Sequence[RationalLike]) -> list[Fraction]:
    """C_m = sum_j C(m, j) (-M_1)^(m-j) M_j, the binomial transform.

    This is the oracle for every central-moment closed form in the package.
    """
    raw = [as_rational(v) for v in raw]
    if not raw or raw[0] != 1:
        raise ValueError("raw moment list must start with M_0 = 1")
    mean = raw[1] if len(raw) > 1 else Fraction(0)
    out = []
    for m in range(len(raw)):
        total = Fraction(0)
        for j in range(m + 1):
            total += binom(m, j) * qpow(-mean, m - j) * raw[j]
        out.append(total)
    return out


def central_via_factorial(factorial: Sequence[RationalLike], m: int) -> Fraction:
    """C_m = sum_j b(m, j, -M_1) F_j / j!  with M_1 = F_1."""
    factorial = [as_rational(v) for v in factorial]
    if not factorial or factorial[0] != 1:
        raise ValueError("factorial moment list must start with F_0 = 1")
    if m >= len(factorial):
        raise ValueError(f"need factorial moments up to order {m}")
    mean = factorial[1] if len(factorial) > 1 else Fraction(0)
    row = msn_row(m, -mean)
    total = Fraction(0)
    for j in range(m + 1):
        total += row[j] * factorial[j] / math.factorial(j)
    return total


def central_closed(dist: DistributionSpec, m: int) -> Fraction:
    """Exact m-th central moment by the distribution-specific closed form.

    Each form is the raw form with the third b parameter shifted by -M_1;
    the contract (enforced in tests) is equality with
    ``central_from_raw(raw_moments(dist, m))[m]``.
    """
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    if isinstance(dist, Binomial):
        row = msn_row(m, -dist.n * dist.p)
        return sum(
            (
                row[j] * binom(dist.n, j) * qpow(dist.p, j)
                for j in range(min(m, dist.n) + 1)
            ),
            Fraction(0),
        )
    if isinstance(dist, Poisson):
        row = msn_row(m, -dist.lam)
        return sum(
            (
                row[j] * qpow(dist.lam, j) / math.factorial(j)
                for j in range(m + 1)
            ),
            Fraction(0),
        )
    if isinstance(dist, NegBinomial):
        w = (1 - dist.p) / dist.p
        return nb_b_sum(w, dist.k, dist.k * (1 - Fraction(1) / dist.p), m)
    if isinstance(dist, AltNegBinomial):
        p, q, k = dist.p, dist.q, dist.k
        mean = ((k - 1) * (p - q) + k) / p
        computed = raw_moment(dist, 1)
        if computed != mean:
            raise ArithmeticError(
                f"closed mean {mean} disagrees with the moment formula {computed}"
            )
        return _alternating_nb_sum((1 - p) / p, q, k, m, shift=-mean)
    if isinstance(dist, DiscreteUniform):
        row = msn_row(m, -Fraction(dist.n - 1, 2))
        return sum(
            (row[j] * binom(dist.n, j + 1) for j in range(m + 1)),
            Fraction(0),
        ) / dist.n
    if isinstance(dist, PhaseType):
        dim = dist.mat.rows
        ones = RationalMatrix.ones_column(dim)
        resolvent = (RationalMatrix.identity(dim) - dist.mat).inverse()
        mean = 1 + (dist.a @ resolvent @ ones)[0, 0]
        defect = 1 - sum(dist.a.entries[0])
        inner = b_power_sum(msn_row(m, 2 - mean), resolvent, 0, ones)
        return defect * qpow(1 - mean, m) + (dist.a @ inner)[0, 0]
    if isinstance(dist, Recurrence):
        chain = dist.chain
        dim_n = chain.p_n.rows
        ones_n = RationalMatrix.ones_column(dim_n)
        v = chain.swapped().resolvent
        mean = 1 + (chain.p_mn @ v @ ones_n)[0, 0]
        inner = b_power_sum(msn_row(m, 2 - mean), v, 1, chain.p_nm)
        return chain.p_m[0, 0] * qpow(1 - mean, m) + (chain.p_mn @ inner)[0, 0]
    raise TypeError(f"unknown distribution spec: {dist!r}")


def spec_from_dict(obj: dict) -> DistributionSpec:
    """Parse the CLI JSON schema, e.g. {"type": "negbinomial", "p": "1/2", "k": 3}.

    A missing field raises ``ValueError("<type> spec needs field '<name>'")``,
    and anything but a JSON object ``ValueError("distribution spec must be a
    JSON object")``.
    """
    if not isinstance(obj, dict):
        raise ValueError("distribution spec must be a JSON object")
    kind = str(obj.get("type", "")).lower()

    def field(name: str):
        try:
            return obj[name]
        except KeyError:
            raise ValueError(f"{kind} spec needs field {name!r}") from None

    if kind == "binomial":
        return Binomial(n=int(field("n")), p=as_rational(field("p")))
    if kind == "poisson":
        return Poisson(lam=as_rational(field("lambda")))
    if kind == "negbinomial":
        return NegBinomial(p=as_rational(field("p")), k=int(field("k")))
    if kind == "altnegbinomial":
        return AltNegBinomial(
            p=as_rational(field("p")), q=as_rational(field("q")), k=int(field("k"))
        )
    if kind == "uniform":
        return DiscreteUniform(n=int(field("N")))
    if kind == "phasetype":
        return PhaseType(
            a=RationalMatrix.row_vector(field("a")), mat=RationalMatrix(field("A"))
        )
    if kind == "recurrence":
        matrix = RationalMatrix(field("P"))
        return Recurrence(chain=partition(matrix, [int(i) for i in field("M")]))
    raise ValueError(f"unknown distribution type: {obj.get('type')!r}")
