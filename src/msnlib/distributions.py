"""Raw, factorial, and central moments of the classical discrete laws.

The b family keeps the j! of the factorial moments F_j inside b(i, j, k), so
E[(X + s)^m] = sum_j b(m, j, s) F_j / j! for every shift s.  Each law's
closed form is that one sum, written once as a generator of the orders
m = 0, 1, ... in ``_sums``: shift 0 gives the raw moments and shift -M_1,
with M_1 order 1 of that same raw list, the central moments.  Every such
sum runs on the scaled integer b rows that :func:`msnlib.msn.msn_row_sweep`
steps one order at a time, as one integer over one denominator, and
divides once.  A law object keeps, for the raw and the central moments,
that generator and the list of the moments it has produced, from first
use for its lifetime: asking for orders 0..m in any order costs one sweep,
and a lower order is a list read.  The lists are
:func:`msnlib.markov._listed`, the one list mechanism, which the scalar
chain forms of :mod:`msnlib.markov` keep on their chain in the same way.
``NegBinomial`` and ``AltNegBinomial`` are the negative-binomial mixture of
:mod:`msnlib.markov`, whose five scalar forms compute it too, from one
swept row per order.  A chain law's sum, raw and central alike, is a dot
product of the swept row with integer weights extended one matrix-vector
step per order, with no recursion over earlier moments.  A ``PhaseType``
is a ``Recurrence``: the law Rbar_1 of its embedded chain, which its
constructor builds and whose I - mat it inverts into the resolvent slot
the moments read.  The first-step recursion
(:func:`msnlib.markov.moment_recursive`) is the oracle the chain laws' sums
are checked against, as the binomial transform :func:`central_from_raw` is
for every central closed form; :func:`factorial_moments_from_raw` inverts
the raw/factorial relation through the Stirling-1 triangle.

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
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from operator import floordiv, mul
from typing import Iterator, Sequence, Union

from .exact import PreconditionError, RationalLike, _check_integer, as_rational, binom
from .exact import InputTypeError, Record, exact_field, qpow
from .linalg import ChainError, PartitionedChain, RationalMatrix, _minus_identity
from .linalg import partition
from .markov import _check_orders, _horner, _listed, _nb_mixture_sums
from .msn import msn_row_scaled, msn_row_sweep
from .msn1 import stirling1_triangle


class _Law(Record):
    """What a law object keeps between calls: under the keys "raw" (shift 0)
    and "central" (shift -M_1, with M_1 order 1 of the raw list) the moments
    E[(X + shift)^m] produced so far and the generator that produces the
    next (:func:`msnlib.markov._listed`).  The slots fill on first use and
    live as long as the object."""

    @cached_property
    def _lists(self) -> dict:
        return {}


class Binomial(_Law):
    def __init__(self, n: int, p: Fraction):
        p = as_rational(p)
        _check_integer("n", n)
        if not 0 <= p <= 1:
            raise PreconditionError(f"need 0 <= p <= 1, got {p}")
        self.__dict__.update(n=n, p=p)


class Poisson(_Law):
    def __init__(self, lam: Fraction):
        lam = as_rational(lam)
        if lam <= 0:
            raise PreconditionError(f"need lambda > 0, got {lam}")
        self.__dict__["lam"] = lam


class NegBinomial(_Law):
    def __init__(self, p: Fraction, k: int):
        p = as_rational(p)
        if not 0 < p <= 1:
            raise PreconditionError(f"need 0 < p <= 1, got {p}")
        _check_integer("k", k)
        self.__dict__.update(p=p, k=k)


class AltNegBinomial(_Law):
    def __init__(self, p: Fraction, q: Fraction, k: int):
        p, q = as_rational(p), as_rational(q)
        if not 0 < p <= 1:
            raise PreconditionError(f"need 0 < p <= 1, got {p}")
        if not 0 <= q < 1:
            raise PreconditionError(f"need 0 <= q < 1, got {q}")
        _check_integer("k", k)
        self.__dict__.update(p=p, q=q, k=k)


class DiscreteUniform(_Law):
    def __init__(self, n: int):
        _check_integer("n", n)
        self.__dict__["n"] = n


class Recurrence(_Law):
    def __init__(self, chain: PartitionedChain):
        if len(chain.m_indices) != 1:
            raise PreconditionError("recurrence law needs |M| = 1")
        self.__dict__["chain"] = chain


class PhaseType(Recurrence):
    """The law Rbar_1 of :meth:`embedded_chain`, which ``chain`` holds."""

    def __init__(self, a: RationalMatrix, mat: RationalMatrix):
        if a.rows != 1:
            raise PreconditionError("initial vector must be a single row")
        if not mat.is_square or mat.rows != a.cols:
            raise PreconditionError("matrix must be square with the same dimension as a")
        if any(v < 0 for row in a.entries for v in row):
            raise PreconditionError("initial vector must be nonnegative")
        if any(v < 0 for row in mat.entries for v in row):
            raise PreconditionError("matrix entries must be nonnegative")
        if sum(a.entries[0]) > 1:
            raise PreconditionError("initial vector mass must not exceed 1")
        if any(s > 1 for s in mat.row_sums()):
            raise PreconditionError("matrix row sums must not exceed 1")
        self.__dict__.update(a=a, mat=mat)
        self.__dict__["chain"] = self.embedded_chain().swapped()
        # I - mat must be invertible: inverting it here fills the resolvent
        # slot the moments read, and a singular one is a SingularMatrixError
        try:
            self.chain.complement_resolvent
        except ChainError as exc:
            raise exc.__cause__ from None

    def embedded_chain(self) -> PartitionedChain:
        """The chain [[mat, (I-mat) e], [a, 1 - a e]]; the law is Rbar_1 there."""
        dim = self.mat.rows
        exit_col = (RationalMatrix.identity(dim) - self.mat) @ RationalMatrix.ones_column(dim)
        rows = [
            list(self.mat.entries[i]) + [exit_col[i, 0]] for i in range(dim)
        ]
        rows.append(list(self.a.entries[0]) + [1 - sum(self.a.entries[0])])
        return partition(RationalMatrix(rows), list(range(1, dim + 1)))


DistributionSpec = Union[
    Binomial, Poisson, NegBinomial, AltNegBinomial, DiscreteUniform, PhaseType, Recurrence
]


def _law(dist: DistributionSpec):
    if not isinstance(dist, _Law):
        raise InputTypeError(f"unknown distribution spec: {dist!r}")
    return dist


def _raw(law, m: int) -> list[Fraction]:
    """E[X^m] for the orders 0..m (the list may run longer): the law's raw
    list (:func:`msnlib.markov._listed` over :func:`_sums` at shift 0)."""
    return _listed(law._lists, "raw", m, lambda: _sums(law, 0))


def _sums(law, shift: RationalLike) -> Iterator[Fraction]:
    """E[(X + shift)^m] = sum_j b(m, j, shift) E[C(X, j)], m = 0, 1, ...

    One generator per law, given the law's fields and never the law, so a
    law that keeps it makes no reference cycle.  Each sum runs on the scaled
    integer rows B_j = Q^m b(m, j, .) of :func:`msn_row_sweep` and divides
    once.  With p = a/c (or lambda = a/c) the scalar laws are the integers
    Binomial: sum_{j<=J} B_j C(n, j) a^j c^(J-j) over Q^m c^J, J = min(m, n);
    Poisson: sum_j (B_j / j!) a^j c^(m-j) over Q^m c^m, B_j / j! an integer;
    DiscreteUniform: sum_j B_j C(n, j+1) over Q^m n;
    the first two by Horner in a.  NegBinomial is the one-row mixture of
    :func:`msnlib.markov._nb_mixture_sums` at b(m, j, k + shift) (X - k is
    the failure count), AltNegBinomial the mixture of the k consecutive
    b(m, j, k + r + shift), and a chain law reads b(m, j, 2 + shift)
    (:func:`_chain_sums`).
    """
    if isinstance(law, Recurrence):
        return _chain_sums(law.chain, shift)
    if isinstance(law, NegBinomial):
        return _nb_mixture_sums((1 - law.p) / law.p, 0, 0, law.k, law.k + shift)
    if isinstance(law, AltNegBinomial):
        w, k = (1 - law.p) / law.p, law.k
        return _nb_mixture_sums(w, 1 - law.q, k - 1, 1, k + shift)
    if isinstance(law, DiscreteUniform):
        # lower index j+1, which reproduces M_1 = (n-1)/2 on {0..n-1}
        n = law.n
        coeffs = [binom(n, j + 1) for j in range(n)]
        return (
            Fraction(sum(map(mul, row, coeffs)), scale * n)
            for row, scale in msn_row_sweep(shift)
        )
    if isinstance(law, Binomial):
        return _binomial_sums(law.n, law.p, shift)
    return _poisson_sums(law.lam, shift)


def _binomial_sums(n: int, p: Fraction, shift: RationalLike) -> Iterator[Fraction]:
    coeffs = [binom(n, j) for j in range(n + 1)]
    for row, scale in msn_row_sweep(shift):
        total, c_pow = _horner(list(map(mul, row, coeffs)), p.numerator, p.denominator)
        yield Fraction(total, scale * c_pow)


def _poisson_sums(lam: Fraction, shift: RationalLike) -> Iterator[Fraction]:
    # B_j / j! is an integer: B_j is the j-th difference at 0 of the integer
    # polynomial r -> (q r + p)^m, for shift = p/q
    for row, scale in msn_row_sweep(shift):
        terms = list(map(floordiv, row, accumulate(range(1, len(row)), mul, initial=1)))
        total, c_pow = _horner(terms, lam.numerator, lam.denominator)
        yield Fraction(total, scale * c_pow)


def _chain_sums(chain: PartitionedChain, shift: Fraction) -> Iterator[Fraction]:
    """P_M (1+shift)^m + P_MN sum_j b(m, j, 2+shift) P_N^j (I-P_N)^(-j-1) P_NM.

    V = N/s = (I-P_N)^-1, P_MN = L/e_1 and P_NM = R/e_2 with e = e_1 e_2 and
    |M| = 1.  Since P_N^j V^(j+1) = (V-I)^j V, the j-th term is
    Y_j / (s^(j+1) e) with the integer Y_j = L (N - sI)^j N R.  The column
    x_j = (N - sI)^j N R is kept, and each new order costs one
    matrix-vector step x <- (N - sI) x and one integer dot product with the
    scaled row B_j = Q^m b(m, j, 2+shift): the sum is
    sum_j B_j Y_j s^(m-j) over Q^m s^(m+1) e.
    """
    v = chain.complement_resolvent
    s, e = v.den, chain.p_mn.den * chain.p_nm.den
    left = chain.p_mn.num[0]
    step = _minus_identity(v.num, s)
    right = [row[0] for row in chain.p_nm.num]
    x = [sum(map(mul, row, right)) for row in v.num]
    p_m = chain.p_m[0, 0]
    y = []
    for m, (row, scale) in enumerate(msn_row_sweep(2 + shift)):
        if m:
            x = [sum(map(mul, r, x)) for r in step]
        y.append(sum(map(mul, left, x)))
        total, s_pow = _horner(list(map(mul, row, y)), 1, s)
        yield p_m * qpow(1 + shift, m) + Fraction(total, scale * s_pow * s * e)


def raw_moment(dist: DistributionSpec, m: int) -> Fraction:
    """Exact m-th raw moment: the law's moments at shift 0 (:func:`_sums`)."""
    _check_orders(m)
    return _raw(_law(dist), m)[m]


def raw_moments(dist: DistributionSpec, m_max: int) -> list[Fraction]:
    """M_0..M_max, a copy of the law's list at shift 0."""
    _check_orders(m_max)
    return _raw(_law(dist), m_max)[: m_max + 1]


def factorial_moments_from_raw(raw: Sequence[RationalLike]) -> list[Fraction]:
    """Factorial moments F_0..F_m from raw moments M_0..M_m.

    Inverts M_m = sum_j b(m, j, 0) F_j / j! through the signed Stirling-1
    triangle: F_m = sum_j s(m, j) M_j.  Exact round trip by construction.
    """
    raw = [as_rational(v) for v in raw]
    if not raw or raw[0] != 1:
        raise PreconditionError("raw moment list must start with M_0 = 1")
    tri = stirling1_triangle(len(raw) - 1)
    return [
        sum((tri[m][j] * raw[j] for j in range(m + 1)), Fraction(0))
        for m in range(len(raw))
    ]


def _factorial_b_sums(factorial: list[Fraction], rows) -> list[Fraction]:
    """sum_j b(m, j, shift) F_j / j! for each scaled row (B, Q^m) of ``rows``.

    With G_j = F_j / j! over their lcm D, formed once for all the rows, and
    B_j = Q^m b(m, j, shift), each sum is the integer sum_j B_j D G_j over
    Q^m D: one division.
    """
    weights = [f / math.factorial(j) for j, f in enumerate(factorial)]
    den = math.lcm(*(g.denominator for g in weights))
    nums = [g.numerator * (den // g.denominator) for g in weights]
    return [Fraction(sum(map(mul, row, nums)), scale * den) for row, scale in rows]


def raw_from_factorial(factorial: Sequence[RationalLike]) -> list[Fraction]:
    """M_m = sum_j b(m, j, 0) F_j / j!, the forward direction."""
    factorial = [as_rational(v) for v in factorial]
    return _factorial_b_sums(factorial, islice(msn_row_sweep(0), len(factorial)))


def central_from_raw(raw: Sequence[RationalLike]) -> list[Fraction]:
    """C_m = sum_j C(m, j) (-M_1)^(m-j) M_j, the binomial transform.

    This is the oracle for every central-moment closed form in the package.
    """
    raw = [as_rational(v) for v in raw]
    if not raw or raw[0] != 1:
        raise PreconditionError("raw moment list must start with M_0 = 1")
    mean = raw[1] if len(raw) > 1 else Fraction(0)
    out = []
    for m in range(len(raw)):
        total = Fraction(0)
        for j in range(m + 1):
            total += binom(m, j) * qpow(-mean, m - j) * raw[j]
        out.append(total)
    return out


def central_via_factorial(factorial: Sequence[RationalLike], m: int) -> Fraction:
    """C_m = sum_j b(m, j, -M_1) F_j / j!  with M_1 = F_1, on one b row."""
    factorial = [as_rational(v) for v in factorial]
    if not factorial or factorial[0] != 1:
        raise PreconditionError("factorial moment list must start with F_0 = 1")
    if m >= len(factorial):
        raise PreconditionError(f"need factorial moments up to order {m}")
    mean = factorial[1] if len(factorial) > 1 else Fraction(0)
    return _factorial_b_sums(factorial[: m + 1], [msn_row_scaled(m, -mean)])[0]


def central_closed(dist: DistributionSpec, m: int) -> Fraction:
    """Exact m-th central moment: the law's b-sum at shift -M_1.

    M_1 is order 1 of the law's own raw list, the same b-sum at shift 0; the
    contract (enforced in tests) is equality with
    ``central_from_raw(raw_moments(dist, m))[m]``.
    """
    _check_orders(m)
    law = _law(dist)
    # the shift -M_1 is formed only when the central list is made
    central = _listed(law._lists, "central", m, lambda: _sums(law, -_raw(law, 1)[1]))
    return central[m]


def spec_from_dict(obj: dict) -> DistributionSpec:
    """Parse the CLI JSON schema, e.g. {"type": "negbinomial", "p": "1/2", "k": 3}.

    Every rejection is a :class:`msnlib.exact.PreconditionError`: a missing
    field is "<type> spec needs field '<name>'"; a float, boolean or (for
    ``n``, ``k``, ``N`` and ``M``) non-integral value, or a value of the
    wrong shape (``a`` and ``M`` are lists, ``A`` and ``P`` matrices), names
    the field; anything but a JSON object is "distribution spec must be a
    JSON object", and a law's own domain checks raise in its constructor.
    """
    if not isinstance(obj, dict):
        raise PreconditionError("distribution spec must be a JSON object")
    kind = str(obj.get("type", "")).lower()

    def field(name: str, integer: bool = False, depth: int = 0):
        if name not in obj:
            raise PreconditionError(f"{kind} spec needs field {name!r}")
        return exact_field(obj[name], name, integer, depth)

    if kind == "binomial":
        return Binomial(n=field("n", True), p=field("p"))
    if kind == "poisson":
        return Poisson(lam=field("lambda"))
    if kind == "negbinomial":
        return NegBinomial(p=field("p"), k=field("k", True))
    if kind == "altnegbinomial":
        return AltNegBinomial(p=field("p"), q=field("q"), k=field("k", True))
    if kind == "uniform":
        return DiscreteUniform(n=field("N", True))
    if kind == "phasetype":
        return PhaseType(
            a=RationalMatrix.row_vector(field("a", depth=1)),
            mat=RationalMatrix(field("A", depth=2)),
        )
    if kind == "recurrence":
        matrix = RationalMatrix(field("P", depth=2))
        return Recurrence(chain=partition(matrix, field("M", True, depth=1)))
    raise PreconditionError(f"unknown distribution type: {obj.get('type')!r}")
