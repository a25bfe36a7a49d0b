"""Distributions and moments of passage and recurrence times of a DTMC.

For a chain partitioned by a state set M (complement N), started in M:

* ``N_k`` is the step count until the k-th visit to N,
* ``R_k`` is the step count until the k-th return to M,

and the barred variants (start in N, roles swapped).  Distribution values
are |M| x |N| (passage) or |M| x |M| (recurrence) matrices of exact
probabilities; the m-th moment of such a matrix variable is the entrywise
sum  M_m = sum_n n**m P(. = n), again an exact matrix.

Two independent computation routes exist for every moment:

* the recursive route (:func:`moment_recursive`, :func:`moment_k_convolved`)
  which only uses first-step analysis and moment convolution, and
* closed forms whose coefficients are the b family of :mod:`msnlib.msn`:
  the commutable forms for general k, whose k = 1 case holds on every chain
  (:func:`moment_n1_closed`, :func:`moment_r1_closed`), and the
  constant-row-sum specializations.

The recursive route is the oracle: the closed forms must reproduce it
exactly, and the test suite enforces that, as it does for the chain laws
of :mod:`msnlib.distributions`.  It runs on integers: its first-step
recursion (:func:`_first_step`) forms the orders 0..m with one integer
product per order, order j over a denominator e delta^j known in advance,
the convolution rounds keep that scheme, and a moment is reduced once, when
it is returned.  Every closed-form b-sum takes the scaled integer b row of
its base shift, steps the further shifts from it (:func:`msnlib.msn.msn_shifts`)
and divides once: a commutable form by one integer Horner over every r
(:func:`b_power_sum`), whatever k is, in the one loop of both forms
(:func:`_passage_sum`, which reads R_k as a first step out of M and a
passage back), and the five scalar forms as one negative-binomial mixture
over consecutive shifts, :func:`_nb_mixture` (the base shift alone for a
plain negative-binomial sum), which the laws ``NegBinomial`` and
``AltNegBinomial`` read order by order from :func:`_nb_mixture_sums`.  The
weights C(j+r-1, j) b(m, j, k) of that mixture and of the commutable forms
come from :func:`_nb_weights`.

A chain keeps what these forms learn about it in its slot dict
(:class:`msnlib.linalg.PartitionedChain`), for as long as it lives.  The
commutable forms keep the verdict of the commutability test, Q = P_NM P_MN
and Qbar = P_MN P_NM or the failure message, so the test runs once per
chain.  The three scalar chain forms keep, per k, the list of the orders
produced so far and the :func:`_nb_mixture_sums` sweep that extends it
(:func:`_listed`, the one list mechanism, which the laws of
:mod:`msnlib.distributions` use too): an order inside the list is a read,
and an order past its end extends it by sweep steps, so orders 0..m in
any order cost one sweep.  ``moment_nb`` and ``moment_anb`` take no
object that could keep a list, and build one row per call.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice, zip_longest
from math import lcm
from operator import add, mul
from typing import Callable, Hashable, Iterator, Sequence

from .exact import PreconditionError, RationalLike, _check_integer, as_rational, binom, qpow
from .linalg import PartitionedChain, RationalMatrix, combine, is_commutable
from .linalg import _minus_identity, _product
from .msn import msn_row_scaled, msn_row_sweep, msn_shifts


class CommutabilityError(PreconditionError):
    """A commutable-only closed form was applied to a non-commutable chain."""


def _check_orders(m: int, k: int = 1):
    _check_integer("k", k)
    _check_integer("moment order", m, 0)


def dist_n1(chain: PartitionedChain, n: int) -> RationalMatrix:
    """P(N_1 = n) = P_M^(n-1) @ P_MN."""
    _check_integer("n", n)
    return chain.p_m ** (n - 1) @ chain.p_mn


def dist_r1(chain: PartitionedChain, n: int) -> RationalMatrix:
    """P(R_1 = 1) = P_M;  P(R_1 = n) = P_MN @ P_N^(n-2) @ P_NM for n >= 2."""
    _check_integer("n", n)
    if n == 1:
        return chain.p_m
    return chain.p_mn @ chain.p_n ** (n - 2) @ chain.p_nm


def _first_step(chain: PartitionedChain, m_max: int) -> tuple[list, list, int, int]:
    """N_1's moments X_0..X_max, their binomial sums Sigma_0..Sigma_max, and
    e, delta: order j of each is an integer matrix over e delta^j.

    M_0 = u P_MN = X_0 / e with u = (I-P_M)^-1 = U / delta, and for m >= 1
    M_m = u (P_MN + P_M acc_m), acc_m = sum_{j<m} C(m,j) M_j.  As u P_M =
    u - I, S_m = sum_{j<=m} C(m,j) M_j = M_0 + u acc_m and M_m = S_m - acc_m,
    so with Acc_m = sum_{j<m} C(m,j) delta^(m-1-j) X_j (acc_m over
    e delta^(m-1)), X_m = delta^m X_0 + (U - delta I) Acc_m and
    Sigma_m = X_m + delta Acc_m: one integer product per order.
    """
    u = chain.resolvent
    first = u @ chain.p_mn
    delta = u.den
    step = _minus_identity(u.num, delta)
    moments, sums = [first.num], [first.num]
    for m in range(1, m_max + 1):
        weights = [binom(m, j) * delta ** (m - 1 - j) for j in range(m)]
        acc = [
            [sum(map(mul, weights, entries)) for entries in zip(*rows)]
            for rows in zip(*moments)
        ]
        top = delta**m
        prod = _product(step, tuple(zip(*acc)))
        x = [[top * a + b for a, b in zip(*rows)] for rows in zip(first.num, prod)]
        moments.append(x)
        sums.append([[v + delta * a for v, a in zip(*rows)] for rows in zip(x, acc)])
    return moments, sums, first.den, delta


def _r1_moments(chain: PartitionedChain, sums, e: int, delta: int, orders) -> tuple:
    """M_j(R_1) = P_M + P_MN S_j for j in ``orders`` as integers Y_j over
    L delta^j, and L = lcm(den P_M, den P_MN e); ``sums``, ``e``, ``delta``
    are :func:`_first_step` of the swapped chain, so S_j = Sigma_j / (e delta^j).
    """
    p_m, p_mn = chain.p_m, chain.p_mn
    den = lcm(p_m.den, p_mn.den * e)
    lift = [[den // (p_mn.den * e) * v for v in row] for row in p_mn.num]
    out = []
    for j in orders:
        f = den // p_m.den * delta**j
        prod = _product(lift, tuple(zip(*sums[j])))
        out.append([[f * b + v for b, v in zip(*rows)] for rows in zip(p_m.num, prod)])
    return out, den


_VARIABLES = ("N1", "R1", "Nbar1", "Rbar1")


def moment_recursive(chain: PartitionedChain, variable: str, m: int) -> RationalMatrix:
    """m-th moment of N_1 / R_1 / Nbar_1 / Rbar_1 by the recursive route.

    This is the designated oracle: it uses nothing but first-step analysis,
    so it is independent of every closed form it validates.  It is
    :func:`moment_k_convolved` at k = 1, which convolves nothing.
    """
    _check_orders(m)
    if variable not in _VARIABLES:
        raise PreconditionError(f"variable must be one of {_VARIABLES}, got {variable!r}")
    return moment_k_convolved(chain, variable[:-1], 1, m)


def _convolved(left: list, right: list, rounds: int, m: int) -> list[list[int]]:
    """Order m of ``left`` convolved ``rounds`` times with ``right``.

    Order j of a round, sum_i C(j,i) F_(j-i) G_i, is one fused product: the
    rows of the C(j,i) F_(j-i) side by side against the columns of
    G_0..G_j stacked, which are stacked once for all rounds.  Every round
    but the last forms the orders 0..m, the last order m only.
    """
    columns = (tuple(zip(*g)) for g in right)
    cols = list(accumulate(columns, lambda run, g: list(map(add, run, g))))
    for r in range(rounds):
        out = []
        for j in range(m if r == rounds - 1 else 0, m + 1):
            coeffs = [binom(j, i) for i in range(j + 1)]
            rows = [
                [c * v for c, f in zip(coeffs, reversed(slices)) for v in f]
                for slices in zip(*left[: j + 1])
            ]
            out.append(_product(rows, cols[j]))
        left = out
    return left[-1]


def moment_k_convolved(
    chain: PartitionedChain, variable: str, k: int, m: int
) -> RationalMatrix:
    """M_m(R_k) or M_m(N_k) by moment convolution over the recursive base.

    R_k = R_(k-1) + R_1 and N_k = N_(k-1) + Rbar_1 give
    M_m(R_k) = sum_j C(m,j) M_(m-j)(R_(k-1)) M_j(R_1)  and
    M_m(N_k) = sum_j C(m,j) M_(m-j)(N_(k-1)) M_j(Rbar_1),
    so N_1's narrow moments stay on the left.  Order j of N_1 is an integer
    over e delta^j (:func:`_first_step`), of R_1 or Rbar_1 over L delta^j
    (:func:`_r1_moments`), and of their convolution over e L delta^j, so the
    route runs on integers and reduces once.  At k = 1 only R_1's order m
    is formed.
    Valid for every chain; serves as the oracle for the commutable forms.
    """
    _check_orders(m, k)
    if variable not in ("N", "R", "Nbar", "Rbar"):
        raise PreconditionError(f"variable must be N, R, Nbar or Rbar, got {variable!r}")
    chain = chain.swapped() if variable.endswith("bar") else chain
    if variable[0] == "R":
        _, sums, e, delta = _first_step(chain.swapped(), m)
        orders = range(m if k == 1 else 0, m + 1)
        left, e_left = right, e_right = _r1_moments(chain, sums, e, delta, orders)
    else:
        left, sums, e_left, delta = _first_step(chain, m)
        if k > 1:
            right, e_right = _r1_moments(
                chain.swapped(), sums, e_left, delta, range(m + 1)
            )
    if k == 1:
        return RationalMatrix._reduced(left[-1], e_left * delta**m)
    num = _convolved(left, right, k - 1, m)
    return RationalMatrix._reduced(num, e_left * e_right ** (k - 1) * delta**m)


def b_power_sum(
    terms: Sequence[tuple[Sequence[int], RationalMatrix]],
    resolvent: RationalMatrix,
    scale: int,
) -> RationalMatrix:
    """sum_r sum_j (c_rj / scale) A^j V^j x_r for terms (c_r, x_r), V = (I-A)^-1.

    A V = V - I, so the sum is one polynomial sum_j (V-I)^j y_j with
    y_j = sum_r c_rj x_r, evaluated by Horner: one product per power, each
    only as wide as the x_r.  The Horner runs on integers: with x_r = X_r/e_r,
    e = lcm(e_r) and V = N/s, the step acc <- (N - s I) acc + s^(J-j) Y_j,
    Y_j = sum_r c_rj (e/e_r) X_r, keeps acc equal to s^(J-j) e times the
    partial sum, so the sum is acc / (s^J e scale), reduced once.  The
    closed forms pass weighted scaled integer rows (:func:`_passage_sum`)
    with their scale, and so form no Fraction at all.
    """
    den = lcm(*(x.den for _, x in terms))
    lifts = [den // x.den for _, x in terms]
    columns = list(zip_longest(*(c for c, _ in terms), fillvalue=0))
    # entry (i, l) of every X_r side by side, so Y_j is one dot product per entry
    entries = [list(zip(*rows)) for rows in zip(*(x.num for _, x in terms))]
    s = resolvent.den
    step = _minus_identity(resolvent.num, s)
    w = list(map(mul, columns[-1], lifts))
    acc = [[sum(map(mul, w, e)) for e in es] for es in entries]
    s_pow = 1
    for column in reversed(columns[:-1]):
        s_pow *= s
        w = [s_pow * c * lift for c, lift in zip(column, lifts)]
        cols = tuple(zip(*acc))
        acc = [
            [sum(map(mul, left, col)) + sum(map(mul, w, e)) for col, e in zip(cols, es)]
            for left, es in zip(step, entries)
        ]
    return RationalMatrix._reduced(acc, s_pow * den * scale)


def _horner(terms: list[int], a: int, c: int) -> tuple[int, int]:
    """The integer sum_j terms[j] a^j c^(J-j) by Horner in a, and c^J.

    J = len(terms) - 1.  Over c^J this is sum_j terms[j] w^j for w = a/c,
    which is how every scalar b-sum divides once.
    """
    total = terms[-1]
    c_pow = 1
    for t in reversed(terms[:-1]):
        c_pow *= c
        total = total * a + t * c_pow
    return total, c_pow


def _nb_weights(row: list[int], r: int) -> list[int]:
    """The negative-binomial weighting C(j+r-1, j) row[j], j = 0..len(row)-1.

    The coefficient runs as C(j+r, j+1) = C(j+r-1, j) (j+r) / (j+1), an
    exact integer step, which at r = 0 gives C(j-1, j) = [j = 0].
    """
    terms = []
    coeff = 1
    for j, b in enumerate(row):
        terms.append(coeff * b)
        coeff = coeff * (j + r) // (j + 1)
    return terms


def _nb_mixture(
    row: list[int], scale: int, w: Fraction, x: Fraction | int, n: int, r0: int
) -> Fraction:
    """sum_{r<=n} C(n, r) x^r (1-x)^(n-r) sum_j C(j+r+r0-1, j) b(m, j, k+r) w^j.

    ``row`` and ``scale`` are the scaled b row q^m b(m, ., k) of the base
    shift k and its q^m (:func:`msnlib.msn.msn_row_scaled` or a step of
    :func:`msnlib.msn.msn_row_sweep`); the rows of k+1..k+n are stepped
    from it (:func:`msnlib.msn.msn_shifts`).  n = 0, with the integer
    x = 0, is the plain negative-binomial sum of order r0.  The powers of x
    are combined before evaluation, so x = 0 and x = 1 stay well-defined.
    With x = a/d and w = a'/c in lowest terms, every term is an integer
    over d^n q^m c^m, the inner sum by Horner in a' (:func:`_horner`): one
    division in all.
    """
    a, d = x.numerator, x.denominator
    total = 0
    for r, row in enumerate(msn_shifts(row, n + 1)):
        inner, c_pow = _horner(_nb_weights(row, r + r0), w.numerator, w.denominator)
        total += binom(n, r) * a**r * (d - a) ** (n - r) * inner
    return Fraction(total, d**n * scale * c_pow)


def _nb_mixture_sums(
    w: Fraction, x: Fraction | int, n: int, r0: int, base: RationalLike
) -> Iterator[Fraction]:
    """:func:`_nb_mixture` at the base shift ``base`` for m = 0, 1, ...

    The base rows come from one :func:`msn_row_sweep`, so orders 0..m cost
    one sweep, and each order steps its n further shifts from its row.
    """
    for row, scale in msn_row_sweep(base):
        yield _nb_mixture(row, scale, w, x, n, r0)


def _listed(
    slots: dict, key: Hashable, m: int, sums: Callable[[], Iterator[Fraction]]
) -> list[Fraction]:
    """The list ``slots[key]`` of the values of the generator ``sums()``,
    extended to order m (the list may run longer).

    ``slots[key]`` holds the list and the generator that extends it, and is
    made, calling ``sums``, on first use.  A generator that raised is
    finished, so its entry is dropped and the next call starts afresh.  The
    list belongs to the slot's owner: read it, do not change it.
    """
    entry = slots.get(key)
    if entry is None:
        entry = slots[key] = ([], sums())
    values, gen = entry
    if len(values) <= m:
        try:
            values.extend(islice(gen, m + 1 - len(values)))
        except BaseException:
            del slots[key]
            raise
    return values


def moment_n1_closed(chain: PartitionedChain, m: int) -> RationalMatrix:
    """M_m(N_1): :func:`moment_nk_commutable` at k = 1, valid on every chain."""
    return moment_nk_commutable(chain, 1, m)


def moment_r1_closed(chain: PartitionedChain, m: int) -> RationalMatrix:
    """M_m(R_1): :func:`moment_rk_commutable` at k = 1, valid on every chain."""
    return moment_rk_commutable(chain, 1, m)


def _commutable_q(chain: PartitionedChain) -> tuple[RationalMatrix, RationalMatrix]:
    """Q = P_NM P_MN and Qbar = P_MN P_NM of an M- and Mbar-commutable chain,
    else a CommutabilityError naming the side that fails.

    The verdict, the pair or the message, is kept in the chain's slot, so the
    commutability test runs once per chain and Q and Qbar are formed once.
    """
    verdict = chain._slots.get("commutable")
    if verdict is None:
        if not is_commutable(chain, "M"):
            verdict = "chain is not M-commutable"
        elif not is_commutable(chain, "Mbar"):
            verdict = "chain is not Mbar-commutable"
        else:
            verdict = chain.p_nm @ chain.p_mn, chain.p_mn @ chain.p_nm
        chain._slots["commutable"] = verdict
    if isinstance(verdict, str):
        raise CommutabilityError(verdict)
    return verdict


def _passage_sum(v, h, g, b, m: int, shift: int, weights: list[int]) -> RationalMatrix:
    """sum_{r<k} w_r sum_j C(j+r, j) b(m, j, shift+r) (V-I)^j x_r over
    x_r = V^(r+1) H G^r B^(k-1-r), k = len(weights): one :func:`b_power_sum`.

    Both commutable forms are this sum.  The b rows of shift+1..shift+k-1
    are stepped from the one row of ``shift`` (:func:`msn_shifts`), over
    its one scale.  Zero powers are skipped, not multiplied in as the
    identity, so at k = 1 V H is the one product.
    """
    k = len(weights)
    row, scale = msn_row_scaled(m, shift)
    terms = []
    left = v @ h  # V^(r+1) H G^r
    for r, (w, row) in enumerate(zip(weights, msn_shifts(row, k))):
        if r:
            left = v @ left @ g
        x = left if r == k - 1 else left @ b ** (k - 1 - r)
        terms.append(([w * c for c in _nb_weights(row, r + 1)], x))
    return b_power_sum(terms, v, scale)


def moment_rk_commutable(chain: PartitionedChain, k: int, m: int) -> RationalMatrix:
    """Closed form for M_m(R_k) on M- and Mbar-commutable chains.

    k^m P_M^k + sum_{r=1}^{k} C(k,r) P_M^(k-r) P_MN Q^(r-1)
        * sum_j C(j+r-1, j) b(m, j, k+r) P_N^j (I-P_N)^(-j-r) P_NM.

    A return is a first step out of M and a passage back, and the sum is
    P_MN S with Qbar = P_MN P_NM and

        S = sum_{r<k} C(k, r+1) sum_j C(j+r, j) b(m, j, k+1+r)
            * P_N^j (I-P_N)^(-(j+r+1)) P_NM Qbar^r P_M^(k-1-r).

    Two commutations move the factors: Q commutes with P_N (the Mbar side),
    so Q^r passes the inner f(P_N) and leaves as P_NM Qbar^r, and P_M
    commutes with the round trips P_MN f(P_N) P_NM and Qbar (the M side).
    S is :func:`_passage_sum` with V = (I-P_N)^-1, H = P_NM, G = Qbar, B = P_M.
    At k = 1 nothing moves: this is :func:`moment_r1_closed`, P_M + P_MN
    sum_j b(m, j, 2) P_N^j (I-P_N)^(-j-1) P_NM, which holds on every chain,
    so commutability is required only for k >= 2.
    """
    _check_orders(m, k)
    qbar = _commutable_q(chain)[1] if k >= 2 else None
    weights = [binom(k, r + 1) for r in range(k)]
    v = chain.complement_resolvent
    s = _passage_sum(v, chain.p_nm, qbar, chain.p_m, m, k + 1, weights)
    return combine([(qpow(k, m), chain.p_m**k), (1, chain.p_mn @ s)])


def moment_rk_scalar(chain: PartitionedChain, k: int, m: int) -> Fraction:
    """M_m(R_k) when |M| = 1 and P_N has constant row sums s_N.

    sum_{r=0}^{k} C(k,r) p^r (1-p)^(k-r)
        * sum_j C(j+r-1, j) b(m, j, k+r) (s_N / (1-s_N))^j
    with p = 1 - P_M: the mixture :func:`_nb_mixture` over the rows of the
    shifts k..2k, read from the chain's list of this form at k
    (:func:`_listed` over :func:`_nb_mixture_sums`).
    """
    _check_orders(m, k)
    if chain.p_m.rows != 1:
        raise PreconditionError(f"requires |M| = 1, got |M| = {chain.p_m.rows}")
    if chain.s_n is None:
        raise PreconditionError("requires constant row sums in P_N")
    if chain.s_n == 1:
        raise PreconditionError("requires s_N != 1")
    return _listed(
        chain._slots,
        ("rk_scalar", k),
        m,
        lambda: _nb_mixture_sums(
            chain.s_n / (1 - chain.s_n), 1 - chain.p_m[0, 0], k, 0, k
        ),
    )[m]


def moment_renewal(chain: PartitionedChain, k: int, m: int) -> Fraction:
    """M_m(Rbar_k) for the renewal case: |N| = 1, P_N = (0), constant s_M.

    sum_j C(j+k-1, j) b(m, j, 2k) (s_M / (1-s_M))^j, the one-row
    mixture :func:`_nb_mixture` of order k, read from the chain's list of
    this form at k (:func:`_listed` over :func:`_nb_mixture_sums`).
    """
    _check_orders(m, k)
    if chain.p_n.rows != 1:
        raise PreconditionError(f"requires |Mbar| = 1, got {chain.p_n.rows}")
    if chain.p_n[0, 0] != 0:
        raise PreconditionError("requires P_Mbar = (0)")
    if chain.s_m is None:
        raise PreconditionError("requires constant row sums in P_M")
    if chain.s_m == 1:
        raise PreconditionError("requires s_M != 1")
    return _listed(
        chain._slots,
        ("renewal", k),
        m,
        lambda: _nb_mixture_sums(chain.s_m / (1 - chain.s_m), 0, 0, k, 2 * k),
    )[m]


def moment_nk_commutable(chain: PartitionedChain, k: int, m: int) -> RationalMatrix:
    """Closed form for M_m(N_k) on M- and Mbar-commutable chains.

    sum_{r=0}^{k-1} C(k-1, r) sum_j b(m, j, k+r) C(j+r, j)
        * P_M^j (I-P_M)^(-(j+r+1)) P_MN P_N^(k-1-r) Q^r.

    Q commutes with P_N, so this is :func:`_passage_sum` with
    V = (I-P_M)^-1, H = P_MN, G = Q and B = P_N.  At k = 1 this is
    :func:`moment_n1_closed`, sum_j b(m, j, 1) P_M^j (I-P_M)^(-j-1) P_MN,
    which holds on every chain, so commutability is required only for k >= 2.
    """
    _check_orders(m, k)
    q = _commutable_q(chain)[0] if k >= 2 else None
    weights = [binom(k - 1, r) for r in range(k)]
    return _passage_sum(chain.resolvent, chain.p_mn, q, chain.p_n, m, k, weights)


def moment_nk_rowsum(chain: PartitionedChain, k: int, m: int) -> RationalMatrix:
    """M_m(N_k) when |N| = 1 with P_N = (q) and constant row sums s_M.

    A scalar times the all-ones column over M:
    sum_{r=0}^{k-1} C(k-1, r) (1-q)^r q^(k-1-r)
        * sum_j b(m, j, k+r) C(j+r, j) (s_M / (1-s_M))^j,
    the mixture :func:`_nb_mixture` with x = 1-q, read from the chain's
    list of this form at k (:func:`_listed` over :func:`_nb_mixture_sums`).
    The factor ((1-q)/q)^r q^(k-1) is expanded so q = 0 stays well-defined
    (only the r = k-1 term survives there).
    """
    _check_orders(m, k)
    if chain.p_n.rows != 1:
        raise PreconditionError(f"requires |Mbar| = 1, got {chain.p_n.rows}")
    if chain.s_m is None:
        raise PreconditionError("requires constant row sums in P_M")
    if chain.s_m == 1:
        raise PreconditionError("requires s_M != 1")
    value = _listed(
        chain._slots,
        ("nk_rowsum", k),
        m,
        lambda: _nb_mixture_sums(
            chain.s_m / (1 - chain.s_m), 1 - chain.p_n[0, 0], k - 1, 1, k
        ),
    )[m]
    # a reduced Fraction is a canonical numerator and denominator
    column = ((value.numerator,),) * chain.p_m.rows
    return RationalMatrix._raw(column, value.denominator)


def moment_anb(p: RationalLike, q: RationalLike, k: int, m: int) -> Fraction:
    """m-th raw moment of the trial count to the k-th success when the
    success probability alternates: p after a failure (and initially), q
    after a success.

    sum_{r=0}^{k-1} C(k-1, r) (1-q)^r q^(k-1-r)
        * sum_j b(m, j, k+r) C(j+r, j) ((1-p)/p)^j.
    """
    p = as_rational(p)
    q = as_rational(q)
    if not 0 < p <= 1:
        raise PreconditionError(f"need 0 < p <= 1, got p = {p}")
    if not 0 <= q < 1:
        raise PreconditionError(f"need 0 <= q < 1, got q = {q}")
    _check_orders(m, k)
    return _nb_mixture(*msn_row_scaled(m, k), (1 - p) / p, 1 - q, k - 1, 1)


def moment_nb(p: RationalLike, k: int, m: int) -> Fraction:
    """m-th raw moment of the negative binomial (trial-counting: support
    starts at k, i.e. the number of Bernoulli(p) trials to the k-th success).

    sum_j C(j+k-1, k-1) b(m, j, k) ((1-p)/p)^j, the one-row mixture
    :func:`_nb_mixture` of order k.
    """
    p = as_rational(p)
    if not 0 < p <= 1:
        raise PreconditionError(f"need 0 < p <= 1, got p = {p}")
    _check_orders(m, k)
    return _nb_mixture(*msn_row_scaled(m, k), (1 - p) / p, 0, 0, k)
