"""Shared chain builders for the test suite.

All randomized chains are drawn from seeded ``random.Random`` instances so
every run sees the same matrices.  Entries are kept strictly positive with
denominator 12 unless a construction needs otherwise, which guarantees both
diagonal blocks are strictly substochastic (their resolvents exist).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

import pytest

from msnlib import PartitionedChain, RationalMatrix, partition


def positive_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split `total` into `parts` strictly positive integers, uniformly at random."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def compositions(total: int, count: int, positive_prefix: int = 0) -> Iterator[tuple[int, ...]]:
    """All tuples of ``count`` nonnegative ints summing to ``total``, the first
    ``positive_prefix`` of them >= 1, one by one: the reference walk for the
    sums the identity battery forms as binomial convolutions."""
    if count == 0:
        if total == 0:
            yield ()
        return

    def rec(remaining: int, slots: int, need_positive: int):
        if slots == 1:
            if remaining >= (1 if need_positive > 0 else 0):
                yield (remaining,)
            return
        low = 1 if need_positive > 0 else 0
        for first in range(low, remaining + 1):
            for rest in rec(remaining - first, slots - 1, max(need_positive - 1, 0)):
                yield (first,) + rest

    yield from rec(total, count, positive_prefix)


def random_chain(
    rng: random.Random, m_size: int, n_size: int, denom: int = 12
) -> PartitionedChain:
    """A fully positive stochastic matrix split as (m_size, n_size)."""
    size = m_size + n_size
    assert size < denom
    rows = [
        [Fraction(x, denom) for x in positive_composition(rng, denom, size)]
        for _ in range(size)
    ]
    return partition(RationalMatrix(rows), list(range(1, m_size + 1)))


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def dense_prime_chain(rng: random.Random, size: int) -> PartitionedChain:
    """A fully positive stochastic matrix split by its first half of states.

    Row r has the r-th prime above ``size`` (cycling through those up to
    2 * size + 8) as its denominator, so rows share no factor and the
    shared denominator of a block is the product of its rows' primes.
    """
    primes = [p for p in range(size + 1, 2 * size + 9) if _is_prime(p)]
    rows = []
    for r in range(size):
        den = primes[r % len(primes)]
        rows.append([Fraction(x, den) for x in positive_composition(rng, den, size)])
    return partition(RationalMatrix(rows), list(range(1, size // 2 + 1)))


def scalar_block_chain(
    rng: random.Random, m_size: int, n_size: int, denom: int = 12
) -> PartitionedChain:
    """Both diagonal blocks are scalar multiples of I, so the chain is
    commutable on both sides whatever the off-diagonal blocks are."""
    p_num = rng.randint(1, denom - n_size)
    q_num = rng.randint(1, denom - m_size)
    rows = []
    for i in range(m_size):
        off = positive_composition(rng, denom - p_num, n_size)
        row = [Fraction(p_num if j == i else 0, denom) for j in range(m_size)]
        row += [Fraction(x, denom) for x in off]
        rows.append(row)
    for i in range(n_size):
        off = positive_composition(rng, denom - q_num, m_size)
        row = [Fraction(x, denom) for x in off]
        row += [Fraction(q_num if j == i else 0, denom) for j in range(n_size)]
        rows.append(row)
    return partition(RationalMatrix(rows), list(range(1, m_size + 1)))


def circulant_block_chain(
    rng: random.Random, m_size: int, n_size: int, denom: int = 12
) -> PartitionedChain:
    """Circulant diagonal blocks with positive entries and constant
    off-diagonal blocks.

    A circulant block has equal row and column sums, so it commutes with
    the all-ones square matrix, and every round trip P_MN f(P_N) P_NM is a
    multiple of that matrix: the chain is commutable on both sides, while
    neither diagonal block is a multiple of I.
    """

    def circulant(first: list[int]) -> list[list[Fraction]]:
        n = len(first)
        return [
            [Fraction(first[(j - i) % n], denom) for j in range(n)] for i in range(n)
        ]

    p_m = circulant(positive_composition(rng, rng.randint(m_size, denom - 1), m_size))
    p_n = circulant(positive_composition(rng, rng.randint(n_size, denom - 1), n_size))
    rows = [row + [(1 - sum(row)) / n_size] * n_size for row in p_m]
    rows += [[(1 - sum(row)) / m_size] * m_size + row for row in p_n]
    return partition(RationalMatrix(rows), list(range(1, m_size + 1)))


def rowsum_chain(
    rng: random.Random, n_size: int, denom: int = 12
) -> PartitionedChain:
    """|M| = 1 and P_N with constant row sums (hypothesis of the scalar
    recurrence form)."""
    p_num = rng.randint(n_size, denom - 1)
    s_num = rng.randint(0, denom - n_size)
    rows = [[Fraction(denom - p_num, denom)] + [
        Fraction(x, denom) for x in positive_composition(rng, p_num, n_size)
    ]]
    for _ in range(n_size):
        inner = (
            positive_composition(rng, s_num, n_size)
            if s_num >= n_size
            else ([s_num] + [0] * (n_size - 1) if n_size else [])
        )
        rng.shuffle(inner)
        back = positive_composition(rng, denom - s_num, 1)
        rows.append(
            [Fraction(back[0], denom)] + [Fraction(x, denom) for x in inner]
        )
    return partition(RationalMatrix(rows), [1])


def renewal_chain(
    rng: random.Random, m_size: int, denom: int = 12, absorbing_loop: bool = False
) -> PartitionedChain:
    """|Mbar| = 1 with P_Mbar = (q) and constant row sums in P_M.

    absorbing_loop=False gives q = 0 (the renewal hypothesis); True draws a
    positive q (the alternating passage-time hypothesis).
    """
    s_num = rng.randint(1, denom - 1)
    q_num = rng.randint(1, denom - m_size) if absorbing_loop else 0
    rows = []
    for _ in range(m_size):
        inner = positive_composition(rng, s_num, m_size) if s_num >= m_size else None
        if inner is None:
            inner = [s_num] + [0] * (m_size - 1)
            rng.shuffle(inner)
        rows.append([Fraction(x, denom) for x in inner] + [Fraction(denom - s_num, denom)])
    back = positive_composition(rng, denom - q_num, m_size)
    rows.append([Fraction(x, denom) for x in back] + [Fraction(q_num, denom)])
    return partition(RationalMatrix(rows), list(range(1, m_size + 1)))


def anb_chain(p: Fraction, q: Fraction) -> PartitionedChain:
    """The 2-state chain behind the alternating trial count."""
    return partition(
        RationalMatrix([[1 - p, p], [1 - q, q]]), [1]
    )


@pytest.fixture
def two_state_chain() -> PartitionedChain:
    """The reference chain [[1/2, 1/2], [2/3, 1/3]] with M = {1}."""
    return anb_chain(Fraction(1, 2), Fraction(1, 3))
