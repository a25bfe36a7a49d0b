"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed and the standard library, so the
same seed always yields the same chains and specs.  Matrices are returned as
lists of lists of ``Fraction``; the workloads hand them to the library, which
builds its own objects from them.

The seed draws numerators only.  Sizes and denominators are fixed by the
caller, so the cost of exact arithmetic on the inputs, which grows with
their bit lengths, is about the same for every seed.

Chains are fully positive wherever a construction allows it, so every
diagonal block is strictly substochastic and every resolvent exists.
"""

from __future__ import annotations

import random
from fractions import Fraction


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def primes_between(low: int, high: int) -> list[int]:
    return [p for p in range(low, high + 1) if is_prime(p)]


def composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """`total` split into `parts` strictly positive integers."""
    if parts == 0:
        return []
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0, *cuts, total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def dense_matrix(rng: random.Random, size: int) -> list[list[Fraction]]:
    """A fully positive stochastic matrix.  Row r has the r-th prime above
    `size` (cycling through those up to 2 * size + 8) as its denominator, so
    rows do not share factors."""
    primes = primes_between(size + 1, 2 * size + 8)
    return [
        [Fraction(x, primes[r % len(primes)]) for x in composition(rng, primes[r % len(primes)], size)]
        for r in range(size)
    ]


def scalar_block_matrix(rng: random.Random, m_size: int, n_size: int) -> list[list[Fraction]]:
    """Both diagonal blocks are multiples of the identity, so the chain is
    commutable on both sides whatever the off-diagonal blocks are."""
    den = primes_between(4 * (m_size + n_size), 8 * (m_size + n_size))[0]
    p_num = rng.randint(1, den - n_size)
    q_num = rng.randint(1, den - m_size)
    rows = []
    for i in range(m_size):
        row = [Fraction(p_num if j == i else 0, den) for j in range(m_size)]
        row += [Fraction(x, den) for x in composition(rng, den - p_num, n_size)]
        rows.append(row)
    for i in range(n_size):
        row = [Fraction(x, den) for x in composition(rng, den - q_num, m_size)]
        row += [Fraction(q_num if j == i else 0, den) for j in range(n_size)]
        rows.append(row)
    return rows


def scalar_m_matrix(rng: random.Random, n_size: int) -> list[list[Fraction]]:
    """|M| = 1 and P_N with constant row sums s_N < 1 (the scalar R_k form)."""
    den = primes_between(4 * n_size + 5, 8 * n_size + 20)[0]
    stay = rng.randint(1, den - n_size - 1)
    s_num = rng.randint(n_size, den - n_size)
    rows = [[Fraction(stay, den)] + [Fraction(x, den) for x in composition(rng, den - stay, n_size)]]
    for _ in range(n_size):
        rows.append([Fraction(den - s_num, den)] + [Fraction(x, den) for x in composition(rng, s_num, n_size)])
    return rows


def single_n_matrix(rng: random.Random, m_size: int, q_zero: bool) -> list[list[Fraction]]:
    """|N| = 1, constant row sums s_M in P_M, and P_N = (q); q = 0 is the
    renewal case, q > 0 the alternating passage case."""
    den = primes_between(4 * m_size + 5, 8 * m_size + 20)[0]
    s_num = rng.randint(m_size, den - 1)
    q_num = 0 if q_zero else rng.randint(1, den - m_size - 1)
    rows = [
        [Fraction(x, den) for x in composition(rng, s_num, m_size)] + [Fraction(den - s_num, den)]
        for _ in range(m_size)
    ]
    rows.append([Fraction(x, den) for x in composition(rng, den - q_num, m_size)] + [Fraction(q_num, den)])
    return rows


def fixed_exit_matrix(rng: random.Random, m_size: int, n_size: int, exit_num: int, den: int) -> list[list[Fraction]]:
    """Every row moves into N = the last n_size states with probability
    exit_num / den, so the time to the k-th landing in N has the same law
    for every seed; only the split within M and within N is drawn."""
    return [
        [Fraction(x, den) for x in composition(rng, den - exit_num, m_size) + composition(rng, exit_num, n_size)]
        for _ in range(m_size + n_size)
    ]


def probability(rng: random.Random, den: int = 7) -> Fraction:
    """A rational strictly inside (0, 1) with denominator `den` (a prime)."""
    return Fraction(rng.randint(1, den - 1), den)


def substochastic_block(rng: random.Random, size: int) -> list[list[Fraction]]:
    """Nonnegative rows each summing to less than 1 (a phase-type block)."""
    den = primes_between(3 * size + 2, 6 * size + 12)[0]
    rows = []
    for _ in range(size):
        mass = rng.randint(size, den - 1)
        rows.append([Fraction(x, den) for x in composition(rng, mass, size)])
    return rows


def distribution_specs(rng: random.Random, phase_size: int = 3) -> list[dict]:
    """One spec of every distribution type, in the CLI's JSON schema
    (rationals as strings)."""

    def s(v: Fraction) -> str:
        return str(v)

    p, q = probability(rng, 7), probability(rng, 5)
    a = [Fraction(x, 11) for x in composition(rng, 11, phase_size + 1)][:phase_size]
    return [
        {"type": "binomial", "n": 8, "p": s(probability(rng, 7))},
        {"type": "poisson", "lambda": s(Fraction(rng.choice([a for a in range(1, 14) if a != 7]), 7))},
        {"type": "negbinomial", "p": s(p), "k": 3},
        {"type": "altnegbinomial", "p": s(p), "q": s(q), "k": 3},
        {"type": "uniform", "N": 9},
        {
            "type": "phasetype",
            "a": [s(v) for v in a],
            "A": [[s(v) for v in row] for row in substochastic_block(rng, phase_size)],
        },
        {"type": "recurrence", "P": [[s(v) for v in row] for row in scalar_m_matrix(rng, 2)], "M": [1]},
    ]


def chain_json(rows: list[list[Fraction]], m: list[int]) -> dict:
    """The CLI's chain file schema."""
    return {"P": [[str(v) for v in row] for row in rows], "M": m}
