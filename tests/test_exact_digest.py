"""A committed digest of exact outputs: a refactor must not move any value.

Each section writes its values as canonical ``numerator/denominator`` text,
one ``label=value`` line per value, and hashes the lines with sha256.  The
sections cover the law moments (``raw_moments`` and ``central_closed`` of
every law type), the five scalar negative-binomial forms of
:mod:`msnlib.markov`, its four matrix closed forms, its recursive and
convolved routes with the resolvents they read, and the two
factorial-moment transforms.  Inputs are seeded, and only public names are
read, so a change to how a value is computed leaves the text alone and a
change to the value itself shows up as a changed hash in its section.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from conftest import (
    anb_chain,
    dense_prime_chain,
    random_chain,
    renewal_chain,
    rowsum_chain,
    scalar_block_chain,
)
from msnlib import (
    AltNegBinomial,
    Binomial,
    DiscreteUniform,
    NegBinomial,
    PhaseType,
    Poisson,
    RationalMatrix,
    Recurrence,
    central_closed,
    central_via_factorial,
    moment_anb,
    moment_k_convolved,
    moment_n1_closed,
    moment_nb,
    moment_nk_commutable,
    moment_nk_rowsum,
    moment_r1_closed,
    moment_recursive,
    moment_renewal,
    moment_rk_commutable,
    moment_rk_scalar,
    raw_from_factorial,
    raw_moments,
)

DIGESTS = {
    "laws": "d78199b2d94380664362e1560338a31357f6c195e0ec24a047ecfe6313a510a0",
    "scalar_forms": "8429b99249daafe42fd188d520f6a7e0534d5d703adb8ba03b35f7f98c219f7f",
    "matrix_forms": "3733dec7cd1c92d9c385cf841cc7f4324ea5a046af2985dea5c342404ab8caf6",
    "factorial": "d0e3a3ca7ea3da4a98eed7167146f82144d69395274488751a917bf3e1d83b93",
    "recursive_routes": "03ab597f06a2ac6884abdbb9373d217baf0b0f7fb3df4fd549f7a38ac534b062",
}

SEEDS = range(10)
LAW_ORDERS = 24
SCALAR_KS = range(1, 4)
SCALAR_ORDERS = range(13)


def text(value) -> str:
    """Canonical exact text: num/den of a scalar, rows of entries of a matrix."""
    if isinstance(value, RationalMatrix):
        return ";".join(",".join(text(v) for v in row) for row in value.entries)
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def probability(rng: random.Random, den: int = 7) -> Fraction:
    """A probability in (0, 1]."""
    return Fraction(rng.randint(1, den), den)


def phase_type(rng: random.Random, dim: int) -> PhaseType:
    """A positive block of row sums below 1, restarted by a positive row."""
    rows = [
        [Fraction(rng.randint(1, 3), 4 * dim) for _ in range(dim)] for _ in range(dim)
    ]
    a = [Fraction(rng.randint(0, 3), 3 * dim) for _ in range(dim)]
    return PhaseType(a=RationalMatrix.row_vector(a), mat=RationalMatrix(rows))


def law_specs(rng: random.Random) -> list:
    p, q = probability(rng), probability(rng) - Fraction(1, 7)
    return [
        Binomial(rng.randint(1, 9), p),
        Poisson(Fraction(rng.randint(1, 20), rng.randint(1, 6))),
        NegBinomial(p, rng.randint(1, 4)),
        NegBinomial(Fraction(1), rng.randint(1, 3)),
        AltNegBinomial(p, q, rng.randint(1, 4)),
        AltNegBinomial(probability(rng), Fraction(0), rng.randint(1, 4)),
        DiscreteUniform(rng.randint(1, 9)),
        phase_type(rng, rng.randint(1, 3)),
        Recurrence(random_chain(rng, 1, rng.randint(1, 3))),
    ]


def law_lines() -> list[str]:
    # raw moments ascending in one call, central moments descending one by one
    lines = []
    for seed in SEEDS:
        for i, spec in enumerate(law_specs(random.Random(seed))):
            at = f"{type(spec).__name__} {seed}.{i}"
            raw = raw_moments(spec, LAW_ORDERS)
            lines += [f"{at} raw {m}={text(v)}" for m, v in enumerate(raw)]
            for m in reversed(range(LAW_ORDERS + 1)):
                lines.append(f"{at} central {m}={text(central_closed(spec, m))}")
    return lines


def scalar_lines() -> list[str]:
    rng = random.Random(2024)
    ps = [Fraction(1), Fraction(3, 7), Fraction(5, 6)]
    pqs = [
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(2, 5), Fraction(0)),
        (Fraction(1), Fraction(3, 4)),
    ]
    renewals = [renewal_chain(rng, size) for size in (1, 2, 3)]
    passages = [renewal_chain(rng, size, absorbing_loop=True) for size in (1, 2)]
    passages.append(renewal_chain(rng, 2))
    recurrences = [rowsum_chain(rng, size) for size in (1, 2, 3)]
    recurrences.append(anb_chain(Fraction(1), Fraction(0)))
    lines = []
    for k in SCALAR_KS:
        for m in SCALAR_ORDERS:
            at = f"k={k} m={m}"
            lines += [f"nb {p} {at}={text(moment_nb(p, k, m))}" for p in ps]
            lines += [f"anb {p} {q} {at}={text(moment_anb(p, q, k, m))}" for p, q in pqs]
            for i, chain in enumerate(renewals):
                lines.append(f"renewal {i} {at}={text(moment_renewal(chain, k, m))}")
            for i, chain in enumerate(passages):
                lines.append(f"nk_rowsum {i} {at}={text(moment_nk_rowsum(chain, k, m))}")
            for i, chain in enumerate(recurrences):
                lines.append(f"rk_scalar {i} {at}={text(moment_rk_scalar(chain, k, m))}")
    return lines


def matrix_lines() -> list[str]:
    lines = []
    for seed in SEEDS:
        rng = random.Random(seed)
        chain = random_chain(rng, rng.randint(1, 3), rng.randint(1, 3))
        for m in range(9):
            lines.append(f"n1 {seed} m={m}={text(moment_n1_closed(chain, m))}")
            lines.append(f"r1 {seed} m={m}={text(moment_r1_closed(chain, m))}")
        chain = scalar_block_chain(rng, rng.randint(1, 3), rng.randint(1, 3))
        for k in range(1, 4):
            for m in range(7):
                at = f"{seed} k={k} m={m}"
                lines.append(f"nk {at}={text(moment_nk_commutable(chain, k, m))}")
                lines.append(f"rk {at}={text(moment_rk_commutable(chain, k, m))}")
    return lines


def route_chains() -> list:
    """Seeded chains of every conftest shape, dense prime-row chains included."""
    rng = random.Random(18)
    chains = [anb_chain(Fraction(1, 2), Fraction(1, 3))]
    for _ in range(3):
        chains.append(random_chain(rng, rng.randint(1, 3), rng.randint(1, 3)))
        chains.append(scalar_block_chain(rng, rng.randint(1, 3), rng.randint(1, 3)))
    chains += [rowsum_chain(rng, 3), renewal_chain(rng, 3)]
    chains.append(renewal_chain(rng, 2, absorbing_loop=True))
    chains += [dense_prime_chain(rng, size) for size in (5, 8, 11, 16)]
    return chains


def recursive_lines() -> list[str]:
    lines = []
    for i, chain in enumerate(route_chains()):
        for label, block in (("I-P_M", chain.p_m), ("I-P_N", chain.p_n)):
            eye = RationalMatrix.identity(block.rows)
            lines.append(f"{i} inverse {label}={text((eye - block).inverse())}")
        for variable in ("N1", "R1", "Nbar1", "Rbar1"):
            for m in range(7):
                value = moment_recursive(chain, variable, m)
                lines.append(f"{i} {variable} m={m}={text(value)}")
        for variable in ("N", "R", "Nbar", "Rbar"):
            for k in range(1, 4):
                for m in range(6):
                    value = moment_k_convolved(chain, variable, k, m)
                    lines.append(f"{i} {variable} k={k} m={m}={text(value)}")
    return lines


def factorial_lines() -> list[str]:
    lines = []
    for seed in SEEDS:
        rng = random.Random(seed)
        factorial = [Fraction(1)] + [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(12)
        ]
        raw = raw_from_factorial(factorial)
        lines += [f"raw {seed} {m}={text(v)}" for m, v in enumerate(raw)]
        for m in range(len(factorial)):
            value = central_via_factorial(factorial, m)
            lines.append(f"central {seed} {m}={text(value)}")
    return lines


def test_exact_values_match_the_committed_digest():
    got = {
        "laws": digest(law_lines()),
        "scalar_forms": digest(scalar_lines()),
        "matrix_forms": digest(matrix_lines()),
        "factorial": digest(factorial_lines()),
        "recursive_routes": digest(recursive_lines()),
    }
    assert got == DIGESTS
