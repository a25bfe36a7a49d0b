"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion here is exact (zero tolerance) except the Monte Carlo
criterion, which is a 5-standard-error statistical bound by design.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import math
import random
import time
from fractions import Fraction

from conftest import (
    anb_chain,
    random_chain,
    renewal_chain,
    rowsum_chain,
    scalar_block_chain,
)
from msnlib.distributions import (
    Binomial,
    DiscreteUniform,
    Poisson,
    central_closed,
    central_from_raw,
    raw_moments,
)
from msnlib.identities import K_SET, run_identity_suite
from msnlib.linalg import RationalMatrix
from msnlib.markov import (
    moment_anb,
    moment_k_convolved,
    moment_n1_closed,
    moment_nb,
    moment_nk_commutable,
    moment_nk_rowsum,
    moment_recursive,
    moment_renewal,
    moment_r1_closed,
    moment_rk_commutable,
    moment_rk_scalar,
)
from msnlib.msn import msn_direct, msn_shift, msn_table, stirling2_triangle, surjection_count
from msnlib.msn1 import msn1_table
from msnlib.simulate import SimConfig, simulate


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# per-identity case counts of the default battery, i_max = order = 12
BATTERY_CASES = {
    "a6": 117, "a7": 117, "a8": 1521, "a10": 1521, "a11": 1521, "a12": 1521,
    "a12a": 1521, "a12b": 1521, "a13": 702, "a14": 117, "a15": 117, "a16": 169,
    "a17": 47385, "a18": 3276, "a19": 1521, "a20": 1521, "a21": 13689,
    "a23": 1404, "a24": 1521, "a25": 144, "a26": 117, "a27": 117, "a28": 13,
    "a29": 819, "a29a": 819, "a30": 10647, "a31": 10647, "a32": 91, "a33": 156,
    "a34": 1183, "a36": 90, "a37": 216, "a38": 171, "k_i": 72, "k_i_l": 288,
    "n1": 1521, "n2": 42, "n3": 1521, "n30": 1690, "nonneg": 455, "comb": 288,
    "sn2_k0": 66, "a46": 5346, "a46_matrix": 9, "ogf": 702, "egf": 546,
    "a41": 216, "a42": 405, "bgf": 243, "a44": 243,
}


def test_c1_identity_battery():
    started = time.monotonic()
    results = run_identity_suite(i_max=12, k_set=K_SET, order=12)
    elapsed = time.monotonic() - started
    failed = [r for r in results if not r.ok]
    assert not failed, failed
    assert elapsed < 60.0
    total = sum(r.cases for r in results)
    assert {r.label: r.cases for r in results} == BATTERY_CASES
    assert total == 119665
    reduced = run_identity_suite(i_max=8, k_set=(1,), order=8)
    assert all(r.ok for r in reduced)
    assert sum(r.cases for r in reduced) == 7531
    _report("1 identity-battery", f"{len(results)} identities, {total} cases, {elapsed:.1f}s")


def test_c2_stirling_cross_check():
    tri = stirling2_triangle(20)
    for i in range(21):
        for j in range(21):
            s = tri[i][j] if j <= i else 0
            assert msn_direct(i, j, 0) == s * math.factorial(j)
    for k in range(6):
        tab = msn_table(12, k)
        for i in range(13):
            for j in range(13):
                direct = msn_direct(i, j, k)
                assert tab.value(i, j) == direct
                assert msn_shift(i, j, k) == direct
    _report("2 stirling-cross-check", "i,j <= 20 vs triangle; triple route k <= 5")


def test_c3_inversion_matrix():
    top = 10
    ident = RationalMatrix.identity(top + 1)
    for k in K_SET:
        btab = msn_table(top, k)
        ctab = msn1_table(top, k)
        b_mat = RationalMatrix(
            [
                [btab.value(i, r) / math.factorial(r) for r in range(top + 1)]
                for i in range(top + 1)
            ]
        )
        c_mat = RationalMatrix(
            [[ctab.c(r, j) if j <= r else 0 for j in range(top + 1)] for r in range(top + 1)]
        )
        assert b_mat @ c_mat == ident
    _report("3 inversion", f"B @ C = I at i_max = 10 for {len(K_SET)} k values")


def test_c4_combinatorial_oracle():
    started = time.monotonic()
    cases = 0
    for j in range(8):
        for k in range(8 - j):
            for i in range(8):
                assert msn_direct(i, j, k) == surjection_count(i, j, k)
                cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report("4 combinatorial-oracle", f"{cases} brute-force counts, {elapsed:.1f}s")


def test_c5_markov_closed_forms():
    started = time.monotonic()
    rng = random.Random(52_2024)

    for _ in range(20):
        c = random_chain(rng, rng.randint(1, 4), rng.randint(1, 4))
        for m in range(7):
            assert moment_n1_closed(c, m) == moment_recursive(c, "N1", m)
            assert moment_r1_closed(c, m) == moment_recursive(c, "R1", m)

    commutable = [
        anb_chain(Fraction(1, 2), Fraction(1, 3)),
        anb_chain(Fraction(3, 4), Fraction(1, 4)),
        scalar_block_chain(rng, 2, 2),
        scalar_block_chain(rng, 1, 3),
        scalar_block_chain(rng, 3, 2),
    ]
    for c in commutable:
        for k in range(1, 5):
            for m in range(6):
                assert moment_rk_commutable(c, k, m) == moment_k_convolved(c, "R", k, m)
                assert moment_nk_commutable(c, k, m) == moment_k_convolved(c, "N", k, m)

    for n_size in (1, 2, 3):
        c = rowsum_chain(rng, n_size)
        for k in range(1, 5):
            for m in range(6):
                assert moment_rk_scalar(c, k, m) == moment_k_convolved(c, "R", k, m)[0, 0]

    for m_size in (1, 2, 3):
        c = renewal_chain(rng, m_size)
        for k in range(1, 5):
            for m in range(6):
                assert moment_renewal(c, k, m) == moment_k_convolved(c, "Rbar", k, m)[0, 0]

    for m_size in (1, 2, 3):
        c = renewal_chain(rng, m_size, absorbing_loop=True)
        for k in range(1, 5):
            for m in range(6):
                assert moment_nk_rowsum(c, k, m) == moment_k_convolved(c, "N", k, m)

    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _report("5 markov-closed-forms", f"20 random + 11 hypothesis chains, {elapsed:.1f}s")


def test_c6_nb_anb():
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
        for k in range(1, 6):
            mean = moment_nb(p, k, 1)
            var = moment_nb(p, k, 2) - mean**2
            assert mean == k / p
            assert var == k * (1 - p) / p**2
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        for k in range(1, 5):
            for m in range(7):
                assert moment_anb(p, p, k, m) == moment_nb(p, k, m)
    for p, q in ((Fraction(1, 2), Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 4))):
        chain = anb_chain(p, q)
        for m in range(6):
            assert moment_anb(p, q, 2, m) == moment_k_convolved(chain, "N", 2, m)[0, 0]
    _report("6 nb-anb", "mean/variance grid, p=q collapse, k=2 chain oracle")


def test_c7_central_closed_forms():
    from test_distributions import all_specs

    rng = random.Random(72_2024)
    specs = all_specs(rng)
    for spec in specs:
        central = central_from_raw(raw_moments(spec, 6))
        for m in range(7):
            assert central_closed(spec, m) == central[m]
    for lam in (Fraction(1, 2), Fraction(1), Fraction(3)):
        assert central_closed(Poisson(lam), 2) == lam
    for n in (2, 5, 8):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            assert central_closed(Binomial(n, p), 2) == n * p * (1 - p)
    for n in (1, 2, 5, 10):
        assert central_closed(DiscreteUniform(n), 2) == Fraction(n * n - 1, 12)
    _report("7 central-closed-forms", f"{len(specs)} specs x m <= 6, classical variances")


def _exact_uniform_start(chain, variable, k, m) -> float:
    value = moment_k_convolved(chain, variable, k, m)
    total = sum(sum(row) for row in value.entries)
    return float(total / value.rows)


def test_c8_monte_carlo():
    started = time.monotonic()
    rng = random.Random(82_2024)
    reference = [
        (anb_chain(Fraction(1, 2), Fraction(1, 3)), "N", 1),
        (anb_chain(Fraction(1, 2), Fraction(1, 3)), "R", 2),
        (scalar_block_chain(rng, 2, 2), "N", 2),
        (renewal_chain(rng, 2), "Rbar", 2),
        (random_chain(rng, 2, 2), "Nbar", 1),
        (anb_chain(Fraction(1, 2), Fraction(1, 2)), "N", 3),  # NB(1/2, 3)
    ]
    for idx, (chain, var, k) in enumerate(reference):
        cfg = SimConfig(
            chain=chain, variable=var, k=k, replications=100_000, seed=1000 + idx
        )
        result = simulate(cfg)
        assert result.truncated == 0
        retried = None
        for m in range(1, 5):
            exact = _exact_uniform_start(chain, var, k, m)
            if abs(result.mean(m) - exact) <= 5 * result.std_error(m):
                continue
            # probabilistic acceptance: one rerun at 4x replications before
            # declaring fault
            if retried is None:
                retried = simulate(
                    SimConfig(
                        chain=chain, variable=var, k=k,
                        replications=400_000, seed=9000 + idx,
                    )
                )
            gap = abs(retried.mean(m) - exact)
            assert gap <= 5 * retried.std_error(m), (idx, var, k, m, gap)
    nb_chain, var, k = reference[-1]
    for m in range(1, 5):
        assert _exact_uniform_start(nb_chain, var, k, m) == float(
            moment_nb(Fraction(1, 2), 3, m)
        )
    cfg = SimConfig(
        chain=reference[0][0], variable="N", k=1, replications=100_000, seed=1000
    )
    assert simulate(cfg) == simulate(cfg)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report("8 monte-carlo", f"6 configs x 1e5 replications, {elapsed:.1f}s")
