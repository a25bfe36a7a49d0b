import re
from fractions import Fraction

import pytest

from conftest import anb_chain, renewal_chain
from msnlib.exact import PreconditionError
from msnlib.linalg import RationalMatrix, partition
from msnlib.markov import moment_k_convolved
from msnlib.simulate import SimConfig, TruncationError, simulate

import random


def exact_uniform_start_moment(chain, variable, k, m) -> Fraction:
    """E[T^m] with a uniform start over the relevant side: average of the
    row sums of the matrix moment."""
    value = moment_k_convolved(chain, variable, k, m)
    total = sum(sum(row) for row in value.entries)
    return total / value.rows


def test_same_seed_is_bit_identical(two_state_chain):
    cfg = SimConfig(
        chain=two_state_chain, variable="N", k=1, replications=5000, seed=99
    )
    assert simulate(cfg) == simulate(cfg)


def test_deterministic_unit_time():
    # P_MN = I makes every passage take exactly one step: zero variance
    p = RationalMatrix(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [Fraction(1, 2), Fraction(1, 2), 0, 0],
            [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0],
        ]
    )
    chain = partition(p, [1, 2])
    result = simulate(
        SimConfig(chain=chain, variable="N", k=1, replications=2000, seed=5)
    )
    for est in result.estimates:
        assert est.mean == 1.0
        assert est.std_error == 0.0


def test_estimates_track_exact_values(two_state_chain):
    cfg = SimConfig(
        chain=two_state_chain, variable="N", k=1, replications=100_000, seed=42
    )
    result = simulate(cfg)
    retried = None
    for m in range(1, 5):
        exact = float(exact_uniform_start_moment(two_state_chain, "N", 1, m))
        if abs(result.mean(m) - exact) <= 5 * result.std_error(m):
            continue
        # one escalation to 4x replications before declaring fault
        if retried is None:
            retried = simulate(
                SimConfig(
                    chain=two_state_chain, variable="N", k=1,
                    replications=400_000, seed=43,
                )
            )
        assert abs(retried.mean(m) - exact) <= 5 * retried.std_error(m)


def test_barred_variable_and_start_vector():
    rng = random.Random(17)
    chain = renewal_chain(rng, 2)
    cfg = SimConfig(
        chain=chain,
        variable="Rbar",
        k=2,
        replications=50_000,
        seed=11,
        start=(Fraction(1),),
    )
    result = simulate(cfg)
    exact = moment_k_convolved(chain, "Rbar", 2, 1)[0, 0]
    assert abs(result.mean(1) - float(exact)) <= 5 * result.std_error(1)


def test_truncation_reported_and_fatal():
    chain = anb_chain(Fraction(1, 12), Fraction(1, 12))
    cfg = SimConfig(
        chain=chain, variable="N", k=3, replications=2000, seed=3, max_steps=5
    )
    with pytest.raises(TruncationError):
        simulate(cfg)


def test_config_validation(two_state_chain):
    with pytest.raises(ValueError):
        SimConfig(chain=two_state_chain, variable="X", k=1, replications=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(chain=two_state_chain, variable="N", k=0, replications=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(
            chain=two_state_chain,
            variable="N",
            k=1,
            replications=10,
            seed=0,
            start=(Fraction(1, 2), Fraction(1, 4)),
        )
    with pytest.raises(ValueError):
        SimConfig(
            chain=two_state_chain,
            variable="N",
            k=1,
            replications=10,
            seed=0,
            start=(Fraction(1, 2),),
        )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("k", Fraction(3, 2), "k must be an integer, got 3/2"),
        ("k", 2.0, "k must be an integer, got 2.0"),
        ("replications", Fraction(100, 3), "replications must be an integer, got 100/3"),
        ("max_steps", 10.5, "max_steps must be an integer, got 10.5"),
        ("k", 0, "k must be >= 1"),
        ("replications", 0, "replications must be >= 1"),
        ("max_steps", -1, "max_steps must be >= 1"),
    ],
)
def test_counts_must_be_positive_integers(two_state_chain, field, value, message):
    # k = 3/2 used to run and return estimates
    args = dict(chain=two_state_chain, variable="N", k=1, replications=10, seed=0)
    args[field] = value
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        SimConfig(**args)
