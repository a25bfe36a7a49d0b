import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import anb_chain, random_chain, renewal_chain
from msnlib import _sim_kernels
from msnlib._sim_kernels import advance_round_numpy, build_cumulative
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


def _weighted_chain(size, m, weight):
    """Row r is weight(r, j) over j, normalised; a zero weight is a
    zero-probability state, so its cumulative edge repeats the one before."""
    rows = []
    for r in range(size):
        w = [weight(r, j) for j in range(size)]
        rows.append([Fraction(x, sum(w)) for x in w])
    return partition(RationalMatrix(rows), m)


def _golden_configs():
    f = Fraction
    # the shape of the cli benchmark's chain: every row leaves M = {1} for N
    # with probability 3/7
    rows = [[f(4, 7), f(1, 7), f(2, 7)], [f(4, 7), f(2, 7), f(1, 7)], [f(4, 7), f(1, 7), f(2, 7)]]
    cli = partition(RationalMatrix(rows), [1])
    five = _weighted_chain(5, [1, 2], lambda r, j: (r + 2 * j) % 4)
    nine = _weighted_chain(9, [1, 2, 3, 4], lambda r, j: (3 * r + j) % 5)
    half = anb_chain(f(1, 2), f(1, 3))
    return {
        "cli_N_k2": SimConfig(chain=cli, variable="N", k=2, replications=20_000, seed=8601),
        "five_Rbar_start": SimConfig(
            chain=five, variable="Rbar", k=2, replications=20_000, seed=27,
            start=(f(1, 2), f(0), f(1, 2)),
        ),
        "nine_R_k3": SimConfig(chain=nine, variable="R", k=3, replications=20_000, seed=9),
        # (1/2)^8 of the walks stay in M for 8 steps: about 0.4% truncate
        "two_truncating": SimConfig(
            chain=half, variable="N", k=1, replications=20_000, seed=4, max_steps=8
        ),
    }


# repr(simulate(cfg)) as the broadcast kernel computed it; the bisection
# kernel must draw the same uniforms and land every walk on the same states.
# Each std_error is the square root of its exact quotient, correctly rounded.
GOLDEN = {
    "cli_N_k2": "SimResult(estimates=(MomentEstimate(order=1, mean=4.6679, std_error=0.01756134674633404), MomentEstimate(order=2, mean=27.957, std_error=0.24109832842680287), MomentEstimate(order=3, mean=210.7355, std_error=3.3928582163614376), MomentEstimate(order=4, mean=1944.1038, std_error=56.18192372070332)), replications=20000, completed=20000, truncated=0)",
    "five_Rbar_start": "SimResult(estimates=(MomentEstimate(order=1, mean=3.4942, std_error=0.011864246963790027), MomentEstimate(order=2, mean=15.0245, std_error=0.1188470076108814), MomentEstimate(order=3, mean=79.5712, std_error=1.145523348830191), MomentEstimate(order=4, mean=508.2137, std_error=12.311989834965765)), replications=20000, completed=20000, truncated=0)",
    "nine_R_k3": "SimResult(estimates=(MomentEstimate(order=1, mean=6.86585, std_error=0.020752450989849472), MomentEstimate(order=2, mean=55.75275, std_error=0.37173265948848444), MomentEstimate(order=3, mean=531.39425, std_error=6.212961285509804), MomentEstimate(order=4, mean=5871.93435, std_error=112.13524354824528)), replications=20000, completed=20000, truncated=0)",
    "two_truncating": "SimResult(estimates=(MomentEstimate(order=1, mean=1.958396065442136, std_error=0.009275290465196387), MomentEstimate(order=2, mean=5.549483087423467, std_error=0.059860104713061926), MomentEstimate(order=3, mean=21.425424069055506, std_error=0.38231641234855956), MomentEstimate(order=4, mean=102.19266285255445, std_error=2.6077536303656057)), replications=20000, completed=19926, truncated=74)",
}

# the std_error of each GOLDEN run as numpy's float64 std(ddof=1) of the
# powered steps gave it, before the estimates came from exact sums
NUMPY_STD_ERRORS = {
    "cli_N_k2": (0.01756134674633404, 0.24109832842680287, 3.3928582163614376, 56.18192372070332),
    "five_Rbar_start": (0.011864246963790027, 0.11884700761088142, 1.1455233488301912, 12.311989834965765),
    "nine_R_k3": (0.020752450989849472, 0.37173265948848444, 6.212961285509803, 112.13524354824527),
    "two_truncating": (0.009275290465196389, 0.05986010471306192, 0.38231641234855956, 2.6077536303656057),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_std_errors_are_within_an_ulp_of_numpy(name):
    new = [float(v) for v in re.findall(r"std_error=([^,)]+)", GOLDEN[name])]
    assert len(new) == len(NUMPY_STD_ERRORS[name])
    for got, old in zip(new, NUMPY_STD_ERRORS[name]):
        assert abs(got - old) <= math.ulp(old)


@pytest.mark.parametrize("name", GOLDEN)
def test_streams_are_pinned(name):
    assert repr(simulate(_golden_configs()[name])) == GOLDEN[name]


def test_truncation_error_is_pinned():
    chain = anb_chain(Fraction(1, 12), Fraction(1, 12))
    cfg = SimConfig(
        chain=chain, variable="N", k=3, replications=2000, seed=3, max_steps=5
    )
    with pytest.raises(TruncationError, match="^1991 of 2000 walks exceeded max_steps=5$"):
        simulate(cfg)


def test_wide_index_type_keeps_the_stream(monkeypatch):
    # a max_steps past int32 switches every per-walk array to int64
    seen = []
    kernel = _sim_kernels.KERNELS["numpy"]

    def spy(states, *args):
        seen.append(states.dtype)
        return kernel(states, *args)

    monkeypatch.setitem(_sim_kernels.KERNELS, "numpy", spy)
    cfg = _golden_configs()["nine_R_k3"]
    wide = SimConfig(
        cfg.chain, cfg.variable, cfg.k, cfg.replications, cfg.seed, max_steps=2**31,
        start=cfg.start,
    )
    assert repr(simulate(wide)) == GOLDEN["nine_R_k3"]
    assert set(seen) == {np.dtype(np.int64)}
    simulate(cfg)
    assert set(seen) == {np.dtype(np.int64), np.dtype(np.int32)}


def _broadcast_round(states, visits, u, cum, target, k):
    """The kernel before bisection, over unpadded rows: the oracle."""
    nxt = (cum[states] <= u[:, None]).sum(axis=1)
    states[:] = nxt
    visits += target[nxt]
    return visits >= k


def _per_walk_run(cfg):
    """simulate's draws with the broadcast round over arrays of every walk:
    the per-walk completion steps and the truncated count."""
    chain = cfg.chain
    probs = np.array([[float(v) for v in row] for row in chain.p.entries])
    edges = np.cumsum(probs, axis=1)
    edges[:, -1] = np.inf
    target = np.isin(np.arange(1, chain.size + 1), cfg.target_indices())
    side = np.array(cfg.start_side_indices()) - 1
    start = [float(v) for v in cfg.start] if cfg.start else [1 / side.size] * side.size
    start_edges = np.cumsum(start)
    start_edges[-1] = np.inf
    rng = np.random.default_rng(cfg.seed)
    reps = cfg.replications
    states = side[np.searchsorted(start_edges, rng.random(reps), side="right")]
    visits = np.zeros(reps, dtype=np.int64)
    alive = np.arange(reps)
    times = np.full(reps, -1)
    for step in range(1, cfg.max_steps + 1):
        if not alive.size:
            break
        done = _broadcast_round(states, visits, rng.random(alive.size), edges, target, cfg.k)
        times[alive[done]] = step
        states, visits, alive = states[~done], visits[~done], alive[~done]
    return times[times >= 0], alive.size


@pytest.mark.parametrize("name", GOLDEN)
def test_simulate_matches_a_per_walk_oracle(name):
    cfg = _golden_configs()[name]
    times, truncated = _per_walk_run(cfg)
    result = simulate(cfg)
    n = times.size
    assert (result.completed, result.truncated) == (n, truncated)
    steps = [int(t) for t in times]
    for est in result.estimates:
        powered = [t**est.order for t in steps]
        total, squares = sum(powered), sum(p * p for p in powered)
        assert est.mean == float(np.mean(times.astype(np.float64) ** est.order))
        assert est.std_error == math.sqrt((n * squares - total**2) / (n * n * (n - 1)))


# one walk per block runs a Python loop per walk, about 8 s over all four
# runs, so only the shortest run, which also truncates, takes it
@pytest.mark.parametrize(
    "block, name", [(1, "two_truncating")] + [(b, name) for b in (7, 4096) for name in GOLDEN]
)
def test_block_size_does_not_move_the_stream(block, name, monkeypatch):
    monkeypatch.setattr(_sim_kernels, "_BLOCK", block)
    assert repr(simulate(_golden_configs()[name])) == GOLDEN[name]


@settings(max_examples=150, deadline=None)
@given(
    size=st.integers(1, 40),
    walks=st.integers(1, 300),
    zero_share=st.sampled_from([0.0, 0.3, 0.7]),
    wide=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bisection_round_matches_the_broadcast_round(size, walks, zero_share, wide, seed):
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 10, (size, size)) * (rng.random((size, size)) >= zero_share)
    weights[weights.sum(axis=1) == 0, rng.integers(0, size)] = 1
    probs = weights / weights.sum(axis=1, keepdims=True)
    edges = np.cumsum(probs, axis=1)
    edges[:, -1] = np.inf
    target = rng.random(size) < 0.5
    index = np.int64 if wide else np.int32
    states = rng.integers(0, size, walks).astype(index)
    visits = rng.integers(0, 3, walks).astype(index)
    # about a third of the u values sit exactly on a finite edge of the
    # walk's own row, a few on 0.0 and just below 1.0, the rest uniform
    u = rng.random(walks)
    picks = edges[states, rng.integers(0, size, walks)]
    on_edge = (rng.random(walks) < 1 / 3) & np.isfinite(picks)
    u[on_edge] = picks[on_edge]
    u[rng.random(walks) < 0.05] = 0.0
    u[rng.random(walks) < 0.05] = np.nextafter(1.0, 0.0)

    want_states, want_visits = states.copy(), visits.copy()
    want_done = _broadcast_round(want_states, want_visits, u, edges, target, 2)
    done = advance_round_numpy(states, visits, u, build_cumulative(probs), target, 2)
    assert states.dtype == visits.dtype == index
    np.testing.assert_array_equal(states, want_states)
    np.testing.assert_array_equal(visits, want_visits)
    np.testing.assert_array_equal(done, want_done)


@pytest.mark.parametrize("size", [3, 8, 32])
def test_peak_memory_per_walk_does_not_grow_with_the_chain(size):
    # the broadcast kernel peaked at 68, 113 and 329 bytes per walk here, the
    # bisection kernel over arrays of every walk at 34 to 38, and live walks
    # in blocks peak at about 12
    reps = 100_000
    chain = random_chain(random.Random(size), size // 2, size - size // 2, denom=4 * size)
    cfg = SimConfig(chain=chain, variable="R", k=2, replications=reps, seed=size)
    # numpy imports numpy.random on first use, about 0.6 MB of it that no walk holds
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * reps, peak / reps


def test_unknown_variable_is_a_named_error(two_state_chain):
    with pytest.raises(PreconditionError, match=r"^variable must be one of \('N', "):
        SimConfig(chain=two_state_chain, variable="X", k=1, replications=10, seed=0)
