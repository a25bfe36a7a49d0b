"""Monte Carlo cross-validation of the exact moment machinery.

This is the only module in the package that touches floating point: rational
transition probabilities are converted to float64 once at load, and the
passage/recurrence times are sampled with numpy's PCG64 generator
(``numpy.random.default_rng(seed)``), so a fixed seed reproduces results
bit-for-bit.  All walks advance in lockstep rounds, one uniform per active
walk per round, through the vectorized numpy kernel of
:mod:`msnlib._sim_kernels`, which finds each next state by bisection over
the walk's +inf-padded cumulative row, in fixed-size blocks.  Only the live
walks' states and visit counts are kept, int32 where the chain,
``max_steps`` and the replications fit: about 10 bytes per walk at the
peak, at any chain size.  The estimates come from exact integer power sums
of the per-step completion counts.  A seed draws the same uniforms and lands
every walk on the same states as the broadcast kernel that compared each
walk's whole row with its uniform.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ._sim_kernels import KERNELS, blocks, build_cumulative
from .exact import PreconditionError, Record, _check_integer, as_rational
from .linalg import PartitionedChain

_VARIABLES = ("N", "R", "Nbar", "Rbar")


class TruncationError(PreconditionError, RuntimeError):
    """Too many walks hit max_steps for the estimates to be trusted."""


class SimConfig(Record):
    """One simulation request.

    `start` is an exact probability row over M (for N, R) or over the
    complement (for Nbar, Rbar); None means uniform over that side.
    """

    def __init__(
        self, chain: PartitionedChain, variable: str, k: int, replications: int, seed: int,
        max_steps: int = 10_000, start: tuple[Fraction, ...] | None = None,
    ):
        if variable not in _VARIABLES:
            raise PreconditionError(f"variable must be one of {_VARIABLES}")
        _check_integer("k", k)
        _check_integer("replications", replications)
        _check_integer("max_steps", max_steps)
        _check_integer("seed", seed, 0)
        self.__dict__.update(chain=chain, variable=variable, k=k)
        side = len(self.start_side_indices())
        if start is not None:
            start = tuple(as_rational(v) for v in start)
            if len(start) != side:
                raise PreconditionError(
                    f"start vector length {len(start)} != side size {side}"
                )
            if any(v < 0 for v in start) or sum(start) != 1:
                raise PreconditionError("start must be a probability vector")
        self.__dict__.update(
            replications=replications, seed=seed, max_steps=max_steps, start=start
        )

    def start_side_indices(self) -> tuple[int, ...]:
        if self.variable in ("N", "R"):
            return self.chain.m_indices
        return self.chain.n_indices

    def target_indices(self) -> tuple[int, ...]:
        if self.variable in ("N", "Rbar"):
            return self.chain.n_indices
        return self.chain.m_indices


class MomentEstimate(Record):
    def __init__(self, order: int, mean: float, std_error: float):
        self.__dict__.update(order=order, mean=mean, std_error=std_error)


class SimResult(Record):
    def __init__(self, estimates: tuple, replications: int, completed: int, truncated: int):
        self.__dict__.update(
            estimates=estimates, replications=replications, completed=completed,
            truncated=truncated,
        )

    def mean(self, order: int) -> float:
        return self.estimates[order - 1].mean

    def std_error(self, order: int) -> float:
        return self.estimates[order - 1].std_error


def simulate(cfg: SimConfig) -> SimResult:
    """Sample the configured passage/recurrence time and estimate E[T^m], m = 1..4.

    Walks still running after max_steps rounds are excluded from the
    estimates and reported; more than 1% of them raises TruncationError.
    """
    kernel = KERNELS["numpy"]
    chain = cfg.chain

    probs = np.array(
        [[float(v) for v in row] for row in chain.p.entries], dtype=np.float64
    )
    cum = build_cumulative(probs)
    target = np.zeros(chain.size, dtype=np.bool_)
    for idx in cfg.target_indices():
        target[idx - 1] = True

    side = cfg.start_side_indices()
    if cfg.start is None:
        start_probs = np.full(len(side), 1.0 / len(side))
    else:
        start_probs = np.array([float(v) for v in cfg.start])
    start_cum = np.cumsum(start_probs)
    start_cum[-1] = np.inf
    reps = cfg.replications
    # one index type for every per-walk array: int32 when the flat indices
    # into cum, the step count and the walk count all fit
    wide = max(cum.size, cfg.max_steps, reps) > np.iinfo(np.int32).max
    index = np.int64 if wide else np.int32
    side_states = np.array([i - 1 for i in side], dtype=index)

    rng = np.random.default_rng(cfg.seed)
    states = np.empty(reps, dtype=index)
    for part in blocks(states):
        # the count of start edges <= u, the kernel's predicate
        part[:] = side_states.take(np.searchsorted(start_cum, rng.random(part.size), side="right"))
    visits = np.zeros(reps, dtype=index)

    # done_at[t - 1] walks finished at step t; the live ones lead states and visits
    done_at, live = [], reps
    while live and len(done_at) < cfg.max_steps:
        running = kernel(states[:live], visits[:live], rng, cum, target, cfg.k)
        done_at.append(live - running)
        live = running

    truncated = live
    completed = reps - truncated
    if truncated > 0.01 * reps:
        raise TruncationError(
            f"{truncated} of {reps} walks exceeded max_steps={cfg.max_steps}"
        )

    # exact power sums S_m of the completion steps; int / int is correctly rounded
    s = [sum(c * t**m for t, c in enumerate(done_at, 1)) for m in range(9)]
    n = completed
    estimates = tuple(
        MomentEstimate(
            m, s[m] / n, math.sqrt((n * s[2 * m] - s[m] ** 2) / (n * n * (n - 1))) if n > 1 else 0.0
        )
        for m in range(1, 5)
    )
    return SimResult(estimates, reps, completed, truncated)
