"""Round-advance kernel for the chain simulator.

Given one uniform draw per active walk, each walk takes one transition
(inverse-CDF over its row of the cumulative matrix), bumps its visit counter
when it lands in the target set, and is flagged done when the counter
reaches k.  The update is vectorized over all active walks with numpy.

The next state is the number of edges of the walk's row that are ``<= u``.
The rows are padded with +inf to a power-of-two width, so that count is
found by bisection in log2(width) steps over the flat matrix (L. Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. III.2).  It is the count
that comparing the whole row with ``u`` at once gives, so every walk lands
where that broadcast kernel put it.  Each step's temporaries are one walk
wide, and a round runs it over the live walks in blocks of ``_BLOCK``, so
a round's temporaries are the same size at any chain size and walk count.
"""

from __future__ import annotations

import numpy as np

# walks per block: 200 000 walks run within 5% of the fastest size, at a 1.9 MB peak
_BLOCK = 1 << 14


def blocks(array):
    """Consecutive views of ``array``, ``_BLOCK`` long (the last one shorter)."""
    return (array[lo:lo + _BLOCK] for lo in range(0, array.size, _BLOCK))


def advance_round_numpy(states, visits, u, cum, target, k):
    """Vectorized single-step update; mutates states/visits, returns done mask.

    `cum` comes from build_cumulative: every row ends in +inf, so the count
    of edges ``<= u`` stays inside the row even if float rounding pulled the
    true row sum slightly below 1.  Edges repeated by zero-probability states
    and a `u` equal to an edge are counted as ``cum[s] <= u`` counts them.
    """
    width = cum.shape[1]
    flat = cum.reshape(-1)
    # states becomes the flat index s * width + (edges <= u found so far);
    # the probe for a step of h is that index + h - 1, a view offset by h - 1
    step = states.dtype.type  # a bool times a Python int would be int64
    states *= width
    h = width >> 1
    while h:
        states += (flat[h - 1:][states] <= u) * step(h)
        h >>= 1
    states &= width - 1
    visits += target[states]
    return visits >= k


def build_cumulative(probs: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums, with the final column forced to +inf and
    each row padded with +inf up to a power-of-two width."""
    size = probs.shape[1]
    cum = np.full((probs.shape[0], 1 << (size - 1).bit_length()), np.inf)
    np.cumsum(probs, axis=1, out=cum[:, :size])
    cum[:, size - 1] = np.inf
    return cum


def advance_round(states, visits, rng, cum, target, k):
    """One round of every live walk, block by block; returns the live count.

    Each block draws its own uniforms, in order: PCG64 spends one output on
    each double, so they are the stream of one draw over every live walk.
    The walks still running move, in order, to the front of ``states`` and
    ``visits``: a block's survivors land at or before its own start.
    """
    live = 0
    for block, seen in zip(blocks(states), blocks(visits)):
        running = ~advance_round_numpy(block, seen, rng.random(block.size), cum, target, k)
        kept = block[running]
        states[live:live + kept.size], visits[live:live + kept.size] = kept, seen[running]
        live += kept.size
    return live


# a table looked up at call time, so an external tracer can wrap its entries:
# one call per round
KERNELS = {"numpy": advance_round}
