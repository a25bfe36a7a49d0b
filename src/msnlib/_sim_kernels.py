"""Round-advance kernel for the chain simulator.

Given one uniform draw per active walk, each walk takes one transition
(inverse-CDF over its row of the cumulative matrix), bumps its visit counter
when it lands in the target set, and is flagged done when the counter
reaches k.  The update is vectorized over all active walks with numpy.
"""

from __future__ import annotations

import numpy as np


def advance_round_numpy(states, visits, u, cum, target, k):
    """Vectorized single-step update; mutates states/visits, returns done mask.

    The last column of `cum` is +inf (see build_cumulative), so the searched
    index never runs past the row even if float rounding pulled the true row
    sum slightly below 1.
    """
    nxt = (cum[states] <= u[:, None]).sum(axis=1)
    states[:] = nxt
    visits += target[nxt]
    return visits >= k


def build_cumulative(probs: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums with the final column forced to +inf."""
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = np.inf
    return np.ascontiguousarray(cum)


# a table looked up at call time, so an external tracer can wrap its entries
KERNELS = {"numpy": advance_round_numpy}
