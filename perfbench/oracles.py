"""Independent routes to the values the workloads compute.

The gate compares every timed output with one of these, outside the timed
region.  They are written here rather than taken from the library, or they
use a library route that shares no code with the one being timed:

* passage and recurrence moments of a dense chain, in float64, from an
  absorbing chain over (state, visits so far); no exact route other than the
  convolution one exists for dense chains, so this check has a tolerance;
* raw moments of the textbook laws by summing over the support, or through a
  Stirling-2 triangle built here;
* c(i, j, k) as the coefficients of (x - k)(x - k - 1)...(x - k - i + 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

FLOAT_RTOL = 1e-9


def passage_moments_float(p_rows, start, target, k: int, m_max: int) -> list[np.ndarray]:
    """E[T^m; state at T = t] for m = 0..m_max, T the step of the k-th
    landing in `target`, from each state in `start` (0-based indices).

    Transient states are (state, landings so far < k); the k-th landing
    absorbs in the landed state.  First-step analysis gives
    (I - T) G_m = A + T sum_{j<m} C(m, j) G_j.
    """
    n = len(p_rows)
    p = np.array([[float(v) for v in row] for row in p_rows])
    col = {s: c for c, s in enumerate(target)}
    size = n * k
    trans = np.zeros((size, size))
    absorb = np.zeros((size, len(target)))
    for s in range(n):
        for c in range(k):
            row = s * k + c
            for t in range(n):
                if t in col:
                    if c + 1 == k:
                        absorb[row, col[t]] += p[s, t]
                    else:
                        trans[row, t * k + c + 1] += p[s, t]
                else:
                    trans[row, t * k + c] += p[s, t]
    solve = np.linalg.inv(np.eye(size) - trans)
    moments: list[np.ndarray] = []
    for m in range(m_max + 1):
        rhs = absorb.copy()
        for j in range(m):
            rhs += math.comb(m, j) * (trans @ moments[j])
        moments.append(solve @ rhs)
    starts = [s * k for s in start]
    return [g[starts, :] for g in moments]


def float_mismatch(exact_rows, approx: np.ndarray) -> str | None:
    """None when every exact entry is within FLOAT_RTOL of the float one."""
    exact = np.array([[float(v) for v in row] for row in exact_rows])
    if exact.shape != approx.shape:
        return f"shape {exact.shape} != {approx.shape}"
    worst = float(np.max(np.abs(exact - approx) / np.maximum(np.abs(approx), 1e-300)))
    return None if worst <= FLOAT_RTOL else f"relative error {worst:.3g} > {FLOAT_RTOL}"


def commutes_float(p_rows, m_idx, side: str) -> bool:
    """The finite commutability test of linalg.is_commutable, in float64."""
    p = np.array([[float(v) for v in row] for row in p_rows])
    n_idx = [i for i in range(len(p_rows)) if i not in m_idx]
    if side != "M":
        m_idx, n_idx = n_idx, m_idx
    outer = p[np.ix_(m_idx, m_idx)]
    inner = p[np.ix_(n_idx, n_idx)]
    lift, drop = p[np.ix_(m_idx, n_idx)], p[np.ix_(n_idx, m_idx)]
    for s in range(len(n_idx)):
        trip = lift @ np.linalg.matrix_power(inner, s) @ drop
        for r in range(len(m_idx)):
            power = np.linalg.matrix_power(outer, r)
            if not np.allclose(trip @ power, power @ trip, rtol=1e-12, atol=1e-15):
                return False
    return True


def stirling2_rows(m_max: int) -> list[list[int]]:
    rows = [[1]]
    for i in range(1, m_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[j - 1] + j * prev[j] for j in range(1, i + 1)])
    return rows


def c_value(i: int, j: int, k: Fraction) -> Fraction:
    """[x^j] prod_{t<i} (x - k - t)."""
    poly = [Fraction(1)]
    for t in range(i):
        root = k + t
        poly = [
            (poly[d - 1] if d else 0) - root * (poly[d] if d < len(poly) else 0)
            for d in range(len(poly) + 1)
        ]
    return poly[j] if j < len(poly) else Fraction(0)


def raw_moment(spec: dict, m: int, msnlib) -> Fraction:
    """The m-th raw moment of a CLI-schema spec by a route independent of
    ``msnlib.raw_moment``."""
    kind = spec["type"]
    if kind == "binomial":
        n, p = spec["n"], Fraction(spec["p"])
        return sum(Fraction(x**m * math.comb(n, x)) * p**x * (1 - p) ** (n - x) for x in range(n + 1))
    if kind == "poisson":
        lam = Fraction(spec["lambda"])
        return sum(s * lam**j for j, s in enumerate(stirling2_rows(m)[m]))
    if kind == "uniform":
        n = spec["N"]
        return Fraction(sum(x**m for x in range(n)), n)
    if kind in ("negbinomial", "altnegbinomial"):
        p = Fraction(spec["p"])
        q = Fraction(spec["q"]) if kind == "altnegbinomial" else p
        chain = msnlib.partition(msnlib.RationalMatrix([[1 - p, p], [1 - q, q]]), [1])
        return msnlib.moment_k_convolved(chain, "N", spec["k"], m)[0, 0]
    dist = msnlib.distributions.spec_from_dict(spec)
    if kind == "phasetype":
        return msnlib.moment_r1_closed(dist.embedded_chain().swapped(), m)[0, 0]
    if kind == "recurrence":
        return msnlib.moment_r1_closed(dist.chain, m)[0, 0]
    raise ValueError(f"no oracle for {kind!r}")
