"""Communication matrices of 1-D block redistributions (paper §II-A, Table I).

When a producer mapped on ``p`` processors feeds a consumer mapped on ``q``
processors, the amount sender rank ``i`` ships to receiver rank ``j`` is the
overlap of their block intervals.  The matrix is *banded*: at most
``p + q − 1`` entries are non-zero, so a redistribution spawns ``O(p + q)``
network flows — this is what keeps flow-level simulation of all 557
configurations tractable.

The paper's Table I example (``m = 10``, ``p = 4 → q = 5``)::

          q1   q2   q3   q4   q5
    p1   2.0  0.5
    p2        1.5  1.0
    p3             1.0  1.5
    p4                  0.5  2.0
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.network.flows import FlowSpec

__all__ = [
    "communication_matrix",
    "communication_matrix_dense",
    "redistribution_flows",
]

_EPS = 1e-12


@lru_cache(maxsize=4096)
def _comm_matrix_entries(m: float, p: int,
                         q: int) -> tuple[tuple[int, int, float], ...]:
    """Memoised two-pointer sweep: ``(i, j, amount)`` triples for ``m`` units.

    The schedulers re-price the same ``(bytes, p, q)`` shapes many times
    per adaptation loop (and the simulator re-expands them once more), so
    the sweep result is cached on its three scalars.  Pricing validation
    lives here — every pricing path goes through this function.  A
    negative or NaN ``m`` would otherwise spin the sweep forever, and an
    infinite one would emit no entries (a free redistribution).
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if not math.isfinite(m):
        raise ValueError(f"m must be finite, got {m}")
    out: dict[tuple[int, int], float] = {}
    if m == 0:
        return ()
    i = j = 0
    pos = 0.0
    send_step = m / p
    recv_step = m / q
    while i < p and j < q:
        send_end = (i + 1) * send_step
        recv_end = (j + 1) * recv_step
        end = min(send_end, recv_end)
        amount = end - pos
        if amount > _EPS * m:
            out[(i, j)] = out.get((i, j), 0.0) + amount
        pos = end
        # advance whichever interval(s) finished
        if send_end <= recv_end + _EPS * m:
            i += 1
        if recv_end <= send_end + _EPS * m:
            j += 1
    return tuple((i, j, amount) for (i, j), amount in out.items())


def communication_matrix(m: float, p: int, q: int) -> dict[tuple[int, int], float]:
    """Sparse ``(sender rank, receiver rank) → amount`` map for ``m`` units.

    Computed with a two-pointer sweep over the interval boundaries in
    ``O(p + q)``; results are memoised on ``(m, p, q)``.  Amounts are in
    the same unit as ``m``.

    >>> communication_matrix(10, 4, 5)[(0, 0)]
    2.5
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    return {(i, j): amount for i, j, amount in _comm_matrix_entries(m, p, q)}


def communication_matrix_dense(m: float, p: int, q: int) -> np.ndarray:
    """Dense ``p × q`` array version of :func:`communication_matrix`."""
    mat = np.zeros((p, q))
    for (i, j), amount in communication_matrix(m, p, q).items():
        mat[i, j] = amount
    return mat


def redistribution_flows(
    src_procs: Sequence[int],
    dst_procs: Sequence[int],
    data_bytes: float,
) -> list[FlowSpec]:
    """Expand a redistribution into network flows between concrete nodes.

    Ranks are mapped onto processors through the *ordered* processor sets;
    entries whose sender and receiver are the same node become
    self-communications and are dropped (they are free, §II-A).  In
    particular, identical ordered sets yield no flows at all.
    """
    if not src_procs or not dst_procs:
        raise ValueError("processor sets must be non-empty")
    if data_bytes < 0:
        raise ValueError("m must be >= 0")
    flows: list[FlowSpec] = []
    for i, j, amount in _comm_matrix_entries(
        data_bytes, len(src_procs), len(dst_procs)
    ):
        src, dst = src_procs[i], dst_procs[j]
        if src != dst:
            flows.append(FlowSpec(src=src, dst=dst, data_bytes=amount))
    return flows
