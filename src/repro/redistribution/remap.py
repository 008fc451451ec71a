"""Receiver-rank ordering that maximises self-communication (paper §II-A).

"When these sets have elements in common, our redistribution algorithm
tries to maximize the amount of self communications."  With 1-D block
layouts, *which* bytes stay local is entirely determined by the rank order
of the receiving processor set.  A processor at sender rank ``i`` (of
``p``) keeps the most data when its receiver rank is near ``i·q/p``, where
its sender interval sits inside the receiver layout.

:func:`align_receivers` implements a greedy assignment: shared processors
claim their preferred receiver rank (nearest free slot on conflict, larger
overlaps first), remaining processors fill the leftover slots in sorted
order.  When the receiver set equals the sender set and sizes match, the
result is the sender order itself — making the redistribution entirely
free, the property RATS exploits.

The greedy runs in ``O(p + q log q)``.  A processor at sender rank ``i``
only scans the free receiver slots in ``[(i·q)//p, ((i+1)·q − 1)//p]``:
exactly the slots whose block interval overlaps its own.  An exact
positive overlap is at least ``1/(p·q)``, far above rounding, and slots
whose exact endpoints coincide round to equal floats, so these are also
exactly the slots with a positive *float* overlap — the ones a full scan
ranks first.  When all of them are taken, every free slot overlaps by
0.0 and the full scan picks the free slot nearest the preferred one (the
lower on ties), which next-free pointers find directly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["align_receivers"]


def _overlap(a: tuple[float, float], b: tuple[float, float]) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def _find(parent: list[int], x: int) -> int:
    """Root of ``x`` in a next-free pointer array (path halving)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def align_receivers(src_procs: Sequence[int],
                    dst_procs: Iterable[int]) -> tuple[int, ...]:
    """Order ``dst_procs`` to maximise bytes kept local w.r.t. ``src_procs``.

    Parameters
    ----------
    src_procs:
        The producer's *ordered* processor set (defines the source layout).
    dst_procs:
        The processors chosen for the consumer; the order of this input is
        irrelevant (it is what this function decides).

    Returns
    -------
    The receiver set as an ordered tuple.  A processor listed twice in
    either set raises ``ValueError``.
    """
    dst = list(dst_procs)
    dst_set = set(dst)
    if len(dst_set) != len(dst):
        raise ValueError(f"duplicate receiver in {dst}")
    src_set = set(src_procs)
    if len(src_set) != len(src_procs):
        raise ValueError(f"duplicate sender in {tuple(src_procs)}")
    p, q = len(src_procs), len(dst)
    if q == 0:
        raise ValueError("empty receiver set")
    dst_list = sorted(dst_set)
    if src_set.isdisjoint(dst_set):
        return tuple(dst_list)

    slots: list[int | None] = [None] * q
    # right[j]: smallest free slot >= j (q: none); left[j + 1]: largest
    # free slot <= j, shifted by one (0: none)
    right = list(range(q + 1))
    left = list(range(q + 1))
    # shared processors in sender-rank order (deterministic; block
    # shares are uniform, so rank order is also largest-overlap-first)
    for i, proc in enumerate(src_procs):
        if proc not in dst_set:
            continue
        ival = (i / p, (i + 1) / p)
        preferred = min(int(i * q / p), q - 1)
        # the window of overlapping slots: higher overlap first, then
        # proximity to the preferred slot, the lower slot on full ties
        best_j, best_key = -1, None
        for j in range(i * q // p, ((i + 1) * q - 1) // p + 1):
            if slots[j] is None:
                key = (_overlap(ival, (j / q, (j + 1) / q)),
                       -abs(j - preferred))
                if best_key is None or key > best_key:
                    best_j, best_key = j, key
        if best_key is None:
            # no overlapping slot is free: the nearest free slot
            hi = _find(right, preferred)
            lo = _find(left, preferred + 1) - 1
            if lo < 0 or (hi < q and hi - preferred < preferred - lo):
                best_j = hi
            else:
                best_j = lo
        slots[best_j] = proc
        right[best_j] = best_j + 1
        left[best_j + 1] = best_j

    it = iter(x for x in dst_list if x not in src_set)
    return tuple(s if s is not None else next(it) for s in slots)
