"""Helpers shared by the workloads: statistics, timing loops, digests."""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest passes of the timed window.
MIN_PASSES = 3
#: Seconds one calibration round takes on the reference host (a 2-vCPU
#: x86_64 VM running CPython 3.11, when quiet).  Reported times are
#: scaled to that host's speed; see :class:`HostSpeed`.
REF_ROUND_S = 6.5e-4
#: Rounds on each side of an operation that give its host speed.
REACH = 4
#: Rounds taken around each set-up.
SETUP_ROUNDS = 8


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    digest: str
    notes: list[str] = field(default_factory=list)


class Checks:
    """Counts attempted and failed operations and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 < q < 100)."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[round(q) - 1]


def median(values) -> float:
    return statistics.median(values)


def per_op_medians(passes: list[list[float]]) -> list[float]:
    """Each operation's median seconds across identical passes.

    Every pass repeats the same operations, so an operation's median is
    its time with a burst of machine noise in any one pass filtered out.
    """
    return [median(times) for times in zip(*passes)]


def finite_positive(x: float) -> bool:
    return isinstance(x, float) and math.isfinite(x) and x > 0.0


def calibration_round() -> float:
    """Seconds one fixed round of interpreter work takes: building,
    sorting and grouping small tuples, the kind of work the program's
    Python layers do, so the round slows down with the host as they do."""
    t0 = time.perf_counter()
    rows = [(f"k{i % 97}", i * 0.5, (i * 7919) % 1000) for i in range(1000)]
    rows.sort(key=lambda r: (r[2], r[0]))
    groups: dict[str, list[float]] = {}
    for key, x, y in rows:
        groups.setdefault(key, []).append(x + y)
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration rounds taken between timed operations.

    The benchmark shares a host whose speed swings by up to 2x over
    seconds and minutes, and a process's CPU time swings with it, so raw
    times of identical runs spread by more than a regression worth
    catching.  A fixed calibration round run between operations slows
    down with the host; an operation's time divided by the median of the
    rounds near it, times :data:`REF_ROUND_S`, is its time on the
    reference host.  The rounds are benchmark code, so a change to the
    program moves the scaled times as it would the raw ones.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled          # traced runs take no rounds
        self.rounds: list[float] = []

    def tick(self, count: int = 1) -> None:
        if self.enabled:
            for _ in range(count):
                self.rounds.append(calibration_round())

    def mark(self) -> int:
        """The position of an operation that starts now."""
        return len(self.rounds)

    def scale(self, seconds: float, mark: int | None = None) -> float:
        """``seconds`` measured at ``mark`` (or over all the rounds), at
        the reference host speed."""
        if not self.enabled:
            return seconds
        near = self.rounds if mark is None else \
            self.rounds[max(0, mark - REACH):mark + REACH]
        return seconds * REF_ROUND_S / median(near)

    def scale_ops(self, times: list[float]) -> list[float]:
        """Scale operations timed one after each round, from the first."""
        return [self.scale(t, i + 1) for i, t in enumerate(times)]


def timed_setups(build, count: int):
    """Run ``build()`` ``count`` times; returns the last inputs and the
    median set-up seconds at the reference host speed.  Each call builds
    everything afresh."""
    times, inputs = [], None
    for _ in range(count):
        inputs = None
        gc.collect()
        speed = HostSpeed()
        speed.tick(SETUP_ROUNDS)
        t0 = time.perf_counter()
        inputs = build()
        elapsed = time.perf_counter() - t0
        speed.tick(SETUP_ROUNDS)
        times.append(speed.scale(elapsed))
    return inputs, median(times)


def run_passes(one_pass, seconds: float, finish=None):
    """Repeat ``one_pass()`` for ``seconds`` of measured time.

    A pass starts only if the median pass so far still fits, but at least
    :data:`MIN_PASSES` run, so per-operation medians have a majority.
    ``finish(result)``, if given, runs untimed after each pass and its
    return value is kept instead of the pass's result (so a pass's large
    outputs can be checked and dropped).  Returns each pass's wall seconds
    and kept result.
    """
    walls, results = [], []
    while True:
        gc.collect()            # start each pass from a collected heap
        t0 = time.perf_counter()
        result = one_pass()
        walls.append(time.perf_counter() - t0)
        results.append(finish(result) if finish else result)
        if len(walls) >= MIN_PASSES and \
                sum(walls) + median(walls) > seconds:
            return walls, results


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(rows) -> str:
    """Stable hash of an iterable of output rows (floats hashed exactly)."""
    h = hashlib.sha256()
    for row in rows:
        if row is None:             # an operation that failed
            row = ("<failed>",)
        h.update(repr(tuple(float.hex(x) if isinstance(x, float) else x
                            for x in row)).encode())
    return h.hexdigest()[:16]
