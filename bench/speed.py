"""The machine's current speed, for scaling job times to a nominal machine.

Wall time on the 2-core VM the benchmark was tuned on switches between a
fast and a slow phase (about 1.6 times slower) every few hundred
milliseconds to minutes, and CPU time moves with it, so the same job can
read 60 ms in one run and 90 ms in the next.  A worker therefore times a
fixed piece of standard-library work (the probe) every PROBE_EVERY_S of
wall time, from a timer signal's handler so that long jobs are sampled
while they run, leaves the probes' time out of every job's time, and
scales each job's time by NOMINAL_PROBE_S over the median of the probes
around it.  A scaled time is what the job would take on a machine that
runs the probe in NOMINAL_PROBE_S: it moves with the program but much
less with the machine's phase.  The probe does not touch sepscope, so no
change to the package can move it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import signal
import statistics
from time import perf_counter
from typing import List, Sequence, Tuple

# the probe's median on the 2-core VM the benchmark was tuned on, so that
# scaled times read about as wall times did there
NOMINAL_PROBE_S = 0.0025
PROBE_EVERY_S = 0.05
PROBES_AT_EDGE = 5  # probes taken back to back before the first and after the last job
NEAREST = 3  # fewest probes whose median scales one job
WINDOW_S = 0.2  # a job is scaled by the probes during it and within WINDOW_S of it


# the text half of the probe parses this edge list of 392 edges
_EDGE_LIST = "\n".join(f"{u} {v}" for u in range(60) for v in range(u + 1, min(60, u + 8)))


def probe() -> float:
    """Seconds the fixed piece of work took just now.

    Two halves: integer arithmetic with dict updates, the kind of bytecode
    the package's searches run, and parsing an edge list, hashing it and a
    JSON round trip, the kind of work its CLI does.  The collector is
    paused, so the size of the worker's heap does not move the probe.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        counts: dict = {}
        acc = 0
        for i in range(7500):
            acc = (acc * 31 + i) & 0xFFFF
            counts[acc % 257] = counts.get(acc % 257, 0) + 1
        edges = [tuple(int(x) for x in line.split()) for line in _EDGE_LIST.splitlines()]
        digest = hashlib.sha256(_EDGE_LIST.encode()).hexdigest()
        doc = json.loads(json.dumps({"n": 60, "edges": edges, "sha256": digest}, indent=2, sort_keys=True))
        took = perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if sum(counts.values()) != 7500 or len(doc["edges"]) != 392:
        raise AssertionError("probe computed the wrong answer")
    return took


def probes(count: int) -> List[Tuple[float, float]]:
    """`count` probes back to back, as (midpoint, seconds)."""
    out = []
    for _ in range(count):
        start = perf_counter()
        took = probe()
        out.append((start + took / 2, took))
    return out


def scale(taken: Sequence[Tuple[float, float]]) -> float:
    """NOMINAL_PROBE_S over the median of the probes' durations."""
    if not taken:
        raise ValueError("no probes")
    return NOMINAL_PROBE_S / statistics.median(took for _, took in taken)


def scales(jobs: Sequence[Tuple[float, float]], taken: Sequence[Tuple[float, float]]) -> List[float]:
    """The scale of each (start, end) job: scale() of the probes around it.

    Those are the probes during the job and within WINDOW_S of it, and at
    least the NEAREST nearest ones.  A probe's distance to a job is the time
    between the probe's midpoint and the nearer end of the job, 0 inside it.
    """
    out = []
    for start, end in jobs:
        by_distance = sorted((max(start - mid, mid - end, 0.0), mid, took) for mid, took in taken)
        near = [p for p in by_distance if p[0] <= WINDOW_S]
        if len(near) < NEAREST:
            near = by_distance[:NEAREST]
        out.append(scale([(mid, took) for _, mid, took in near]))
    return out


class Sampler:
    """Probes every PROBE_EVERY_S of wall time from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so it pauses the
    job in progress, and each probe lies wholly inside or wholly outside any
    interval the main thread timed; within() is the time probes took inside
    one, which the caller leaves out of the job's time.
    """

    def __init__(self) -> None:
        self.taken: List[Tuple[float, float]] = []
        self.spans: List[Tuple[float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        took = probe()
        end = perf_counter()
        self.taken.append((start + took / 2, took))
        self.spans.append((start, end))

    def within(self, t0: float, t1: float) -> float:
        """Seconds the probes between t0 and t1 took, handler overhead included."""
        total = 0.0
        for start, end in reversed(self.spans):
            if end <= t0:
                break
            if start >= t0 and end <= t1:
                total += end - start
        return total

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
