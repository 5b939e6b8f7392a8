"""Clocks and sample summaries shared by the harness, the layer pass and compare.py."""

from __future__ import annotations

import heapq
import os
import resource
import statistics
import time
from contextlib import contextmanager

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(worker_pids=()) -> float:
    """User+system CPU of this process, its reaped children and the live ``worker_pids``.

    Live fleet workers are not covered by ``os.times()`` until they are
    reaped, so their utime+stime is read from ``/proc/<pid>/stat``.
    """
    # process_time() has nanosecond resolution; os.times() and /proc count
    # 10 ms scheduler ticks, which is all the kernel offers for other processes.
    times = os.times()
    total = time.process_time() + times.children_user + times.children_system
    for pid in worker_pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                # Fields after the parenthesised command name; utime and stime
                # are fields 14 and 15 of the full line.
                fields = handle.read().rsplit(b")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        except (OSError, IndexError, ValueError):
            pass  # the worker exited between listing and reading
    return total


def peak_rss_mib(worker_pids=()) -> float:
    """High-water resident memory of this process plus that of the live workers, in MiB."""
    # ru_maxrss and VmHWM are both reported in KiB on Linux.
    total_kib = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for pid in worker_pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += float(line.split()[1])
                        break
        except (OSError, IndexError, ValueError):
            pass
    return total_kib / 1024.0


#: Indices into a segment's ``(wall, cpu, spin)`` record.
WALL, CPU, SPIN = 0, 1, 2

#: The calibration spin: a fixed loop of what the interpreter does all day in
#: this program -- allocate small objects, push and pop a heap, fill and read
#: a dict -- run before every timed segment, and the time it takes on the
#: reference host (the 2-vCPU sandbox this benchmark was built on, when
#: undisturbed).  Their ratio is how much slower than the reference the host
#: is running *right now*; see README, "Noise".
SPIN_OBJECTS = 1500
REFERENCE_SPIN_S = 0.0017


class _Record:
    __slots__ = ("key", "index", "payload")

    def __init__(self, key: float, index: int, payload: tuple) -> None:
        self.key = key
        self.index = index
        self.payload = payload


def _churn() -> None:
    heap: list = []
    table: dict = {}
    for index in range(SPIN_OBJECTS):
        record = _Record(index * 0.37 % 1.0, index, (index, str(index)))
        heapq.heappush(heap, (record.key, index, record))
        table[index] = record
    while heap:
        _, index, record = heapq.heappop(heap)
        assert table[index] is record


def spin() -> float:
    """Seconds this host takes, right now, for the fixed calibration loop.

    The loop runs twice and the second run is timed: the first refills the
    CPU caches the preceding segment emptied, which would otherwise be read
    as a slow host.
    """
    _churn()
    start = time.perf_counter()
    _churn()
    return time.perf_counter() - start


def worker_spin(_payload=None) -> float:
    """:func:`spin` as an executor task, so a fleet can spin where its work runs."""
    return spin()


class Meter:
    """Accumulates wall and CPU seconds over the timed segments of one pass.

    A pass is timed in segments so the harness can check (and drop) each
    sweep's results between them without the checking -- or the garbage a
    retained result list would cause -- landing in the measurement.  Each
    segment is preceded by one (untimed) calibration spin.
    """

    def __init__(self, worker_pids=(), spin=spin) -> None:
        self.worker_pids = list(worker_pids)
        self.spin = spin
        self.wall = 0.0
        self.cpu = 0.0
        #: ``{label: (wall seconds, cpu seconds, spin seconds)}`` of each segment.
        self.segments: dict = {}

    @contextmanager
    def segment(self, label: str):
        spin_s = self.spin()
        cpu_start = cpu_seconds(self.worker_pids)
        wall_start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall_start
            cpu = cpu_seconds(self.worker_pids) - cpu_start
            self.wall += wall
            self.cpu += cpu
            self.segments[label] = (wall, cpu, spin_s)


def floor_seconds(meters, clock: int = WALL, group: str = "") -> float:
    """The undisturbed time of a pass: each segment at its best over ``meters``, summed.

    Host noise only ever adds time, and arrives in bursts longer than a
    segment but shorter than a run (see README, "Noise"), so the minimum
    over the passes is the steady estimate of each segment.  ``group``
    restricts the sum to the segments labelled ``group`` or ``group.<index>``.
    """
    return sum(
        min(meter.segments[label][clock] for meter in meters)
        for label in meters[0].segments
        if not group or label.partition(".")[0] == group
    )


def host_slowdown(meters) -> float:
    """How much slower than the reference host this run's passes ran (1.0 = as fast).

    The calibration spins are floored exactly like the segments they
    precede, so a slow phase that lifts a whole run lifts both alike.
    """
    return floor_seconds(meters, SPIN) / (len(meters[0].segments) * REFERENCE_SPIN_S)


def mean_slowdown(meter) -> float:
    """How much slower than the reference host one pass ran, bursts included.

    For a pass that is measured once and cannot be floored (the warm-up pass
    inside set-up): its spins met the same bursts its segments did, so their
    mean is the matching divisor.
    """
    spins = [segment[SPIN] for segment in meter.segments.values()]
    return sum(spins) / (len(spins) * REFERENCE_SPIN_S)


def summarize(samples) -> dict:
    """Median, quartiles, extremes and count of ``samples`` (at least one)."""
    samples = sorted(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "min": samples[0],
        "max": samples[-1],
        "n": len(samples),
    }
