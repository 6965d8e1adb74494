"""Host speed, sampled while a pass runs, to express its time at a fixed speed.

The benchmark's host is a share of a machine whose speed drifts by tens
of percent within seconds (other tenants), in wall *and* CPU time alike,
so a pass's raw host seconds mostly measure the neighbours.  A thread in
the parent runs a small fixed pure-Python kernel (dict, list, heap,
method-call and generator work, like the simulator's) every
``INTERVAL_S`` on each CPU the pass keeps busy, and records the kernel's
*thread CPU time*, which waiting for a CPU does not inflate.  A pass's
time at reference speed is then

    sum over its sampling intervals of  dt * REFERENCE_KERNEL_S / kernel_s

i.e. its wall time scaled by how fast the host was while it ran, in
seconds of a host on which the kernel takes ``REFERENCE_KERNEL_S``.
The kernel is the benchmark's own code, so no change to the program
moves it.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from typing import Sequence

#: Seconds between kernel samples.
INTERVAL_S = 0.1
#: Kernel CPU seconds on the reference host (about what a 2-vCPU Xeon KVM
#: guest takes when its neighbours are quiet).  Any constant works: it
#: only sets the unit; the ratio of two runs does not depend on it.
REFERENCE_KERNEL_S = 0.001
#: Share of an interval a CPU must have been busy to be sampled.
BUSY_SHARE = 0.5
#: A short interval is widened to this many seconds of samples.
MIN_SPAN_S = 1.0


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


def _gen(n: int):
    for i in range(n):
        yield i & 7


def kernel() -> int:
    """A fixed amount of interpreter work (about 1 ms on the reference host)."""
    table: dict[int, _Node] = {}
    heap: list[tuple[int, int]] = []
    total = 0
    for i in range(1000):
        node = table.get(i % 64)
        if node is None:
            node = table[i % 64] = _Node(i, 0)
        total += node.bump(i & 3)
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 32:
            total += heapq.heappop(heap)[1]
        total += sum(_gen(4))
    return total


def busy_ticks() -> dict[int, int]:
    """Clock ticks each CPU has spent running something, from /proc/stat."""
    ticks = {}
    with open("/proc/stat") as fh:
        for line in fh:
            name, *fields = line.split()
            if name.startswith("cpu") and name != "cpu":
                user, nice, system, _idle, _iowait, irq, softirq = map(int, fields[:7])
                ticks[int(name[3:])] = user + nice + system + irq + softirq
    return ticks


class SpeedSampler:
    """Samples host speed on a daemon thread until stopped.

    Every ``INTERVAL_S`` it runs the kernel once on each CPU that was busy
    (at least ``BUSY_SHARE`` of the interval) since the last sample, pinned
    there, so it measures the CPUs the pass runs on: an idle CPU's speed
    is not the pass's, and reads slow (cold) besides.  With no CPU busy
    it samples them all.
    """

    def __init__(self):
        #: (epoch time of the sample, mean reference speed of the CPUs sampled)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        full = INTERVAL_S * os.sysconf("SC_CLK_TCK")
        before = busy_ticks()
        while not self._stop.wait(INTERVAL_S):
            after = busy_ticks()
            busy = [c for c in cpus if after.get(c, 0) - before.get(c, 0) >= BUSY_SHARE * full]
            speeds = []
            for cpu in busy or cpus:
                # Pid 0 is this thread alone, not the whole parent.
                os.sched_setaffinity(0, {cpu})
                start = time.thread_time()
                kernel()
                speeds.append(REFERENCE_KERNEL_S / (time.thread_time() - start))
            self.samples.append((time.time(), sum(speeds) / len(speeds)))
            before = busy_ticks()

def reference_seconds(samples: Sequence[tuple[float, float]], start: float, end: float) -> float:
    """``end - start`` scaled to reference speed by the samples taken then.

    The samples are evenly spaced, so the time-weighted speed over the
    interval is the mean of the speeds sampled in it.
    An interval shorter than ``MIN_SPAN_S`` (set-up) is judged by the
    samples of the ``MIN_SPAN_S`` around its middle.
    """
    if end < start:
        raise ValueError("interval ends before it starts")
    lo, hi = start, end
    if hi - lo < MIN_SPAN_S:
        middle = (lo + hi) / 2
        lo, hi = middle - MIN_SPAN_S / 2, middle + MIN_SPAN_S / 2
    speeds = [speed for t, speed in samples if lo <= t <= hi]
    if not speeds:
        raise ValueError(f"no speed samples between {lo} and {hi}")
    return (end - start) * sum(speeds) / len(speeds)
