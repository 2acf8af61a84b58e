"""A fixed reference task that calibrates op times against the host's speed.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts by
±20% and more over seconds to minutes, and moves the timings of a run
together. The benchmark runs this task between ops, outside their timing, and
rescales each timed interval by the reference runs near it:

    calibrated = seconds * NOMINAL_S / (median duration of the reference
                 runs within WINDOW_S of the interval)

that is, the interval's length on a host running the reference at its
nominal speed. The median over a few seconds of reference runs follows the
drift but not the jitter of a single run. A change to hsmoe moves
calibrated times as it moves wall times, because this task runs none of
hsmoe's code.

The task mixes what a workload's ops spend their time on, because the
drift moves interpreter work and memory traffic by different amounts. Its
``"interpreter"`` kind runs a Python loop, many numpy calls on small arrays,
a small matmul and passes over a 2 MB array. Its ``"memory"`` kind adds a
brute-force point distance whose 7 MB temporary leaves the core's caches,
as HD95 and conv3d's im2col do. An op that runs on several threads is
calibrated by as many copies of the task run at once, so that the reference
feels every core the op uses.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

import numpy as np

# median duration of ``run(kind, threads)`` on the tuning machine (2 vCPUs
# of a shared Xeon host, OpenBLAS pinned to one thread)
NOMINAL_S = {("interpreter", 1): 0.010, ("memory", 1): 0.018, ("memory", 2): 0.035}
# reference runs this close to an interval calibrate it
WINDOW_S = 2.0

_rng = np.random.default_rng(0)
_SMALL = _rng.random((4, 8, 8, 8))
_MAT = _rng.random((128, 128))
_BIG = _rng.random((64, 64, 64))
_POINTS = _rng.random((500, 3)), _rng.random((600, 3))


def run(kind: str, threads: int) -> float:
    """Run the reference task of ``kind`` once on each of ``threads`` threads
    at once; returns the wall time in seconds."""
    memory = kind == "memory"
    start = perf_counter()
    if threads == 1:
        _task(memory)
    else:
        workers = [threading.Thread(target=_task, args=(memory,)) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    return perf_counter() - start


def _task(memory: bool) -> None:
    total = 0
    for j in range(30000):
        total += j * j % 7
    y = _SMALL
    for _ in range(250):
        y = (y * 1.0001 + 0.5).reshape(4, 512).T.copy().T.reshape(4, 8, 8, 8)
        y = y - y.mean()
    for _ in range(6):
        _MAT @ _MAT
    for _ in range(3):
        (_BIG * 1.0001 + 1.0).sum(axis=0)
    if memory:
        src, dst = _POINTS
        ((src[:, None, :] - dst[None, :, :]) ** 2).sum(-1).min(axis=1)


def warm_up() -> None:
    """Run the task until its first-call costs (page faults, numpy's lazy
    set-up) are paid, so that the first op is calibrated like the rest."""
    for _ in range(5):
        _task(memory=True)


class Clock:
    """Reference runs of one kind with the time each was made, and the
    intervals calibrated against them."""

    def __init__(self, kind: str, threads: int):
        self.kind = kind
        self.threads = threads
        self.samples = []  # (midpoint, duration) of each reference run

    def sample(self) -> None:
        start = perf_counter()
        duration = run(self.kind, self.threads)
        self.samples.append((start + duration / 2, duration))

    def calibrated(self, start: float, end: float) -> float:
        """``end - start`` in seconds at the reference's nominal speed."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return (end - start) * NOMINAL_S[self.kind, self.threads] / statistics.median(near)
