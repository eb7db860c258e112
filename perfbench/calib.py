"""Host-speed calibration.

Raw wall time on a shared VM drifts with the machine, not with the
code.  Every host-time end-to-end metric is therefore reported in
*reference-host units*: ``raw * C_REF_MS / C_run``, where ``C_run`` is
the median time of the fixed loop below, measured in the process that
runs the program, between operations, while no request is in flight.

The loop has two parts: interpreter work (dicts, branches, floats) and
a NumPy gather streaming 16 MB.  On a shared VM the host's speed swings
by up to 2x within a second, and not evenly: a pure-interpreter loop
lives in the L1 cache and misses
the memory-bandwidth and last-level-cache contention that slows the
simulator, whose NumPy backend in particular is memory-bound.  Measured
on 2 vCPUs, the mixed loop tracked both the scalar and the vector
backend's op times to within about 3% across processes, where the
interpreter-only loop left 5-10%.

This module imports nothing from ``repro`` on purpose: the loop must
not change when the program does.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple

import numpy as np

#: the reference host is one on which a sample takes this long; pinned
#: once, since changing it rescales every calibrated metric
C_REF_MS = 10.0

#: interpreter-loop trip count and NumPy working set, sized so one
#: sample takes about 8 ms, about 60% of it in the NumPy part (the mix
#: that tracked both backends best)
_TRIPS = 10_000
_VERTICES = 30_720
_EDGES = 500_000
#: gather passes per sample (a pass streams 8 MB)
_PASSES = 2
#: between ops, at most one sample per this many seconds
SAMPLE_INTERVAL_S = 0.1


class _Arrays:
    """The NumPy part's fixed inputs and output buffer, built on first use.

    Nothing is allocated per sample: a fresh multi-MB array would come
    from ``mmap`` or from the heap depending on the process's allocation
    history (glibc's adaptive mmap threshold), and its page faults would
    make the loop's speed depend on the workload it runs beside.
    """

    built = None

    @classmethod
    def get(cls):
        if cls.built is None:
            rng = np.random.default_rng(12345)
            cls.built = (
                rng.random(_VERTICES),
                rng.integers(0, _VERTICES, _EDGES).astype(np.intp),
                np.empty(_EDGES),
            )
        return cls.built


def _interpreter(trips: int) -> float:
    """Dict, branch, float and list work in the interpreter's hot path
    -- the same instruction mix the simulator's inner loops spend their
    time on."""
    table = {}
    acc = 0.0
    out = []
    for i in range(trips):
        key = i & 255
        value = table.get(key, 0.5) * 0.999 + i
        table[key] = value
        if value > acc:
            acc = value - acc * 0.5
        else:
            acc += 1.0
        if not i & 15:
            out.append(key)
    return acc + len(out)


def _memory(values, sources, gathered) -> float:
    total = 0.0
    for _ in range(_PASSES):
        np.take(values, sources, out=gathered)
        np.multiply(gathered, 0.5, out=gathered)
        total += float(gathered.sum())
    return total


def sample_ms() -> float:
    """One timed pass of the calibration loop, in milliseconds."""
    arrays = _Arrays.get()
    start = time.perf_counter()
    _interpreter(_TRIPS)
    _memory(*arrays)
    return (time.perf_counter() - start) * 1e3


class Calibration:
    """The calibration samples of one run.

    ``factor`` is ``C_REF_MS / C_run`` with ``C_run`` the median of every
    sample in the run.  One factor per run, not one per op: a per-op
    factor from nearby samples adds its own sampling noise, and the tail
    then selects the ops whose factor erred low.
    """

    def __init__(self, sampler: Callable[[], float] = sample_ms) -> None:
        #: takes one sample, in milliseconds, in the process that runs the
        #: program (the serve workloads ask their server process)
        self.sampler = sampler
        self.samples: List[Tuple[float, float]] = []

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append((time.perf_counter(), self.sampler()))

    def maybe_take(self) -> None:
        """Take one sample if ``SAMPLE_INTERVAL_S`` passed since the last
        one; call only at points where no request is in flight."""
        if not self.samples or (
            time.perf_counter() - self.samples[-1][0] >= SAMPLE_INTERVAL_S
        ):
            self.take()

    def median_ms(self) -> float:
        if not self.samples:
            raise RuntimeError("no calibration samples taken")
        return statistics.median(ms for _, ms in self.samples)

    @property
    def factor(self) -> float:
        return C_REF_MS / self.median_ms()


if __name__ == "__main__":
    values = [sample_ms() for _ in range(50)]
    print(
        f"calibration loop: median {statistics.median(values):.3f} ms, "
        f"min {min(values):.3f}, max {max(values):.3f} over 50 samples"
    )
