"""A fixed block of reference work, timed beside the workload's commands.

The benchmark runs on a few vCPUs of a shared host.  The host's other
tenants slow each vCPU down by 1.3-1.8x in stretches lasting from seconds to
minutes, and the two vCPUs slow down mostly independently.  A 30-second run
often falls wholly inside one slow stretch, so medians over a run do not
remove the slowdown from raw wall times.

The worker therefore times ``BLOCKS`` repetitions of a fixed block of work in
its own process right before each command and after the last one -- the same
vCPU, seconds apart -- and the pass's wall time is rescaled by

    NOMINAL_BLOCK_S / median(block times of that pass)

so that it reads as on a host where the block takes ``NOMINAL_BLOCK_S``.
The block mixes interpreter bytecode with numpy Philox draws and boolean
array updates, the kinds of work the workloads do.  It belongs to the
benchmark, not to eacsim: a change to the program moves the rescaled times
by as much as it moves the raw ones.
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL_BLOCK_S = 0.002  # the block's median on an undisturbed 2.1 GHz Xeon vCPU, rounded
BLOCKS = 20              # blocks per gap between commands (about 50 ms)

_rng = np.random.Generator(np.random.Philox(key=0))


def block() -> float:
    """Seconds one fixed block of reference work takes."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    table = {str(i): (i,) for i in range(2_000)}
    connected = np.zeros((4_000, 8), dtype=bool)
    for _ in range(6):
        connected |= _rng.random((4_000, 8)) < 0.7
    elapsed = time.perf_counter() - start
    if total != 333_283_335_000 or len(table) != 2_000 or not connected.any():
        raise AssertionError("the reference block computed a wrong result")
    return elapsed


def blocks(count: int = BLOCKS) -> list[float]:
    return [block() for _ in range(count)]
