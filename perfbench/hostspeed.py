"""Host-speed probe: a fixed block of CPU work, timed between requests.

The 2-core virtual machine this benchmark was sized on changes speed by
up to 2x within seconds and drifts by 1.5x over minutes, with no steal
time and no other process running: one identical tune (same seed, warm
caches) took from 0.21 to 0.42 s within one minute, and its CPU time
moved with its wall time.  A wall-clock figure from such a host says as
much about the neighbours as about the program.

So the benchmark times this probe, which never changes, at fixed
intervals while no request is in flight, and divides every timing by
the run's *host speed* (:func:`host_speed`): the run's mean probe time
over :data:`REFERENCE_S`, the probe's median on the reference host.
The printed timings are then seconds on the reference host.  The probe mixes the
kinds of work the program does -- a subset DP over dict-held integers,
short numpy vector operations, and tuple keys sorted by a key function
-- so that it slows with the host where the program does.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import numpy

#: Median seconds of one :func:`probe` on the reference host, the one
#: this benchmark was built on: a 2-core Intel Xeon (Sapphire Rapids)
#: KVM guest, Python 3.11, numpy 2.4; over 700 probes in 20 s.
REFERENCE_S = 0.0200

_RNG = numpy.random.default_rng(0)
_ROWS = _RNG.random((64, 512))
_PICK = _RNG.integers(0, 512, 400)
_NAMES = [f"t{table}.c{column}" for table in range(40) for column in range(12)]


def _subset_dp(items: int = 11) -> float:
    best = {0: 0.0}
    for mask in range(1, 1 << items):
        cost = float("inf")
        rest = mask
        while rest:
            low = rest & -rest
            candidate = best[mask ^ low] + ((low.bit_length() * 7 + mask) % 13)
            if candidate < cost:
                cost = candidate
            rest ^= low
        best[mask] = cost
    return best[(1 << items) - 1]


def _vectors() -> float:
    total = 0.0
    for step in range(150):
        row = _ROWS[step % len(_ROWS)]
        total += float(numpy.minimum(row[_PICK], 0.5).sum())
        total += float(numpy.cumsum(row)[-1]) + float(numpy.argsort(row[:128])[0])
    return total


def _records() -> tuple:
    counts: dict[tuple[str, int], int] = {}
    ordered: list = []
    for _ in range(6):
        for number, name in enumerate(_NAMES):
            key = (name, number % 7)
            counts[key] = counts.get(key, 0) + len(name.split(".")[1])
        ordered = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    return ordered[0]


def _block() -> None:
    _subset_dp()
    _vectors()
    _records()


def probe() -> float:
    """Run the fixed block of work once untimed, then twice timed;
    return the wall seconds of the timed two.

    The untimed pass wakes a processor that sat idle, which runs the
    first pass about 10% slower.  The garbage collector is off
    meanwhile: a collection would walk the program's whole heap, and the
    probe would time the heap's size.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _block()
        start = time.perf_counter()
        _block()
        _block()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe_each(cpus: list[int]) -> list[float]:
    """One :func:`probe` pinned to each of ``cpus`` in turn, for work
    that ran on all of them; the calling thread's affinity is restored."""
    allowed = os.sched_getaffinity(0)
    try:
        seconds = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            seconds.append(probe())
        return seconds
    finally:
        os.sched_setaffinity(0, allowed)


def host_speed(probes: list[float]) -> float:
    """How much slower than the reference host this run's host was: the
    mean probe time, less the fastest and slowest tenth, over
    :data:`REFERENCE_S`.

    A mean, because the host flips between a fast and a slow state, and
    the median of such samples jumps from one state to the other.
    """
    ordered = sorted(probes)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut]) / REFERENCE_S
