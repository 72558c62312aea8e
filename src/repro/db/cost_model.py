"""Physical cost primitives shared by the simulated engines.

The simulator separates two concerns the way a real DBMS does:

1. **Plan selection** uses the *configured* planner constants
   (``random_page_cost``, ``cpu_*``, ``effective_cache_size``,
   ``enable_*``).  Changing them changes which plan is picked, not how
   fast the hardware is.
2. **Execution** is timed with *true* physical constants (actual cache
   hit ratios derived from the buffer pool size, actual spill behaviour
   derived from the sort/hash memory budget, actual parallel speedup).

The gap between the two is what makes optimizer-constant tuning
(ParamTree, and lambda-Tune's ``random_page_cost`` recommendations)
matter: with the PostgreSQL default ``random_page_cost = 4`` the planner
refuses index plans that would actually win on cached or NVMe-backed
data.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.db.catalog import PAGE_SIZE
from repro.db.hardware import HardwareSpec
from repro.db.knobs import MB

# True physical cost of a random page fetch relative to a sequential one
# on the simulated NVMe-class storage (PostgreSQL docs suggest ~1.1 for
# fully SSD/cached setups).
TRUE_RANDOM_PAGE_FACTOR = 1.15
# True CPU cost constants, in planner units per tuple/operator.  These are
# close to the PostgreSQL defaults, which were calibrated against real
# hardware ratios.
TRUE_CPU_TUPLE = 0.01
TRUE_CPU_INDEX_TUPLE = 0.005
TRUE_CPU_OPERATOR = 0.0025


@dataclass(frozen=True, slots=True)
class PlannerCosts:
    """Cost constants the *plan chooser* believes in (configured)."""

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = TRUE_CPU_TUPLE
    cpu_index_tuple_cost: float = TRUE_CPU_INDEX_TUPLE
    cpu_operator_cost: float = TRUE_CPU_OPERATOR
    effective_cache_bytes: int = 4 * 1024**3
    enable_hashjoin: bool = True
    enable_mergejoin: bool = True
    enable_nestloop: bool = True
    join_search_depth: int = 62


@dataclass(frozen=True, slots=True)
class RuntimeEnv:
    """True execution environment derived from config + hardware."""

    buffer_pool_bytes: int
    sort_hash_mem_bytes: int
    agg_mem_bytes: int
    maintenance_mem_bytes: int
    parallel_workers: int
    io_concurrency: float
    # Multiplicative overhead from logging/checkpoint settings (tiny for
    # OLAP; the paper notes logging knobs are "less relevant" here).
    logging_factor: float
    # Multiplicative penalty from memory oversubscription (swapping).
    swap_factor: float
    hardware: HardwareSpec

    @property
    def seconds_per_cost_unit(self) -> float:
        """Anchor: one cost unit == one sequential 8 KiB page read."""
        return PAGE_SIZE / (self.hardware.disk_mb_per_s * MB)


def cache_hit_ratio(env: RuntimeEnv, working_set_bytes: int) -> float:
    """Fraction of page reads served from memory.

    The buffer pool caches fully; memory left over to the OS page cache
    helps at half effectiveness (double-buffering, eviction pressure).
    """
    if working_set_bytes <= 0:
        return 1.0
    pool = env.buffer_pool_bytes
    os_cache = max(0, env.hardware.memory_bytes - pool) * 0.5
    effective = pool + os_cache
    return max(0.0, min(0.99, effective / working_set_bytes))


def spill_passes(bytes_needed: int, memory_bytes: int) -> float:
    """Extra I/O passes for a sort/hash exceeding its memory budget.

    Returns 0.0 when everything fits; otherwise the number of times the
    data is written out and re-read (external merge / hash partitioning
    rounds, with a generous fan-in so the growth is logarithmic).
    """
    memory = max(memory_bytes, 64 * 1024)
    if bytes_needed <= memory or bytes_needed <= 0:
        return 0.0
    return 1.0 + math.log2(bytes_needed / memory) / 6.0


def parallel_speedup(workers: int, cores: int) -> float:
    """Sub-linear speedup for parallel scans/joins (Amdahl-flavoured)."""
    effective = max(1, min(workers, cores))
    return effective**0.8


def oversubscription_penalty(
    allocated_bytes: int, memory_bytes: int
) -> float:
    """Swap penalty once fixed allocations approach physical memory.

    Up to 80% of RAM is free; beyond that the penalty ramps steeply --
    a configuration that allocates more memory than the machine has is
    one of the classic "disproportionately slow" LLM outputs the paper's
    selector must survive.
    """
    ratio = allocated_bytes / max(1, memory_bytes)
    if ratio <= 0.8:
        return 1.0
    return 1.0 + ((ratio - 0.8) * 12.0) ** 2


def deterministic_noise(*parts: object, amplitude: float = 0.03) -> float:
    """A reproducible multiplicative jitter in ``[1-a, 1+a]``.

    Real measurements vary run to run; we derive the "variance" from a
    hash of the inputs so results stay bit-identical across runs while
    different (query, configuration) pairs decorrelate.
    """
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / float(2**64)
    return 1.0 + amplitude * (2.0 * unit - 1.0)


# -- array-form kernels -------------------------------------------------------
#
# Batched counterparts of the scalar kernels above, used by the
# planner (``repro.db.planner``).  The discipline is
# bit-transparency: every element of an array result must equal the
# scalar kernel applied to that element, down to the last ulp.  Plain
# float64 arithmetic (+ - * / min max) is elementwise IEEE-754 and
# matches CPython exactly, but numpy's transcendental ufuncs (log, log2,
# pow) use SIMD implementations whose rounding differs from libm, so
# every transcendental below is evaluated through ``math`` -- either on
# the (typically tiny) masked subset that needs it, or once per unique
# input.  The arrays carry the bulk arithmetic; libm carries the logs.


def cache_hit_ratio_array(env: RuntimeEnv, working_set_bytes: np.ndarray) -> np.ndarray:
    """Vector form of :func:`cache_hit_ratio` (pure arithmetic, exact)."""
    working = np.asarray(working_set_bytes, dtype=np.float64)
    pool = env.buffer_pool_bytes
    os_cache = max(0, env.hardware.memory_bytes - pool) * 0.5
    effective = pool + os_cache
    ratio = np.maximum(0.0, np.minimum(0.99, effective / np.maximum(working, 1.0)))
    return np.where(working <= 0, 1.0, ratio)


def spill_passes_array(bytes_needed: np.ndarray, memory_bytes: int) -> np.ndarray:
    """Vector form of :func:`spill_passes`.

    ``log2`` is evaluated with :func:`math.log2` on the spilling subset
    only, so every element is bit-identical to the scalar kernel.
    """
    needed = np.asarray(bytes_needed, dtype=np.float64)
    memory = max(memory_bytes, 64 * 1024)
    passes = np.zeros(needed.shape, dtype=np.float64)
    spilling = np.nonzero((needed > memory) & (needed > 0))[0]
    if spilling.size:
        ratios = (needed[spilling] / memory).tolist()
        logs = np.array([math.log2(ratio) for ratio in ratios], dtype=np.float64)
        passes[spilling] = 1.0 + logs / 6.0
    return passes


def parallel_speedup_array(workers: np.ndarray, cores: int) -> np.ndarray:
    """Vector form of :func:`parallel_speedup`.

    ``** 0.8`` goes through CPython's ``pow`` once per *unique* worker
    count (there are at most a handful), never through ``np.power``.
    """
    counts = np.asarray(workers)
    effective = np.maximum(1, np.minimum(counts, cores))
    result = np.empty(effective.shape, dtype=np.float64)
    for count in np.unique(effective):
        result[effective == count] = float(count) ** 0.8
    return result


def oversubscription_penalty_array(
    allocated_bytes: np.ndarray, memory_bytes: int
) -> np.ndarray:
    """Vector form of :func:`oversubscription_penalty`.

    The quadratic ramp is evaluated with scalar ``**`` on the (rare)
    oversubscribed subset for exact parity with the scalar kernel.
    """
    allocated = np.asarray(allocated_bytes, dtype=np.float64)
    ratio = allocated / max(1, memory_bytes)
    penalty = np.ones(ratio.shape, dtype=np.float64)
    over = np.nonzero(ratio > 0.8)[0]
    if over.size:
        values = ratio[over].tolist()
        penalty[over] = [1.0 + ((value - 0.8) * 12.0) ** 2 for value in values]
    return penalty


def deterministic_noise_vector(
    draws: list[tuple], amplitude: float = 0.03
) -> np.ndarray:
    """Batched :func:`deterministic_noise` over a vector of draw tuples.

    The SHA-256 digests are inherently per-element; the arithmetic that
    turns digests into jitter factors is a single array pass that
    mirrors the scalar expression operation for operation.
    """
    units = np.array(
        [
            int.from_bytes(
                hashlib.sha256("|".join(map(str, parts)).encode()).digest()[:8],
                "big",
            )
            / float(2**64)
            for parts in draws
        ],
        dtype=np.float64,
    )
    return 1.0 + amplitude * (2.0 * units - 1.0)
