"""Execution backends: serial, statically partitioned threads, dynamic leaves.

The contract every backend honors: the unit index space [0, n) is covered by
calls ``body(start, stop)`` over disjoint half-open ranges, each unit exactly
once.  Bodies may write only to locations owned by their units and read only
shared immutable inputs, so any interleaving yields identical memory contents.
The bodies' return values come back as one list in ascending leaf order, for
the caller to fold.

There is one scheduler.  A backend only fixes a thread count and a grain, from
the unit count and the caller's alignment, the units in one band of a tiling
(only WorkStealing's default grain uses it, rounding to whole bands); the
units are cut into fixed leaves of `grain` units, which are handed out in
ascending order, never split and never stolen.  When a leaf fails, no further
leaf is started, and the failure of the lowest failing leaf is the one raised,
whatever the backend.

Threads carry their weight here because the bodies are numpy-vectorized: the
interpreter lock is released inside array arithmetic, which is where nearly
all of the time goes.  Worker pools are created once per process and reused,
so steady-state measurements are not polluted by thread start-up.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

THREAD_COUNT_ENV = "WAVESWEEP_NUM_THREADS"


class ParallelError(RuntimeError):
    """A body call failed; identifies the unit range that raised."""

    def __init__(self, unit_start: int, unit_stop: int, cause: BaseException):
        super().__init__(f"parallel body failed on units [{unit_start}, {unit_stop}): {cause!r}")
        self.unit_start = unit_start
        self.unit_stop = unit_stop


@dataclass(frozen=True)
class Serial:
    """One leaf holding every unit, run on the calling thread."""

    def threads_and_grain(self, n_units: int, align: int = 1) -> tuple[int, int]:
        return 1, n_units


@dataclass(frozen=True)
class StaticThreads:
    """n threads over at most n contiguous leaves of ceil(U/n) units each."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"thread count must be >= 1, got {self.n}")

    def threads_and_grain(self, n_units: int, align: int = 1) -> tuple[int, int]:
        return self.n, -(-n_units // self.n)


@dataclass(frozen=True)
class WorkStealing:
    """n threads over leaves of `grain` units, taken by whichever worker is free.

    grain=None picks ceil(n_units / (8 n)) units per leaf, which keeps the
    per-leaf overhead negligible while leaving each worker several leaves to
    balance the load with.  When that leaf is at least half a band of `align`
    units, it is rounded to the nearest whole number of bands (at least one),
    so a leaf of a tiling never cuts a band into pieces; narrower leaves are
    kept, so wide bands still make enough leaves.  An explicit grain is
    honored exactly.  The name is kept for the command line: idle workers
    take the next leaf in ascending order rather than steal from one another.
    """

    n: int
    grain: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"thread count must be >= 1, got {self.n}")
        if self.grain is not None and self.grain < 1:
            raise ValueError(f"grain must be >= 1, got {self.grain}")

    def threads_and_grain(self, n_units: int, align: int = 1) -> tuple[int, int]:
        if self.grain is not None:
            return self.n, self.grain
        grain = -(-n_units // (8 * self.n))
        if 2 * grain >= align:  # at least half a band: the nearest whole number of bands
            grain = (2 * grain + align) // (2 * align) * align
        return self.n, grain


Backend = Serial | StaticThreads | WorkStealing


def detect_cores() -> int:
    """Available hardware concurrency; falls back to 1."""
    return os.cpu_count() or 1


def default_thread_count() -> int:
    """Thread count to use when none is given: env override, else all cores."""
    raw = os.environ.get(THREAD_COUNT_ENV)
    if raw:
        try:
            n = int(raw)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"{THREAD_COUNT_ENV} must be an integer >= 1, got {raw!r}")
        return n
    return detect_cores()


_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _get_pool(n: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(n)
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=n, thread_name_prefix=f"wavesweep{n}")
            _pools[n] = pool
        return pool


def plan(backend: Backend, n_units: int, align: int = 1) -> tuple[int, int, int]:
    """(threads, grain, workers) for a region of n_units under `backend`.

    `threads` and `grain` (at least 1) are the backend's; `workers` is how many
    threads run the region, one per leaf at most.  With one worker the caller
    runs every leaf itself.  An unknown backend raises TypeError, a negative
    unit count or an alignment below 1 ValueError.
    """
    if n_units < 0:
        raise ValueError(f"unit count must be >= 0, got {n_units}")
    if not isinstance(backend, Backend):
        raise TypeError(f"unknown backend {backend!r}")
    if align < 1:
        raise ValueError(f"alignment must be >= 1, got {align}")
    threads, grain = backend.threads_and_grain(n_units, align)
    grain = max(1, grain)
    return threads, grain, min(threads, -(-n_units // grain))


def for_each_unit(units: int, backend: Backend, body, *, align: int = 1) -> list:
    """Invoke ``body(start, stop)`` over ranges covering every unit exactly once.

    The backend fixes a thread count and a grain, and the units are cut into
    the leaves [k*grain, min((k+1)*grain, units)): Serial makes one leaf,
    StaticThreads(n) the ceiling-block partition into at most n leaves, and
    WorkStealing(n, grain) leaves of `grain` units.  With grain=None,
    WorkStealing's leaves default to ceil(units / 8n), rounded to whole bands
    of `align` units when that leaf is at least half a band; Serial and
    StaticThreads ignore `align`.  With one thread or one leaf, the leaves run
    in ascending order on the caller; otherwise up to `threads` pool workers
    each take the next leaf from one shared counter.

    Returns the body return values as a list in ascending leaf order ([] for
    zero units), whatever the backend.  A body exception stops the handing
    out of leaves and is re-raised as ParallelError naming the lowest failing
    leaf: every leaf below it was handed out first and has run to completion,
    so the choice does not depend on timing.
    """
    n_units = int(units)
    threads, grain, workers = plan(backend, n_units, align)
    n_leaves = -(-n_units // grain)
    results = [None] * n_leaves

    def run_leaf(k: int):
        a = k * grain
        b = min(a + grain, n_units)
        try:
            results[k] = body(a, b)
        except BaseException as exc:
            raise ParallelError(a, b, exc) from exc

    if workers <= 1:
        for k in range(n_leaves):
            run_leaf(k)
    else:
        lock = threading.Lock()
        handed_out = 0
        failures: list[ParallelError] = []

        def worker():
            nonlocal handed_out
            while True:
                with lock:
                    if failures or handed_out == n_leaves:
                        return
                    k = handed_out
                    handed_out += 1
                try:
                    run_leaf(k)
                except ParallelError as exc:
                    with lock:
                        failures.append(exc)

        pool = _get_pool(threads)
        for fut in [pool.submit(worker) for _ in range(workers)]:
            fut.result()
        if failures:
            raise min(failures, key=lambda exc: exc.unit_start)
    return results
