"""Execution backends: serial, statically partitioned threads, work stealing.

The contract every backend honors: the unit index space [0, n) is covered by
calls ``body(start, stop)`` over disjoint half-open ranges, each unit exactly
once.  Bodies may write only to locations owned by their units and read only
shared immutable inputs, so any interleaving yields identical memory contents.
Per-call return values are folded with an associative, commutative `combine`
into a single accumulator on the calling thread.

Threads carry their weight here because the bodies are numpy-vectorized: the
interpreter lock is released inside array arithmetic, which is where nearly
all of the time goes.  Worker pools are created once per process and reused,
so steady-state measurements are not polluted by thread start-up.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

THREAD_COUNT_ENV = "WAVESWEEP_NUM_THREADS"

_EMPTY = object()  # sentinel: worker produced no local value yet


class ParallelError(RuntimeError):
    """A body call failed; identifies the unit range that raised."""

    def __init__(self, unit_start: int, unit_stop: int, cause: BaseException):
        super().__init__(f"parallel body failed on units [{unit_start}, {unit_stop}): {cause!r}")
        self.unit_start = unit_start
        self.unit_stop = unit_stop


@dataclass(frozen=True)
class Serial:
    """Run everything on the calling thread, units in ascending order."""


@dataclass(frozen=True)
class StaticThreads:
    """Fixed partition: units split into n contiguous blocks of ceil(U/n)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"thread count must be >= 1, got {self.n}")


@dataclass(frozen=True)
class WorkStealing:
    """Recursive range splitting down to `grain` units; idle workers steal.

    grain=None picks a leaf size of roughly n_units / (8 n) per call, which
    keeps splitting overhead negligible while leaving each worker several
    pieces to give away; an explicit grain is honored exactly.
    """

    n: int
    grain: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"thread count must be >= 1, got {self.n}")
        if self.grain is not None and self.grain < 1:
            raise ValueError(f"grain must be >= 1, got {self.grain}")


Backend = Serial | StaticThreads | WorkStealing


@dataclass(frozen=True)
class Range2D:
    """Half-open 2D index range, linearized row-major for unit bookkeeping."""

    i0: int
    i1: int
    j0: int
    j1: int

    def __post_init__(self):
        if self.i0 > self.i1 or self.j0 > self.j1:
            raise ValueError(f"bounds must be ordered, got {self}")

    @property
    def ni(self) -> int:
        return self.i1 - self.i0

    @property
    def nj(self) -> int:
        return self.j1 - self.j0

    @property
    def area(self) -> int:
        return self.ni * self.nj

    def unravel(self, flat: int) -> tuple[int, int]:
        """(i, j) of linear unit index `flat` (i varies fastest)."""
        if not 0 <= flat < self.area:
            raise IndexError(f"unit {flat} outside [0, {self.area})")
        return self.i0 + flat % self.ni, self.j0 + flat // self.ni


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


def static_blocks(n_units: int, n_threads: int) -> list[tuple[int, int]]:
    """Ceiling-block partition of [0, n_units) into at most n_threads ranges."""
    if n_units == 0:
        return []
    chunk = -(-n_units // n_threads)
    blocks = []
    for k in range(n_threads):
        a = k * chunk
        b = min(a + chunk, n_units)
        if a >= b:
            break
        blocks.append((a, b))
    return blocks


def _fold(acc, value, combine):
    if value is _EMPTY:
        return acc
    return combine(acc, value) if combine is not None else None


def _run_range(a: int, b: int, body, combine, local):
    """Execute one leaf range, folding into the worker-local accumulator."""
    try:
        r = body(a, b)
    except BaseException as exc:
        raise ParallelError(a, b, exc) from exc
    if combine is None:
        return local
    return r if local is _EMPTY else combine(local, r)


def _run_static(n_units, n_threads, body, combine, initial):
    blocks = static_blocks(n_units, n_threads)
    if len(blocks) <= 1:
        acc = initial
        for a, b in blocks:
            acc = _fold(acc, _run_range(a, b, body, combine, _EMPTY), combine)
        return acc
    pool = _get_pool(n_threads)
    futures = [pool.submit(_run_range, a, b, body, combine, _EMPTY) for a, b in blocks]
    acc = initial
    error = None
    for fut in futures:
        try:
            acc = _fold(acc, fut.result(), combine)
        except ParallelError as exc:
            error = error or exc
    if error is not None:
        raise error
    return acc


def _split_to_grain(a: int, b: int, grain: int, backlog):
    """Peel halves off [a, b) into `backlog` until it is at most `grain` wide."""
    while b - a > grain:
        mid = (a + b) // 2
        backlog.append((mid, b))
        b = mid
    return a, b


def _run_stealing(n_units, n_threads, grain, body, combine, initial):
    if n_units == 0:
        return initial
    if grain is None:
        grain = max(1, -(-n_units // (8 * n_threads)))

    if n_threads == 1:
        own = deque()
        own.extend(reversed(static_blocks(n_units, 1)))
        local = _EMPTY
        while own:
            a, b = _split_to_grain(*own.pop(), grain, own)
            local = _run_range(a, b, body, combine, local)
        return _fold(initial, local, combine)

    queues = [deque() for _ in range(n_threads)]
    for w, (a, b) in enumerate(static_blocks(n_units, n_threads)):
        queues[w].append((a, b))
    lock = threading.Lock()
    state = {"remaining": n_units, "error": None}

    def worker(w: int):
        own = queues[w]
        local = _EMPTY
        misses = 0
        while True:
            with lock:
                if state["remaining"] == 0 or state["error"] is not None:
                    return local
            task = None
            try:
                task = own.pop()  # newest own work: cache-warm, large splits stay stealable
            except IndexError:
                for off in range(1, n_threads):
                    try:
                        task = queues[(w + off) % n_threads].popleft()  # steal oldest = biggest
                        break
                    except IndexError:
                        continue
            if task is None:
                # nothing to steal right now: back off so idle workers do not
                # contend for the interpreter lock with the ones computing
                misses += 1
                time.sleep(0 if misses < 3 else min(1e-3, 1e-5 * (1 << min(misses, 10))))
                continue
            misses = 0
            a, b = _split_to_grain(*task, grain, own)
            try:
                local = _run_range(a, b, body, combine, local)
            except ParallelError as exc:
                with lock:
                    if state["error"] is None:
                        state["error"] = exc
                return local
            with lock:
                state["remaining"] -= b - a

    pool = _get_pool(n_threads)
    futures = [pool.submit(worker, w) for w in range(n_threads)]
    acc = initial
    for fut in futures:
        acc = _fold(acc, fut.result(), combine)
    if state["error"] is not None:
        raise state["error"]
    return acc


def for_each_unit(units, backend: Backend, body, *, combine=None, initial=None):
    """Invoke ``body(start, stop)`` over ranges covering every unit exactly once.

    `units` is a unit count or a Range2D (its area is the unit count; bodies
    can map flat indices back with Range2D.unravel).  Serial visits [0, n) in
    one ascending range; StaticThreads(n) issues the ceiling-block partition,
    one block per worker; WorkStealing(n, grain) splits ranges in half until
    they are at most `grain` units wide and lets idle workers steal.

    Returns initial folded with all body return values under `combine`
    (associative and commutative), or None when combine is None.  A body
    exception aborts the call and is re-raised as ParallelError naming the
    failing unit range.
    """
    n_units = units.area if isinstance(units, Range2D) else int(units)
    if n_units < 0:
        raise ValueError(f"unit count must be >= 0, got {n_units}")

    if isinstance(backend, Serial):
        if n_units == 0:
            return initial
        return _fold(initial, _run_range(0, n_units, body, combine, _EMPTY), combine)
    if isinstance(backend, StaticThreads):
        return _run_static(n_units, backend.n, body, combine, initial)
    if isinstance(backend, WorkStealing):
        return _run_stealing(n_units, backend.n, backend.grain, body, combine, initial)
    raise TypeError(f"unknown backend {backend!r}")
