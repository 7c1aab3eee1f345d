"""Benchmark harness: kernel x grid x strategy x backend x threads matrix.

Each matrix cell builds the kernel's default initial condition, runs warmup
steps (excluded from timing), then times a fixed number of steps, repeating
the measurement and keeping the median.  The serial baseline for a
(kernel, size, strategy) combination is measured first so every threaded
cell gets a speedup denominator and a correctness twin: a threaded run whose
final state is not bitwise identical to its serial twin aborts the bench.
Because no two cells run concurrently, timings are isolated.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .driver import (DEFAULT_IC, SimulationConfig, TimestepController,
                     initial_condition, step, unit_square_spec)
from .parallel import Backend, Serial, StaticThreads, WorkStealing
from .sweep import CellWise, Strategy, Tiled

BACKEND_NAMES = ("serial", "static", "workstealing")

# "rowwise" and "cellwise" both name the CellWise preset
STRATEGY_NAMES = ("rowwise", "cellwise", "tiled")

# efficiency sanity band: values above this are flagged, not rejected
EFFICIENCY_FLAG = 1.5


class BenchGuardError(RuntimeError):
    """A threaded run's final state differed bitwise from its serial twin."""


@dataclass(frozen=True)
class BenchConfig:
    """The experiment matrix, strategies and backends by name as in the CSV,
    plus measurement policy; `tile` is the (width, height) of "tiled"."""

    kernels: tuple[str, ...]
    sizes: tuple[tuple[int, int], ...]
    strategies: tuple[str, ...]
    backends: tuple[str, ...]
    threads: tuple[int, ...]
    tile: tuple[int, int] = (64, 64)
    steps: int = 5
    warmup: int = 2
    repetitions: int = 5
    grain: int | None = None
    cfl: float = 0.9
    out: str | None = None

    def __post_init__(self):
        for name, values in (("kernels", self.kernels), ("sizes", self.sizes),
                             ("strategies", self.strategies),
                             ("backends", self.backends), ("threads", self.threads)):
            if not values:
                raise ValueError(f"{name} must be nonempty")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        # the rest is checked by the types the matrix runs, built once here
        TimestepController(self.cfl)
        for name in self.strategies:
            make_strategy(name, self.tile)
        for name in self.backends:
            make_backend(name, 1)
        if self.grain is not None and "workstealing" not in self.backends:
            raise ValueError(f"grain applies only to the workstealing backend, "
                             f"not {', '.join(self.backends)}")
        for t in self.threads:  # every count and the grain, whichever backends run them
            WorkStealing(t, self.grain)
        for kernel in self.kernels:
            for nx, ny in self.sizes:
                _simulation(kernel, nx, ny, CellWise(), Serial(), self.steps)


@dataclass
class BenchRecord:
    """One timing observation of the matrix."""

    kernel: str
    nx: int
    ny: int
    strategy: str
    backend: str
    threads: int
    steps: int
    ms_per_step: float
    mcells_per_s: float
    speedup: float
    efficiency: float


# the CSV columns are BenchRecord's fields, in order, each read back as its type
_COLUMN_TYPES = get_type_hints(BenchRecord)
_COLUMNS = tuple((f.name, _COLUMN_TYPES[f.name]) for f in fields(BenchRecord))
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def make_strategy(name: str, tile: tuple[int, int]) -> Strategy:
    """The strategy called `name`; `tile` is (width, height) for "tiled".

    The tile is checked whatever the name, since the command line parses
    --tile whatever the strategy.
    """
    tiled = Tiled(*tile)
    if name not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {name!r}; choose from {', '.join(STRATEGY_NAMES)}")
    return tiled if name == "tiled" else CellWise()


def make_backend(name: str, threads: int, grain: int | None = None) -> Backend:
    if name == "serial":
        return Serial()
    if name == "static":
        return StaticThreads(threads)
    if name == "workstealing":
        return WorkStealing(threads, grain)
    raise ValueError(f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}")


def _simulation(kernel: str, nx: int, ny: int, strategy: Strategy, backend: Backend,
                steps: int) -> SimulationConfig:
    """One matrix cell's run: the kernel's default IC on a periodic unit square."""
    spec = unit_square_spec(kernel, nx, ny)  # names an unknown kernel, so before DEFAULT_IC
    return SimulationConfig(spec=spec, kernel=kernel, ic=DEFAULT_IC[kernel],
                            strategy=strategy, backend=backend, num_steps=steps)


def _measure_cell(kernel: str, nx: int, ny: int, strategy: Strategy,
                  backend: Backend, steps: int, warmup: int, reps: int,
                  cfl: float) -> tuple[list[float], np.ndarray]:
    """Run one matrix cell; per-repetition ms/step plus the final state bytes."""
    config = _simulation(kernel, nx, ny, strategy, backend, steps)
    ctl = TimestepController(cfl_target=cfl)
    state, aux, _ = initial_condition(config.ic, config.spec)

    for _ in range(warmup):
        step(state, aux, config, ctl)

    per_rep_ms = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(steps):
            step(state, aux, config, ctl)
        t1 = time.perf_counter()
        per_rep_ms.append((t1 - t0) * 1e3 / steps)
    return per_rep_ms, state.interior.copy()


def run_bench(config: BenchConfig, progress=None) -> list[BenchRecord]:
    """Measure the whole matrix; returns records in enumeration order.

    Enumeration: kernel, size, strategy, backend, threads.  The serial
    baseline runs once per (kernel, size, strategy) regardless of whether a
    serial record was requested, feeding speedups and the bitwise guard.
    """
    records: list[BenchRecord] = []
    say = progress or (lambda msg: None)

    for kernel in config.kernels:
        for nx, ny in config.sizes:
            for sname in config.strategies:
                strategy = make_strategy(sname, config.tile)
                say(f"{kernel} {nx}x{ny} {sname}: serial baseline")
                base_ms, base_state = _measure_cell(
                    kernel, nx, ny, strategy, Serial(),
                    config.steps, config.warmup, config.repetitions, config.cfl)
                serial_ms = statistics.median(base_ms)

                for backend_name in config.backends:
                    if backend_name == "serial":
                        records.append(_record(kernel, nx, ny, sname, "serial", 1,
                                               config.steps, serial_ms, serial_ms))
                        continue
                    for threads in config.threads:
                        backend = make_backend(backend_name, threads, config.grain)
                        say(f"{kernel} {nx}x{ny} {sname}: {backend_name} x{threads}")
                        rep_ms, state = _measure_cell(
                            kernel, nx, ny, strategy, backend,
                            config.steps, config.warmup, config.repetitions, config.cfl)
                        if not np.array_equal(state, base_state):
                            raise BenchGuardError(
                                f"final state mismatch vs serial twin: kernel={kernel} "
                                f"size={nx}x{ny} strategy={sname} backend={backend_name} "
                                f"threads={threads}")
                        records.append(_record(kernel, nx, ny, sname, backend_name,
                                               threads, config.steps,
                                               statistics.median(rep_ms), serial_ms))
    return records


def _record(kernel, nx, ny, sname, backend_name, threads, steps,
            ms_per_step, serial_ms) -> BenchRecord:
    total_s = ms_per_step * steps / 1e3
    speedup = serial_ms / ms_per_step
    efficiency = speedup / threads
    if efficiency > EFFICIENCY_FLAG:
        print(f"note: superlinear efficiency {efficiency:.2f} for {kernel} {nx}x{ny} "
              f"{sname} {backend_name} x{threads}", file=sys.stderr)
    return BenchRecord(kernel=kernel, nx=nx, ny=ny, strategy=sname,
                       backend=backend_name, threads=threads, steps=steps,
                       ms_per_step=ms_per_step,
                       mcells_per_s=nx * ny * steps / total_s / 1e6,
                       speedup=speedup, efficiency=efficiency)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def open_csv(target, mode: str):
    """A context yielding `target` if it is a file object, stdout if it is
    None, else the file at path `target`, opened here in `mode` (so a bad
    path fails at this call) and closed on exit."""
    if target is None or hasattr(target, "read" if mode == "r" else "write"):
        return contextlib.nullcontext(sys.stdout if target is None else target)
    return open(target, mode, encoding="utf-8")


def emit_csv(records: list[BenchRecord], out=None) -> None:
    """Write records as CSV: exact header, 6 significant digits for reals.

    `out` is a path, a file object, or None for stdout.  Row order follows
    the record list (the bench's enumeration order), so re-running an
    identical configuration reproduces every non-timing column exactly.
    """
    with open_csv(out, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            cells = (_fmt(getattr(r, name)) if kind is float else str(getattr(r, name))
                     for name, kind in _COLUMNS)
            fh.write(",".join(cells) + "\n")


def parse_csv(source) -> list[BenchRecord]:
    """Read back an emit_csv file (path or file object)."""
    with open_csv(source, "r") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not a bench CSV: bad or missing header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"malformed row: {ln!r}")
        records.append(BenchRecord(*(kind(part) for (_, kind), part in zip(_COLUMNS, parts))))
    return records
