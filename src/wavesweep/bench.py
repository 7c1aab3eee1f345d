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
from dataclasses import dataclass

import numpy as np

from .driver import (DEFAULT_IC, SimulationConfig, TimestepController,
                     initial_condition, step, unit_square_spec)
from .grid import GridSpec
from .kernels import DESCRIPTORS
from .parallel import Backend, Serial, StaticThreads, WorkStealing
from .sweep import CellWise, RowWise, Strategy, Tiled

CSV_HEADER = ("kernel,nx,ny,strategy,backend,threads,steps,"
              "ms_per_step,mcells_per_s,speedup,efficiency")

BACKEND_NAMES = ("serial", "static", "workstealing")

# strategy name -> type; every strategy but Tiled takes no arguments
_STRATEGIES = {"rowwise": RowWise, "cellwise": CellWise, "tiled": Tiled}
STRATEGY_NAMES = tuple(_STRATEGIES)

# efficiency sanity band: values above this are flagged, not rejected
EFFICIENCY_FLAG = 1.5


class BenchGuardError(RuntimeError):
    """A threaded run's final state differed bitwise from its serial twin."""


@dataclass(frozen=True)
class BenchConfig:
    """The experiment matrix plus measurement policy."""

    kernels: tuple[str, ...]
    sizes: tuple[tuple[int, int], ...]
    strategies: tuple[Strategy, ...]
    backends: tuple[str, ...]
    threads: tuple[int, ...]
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
        for k in self.kernels:
            if k not in DESCRIPTORS:
                raise ValueError(f"unknown kernel {k!r}; choose from {', '.join(DESCRIPTORS)}")
        for b in self.backends:
            if b not in BACKEND_NAMES:
                raise ValueError(f"unknown backend {b!r}; choose from {', '.join(BACKEND_NAMES)}")
        for t in self.threads:
            if t < 1:
                raise ValueError(f"thread counts must be >= 1, got {t}")
        # every bench grid is periodic, and the periodic ghost fill wraps
        # num_ghost interior cells, so no side may be shorter
        for nx, ny in self.sizes:
            if nx < GridSpec.num_ghost or ny < GridSpec.num_ghost:
                raise ValueError(f"grid sides must be >= {GridSpec.num_ghost} "
                                 f"(the ghost frame), got {nx}x{ny}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.grain is not None and self.grain < 1:
            raise ValueError(f"grain must be >= 1, got {self.grain}")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")


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


def make_strategy(name: str, tile: tuple[int, int]) -> Strategy:
    """The strategy called `name`; `tile` is (width, height) for "tiled"."""
    if name not in _STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; choose from {', '.join(STRATEGY_NAMES)}")
    return Tiled(*tile) if name == "tiled" else _STRATEGIES[name]()


def strategy_name(strategy: Strategy) -> str:
    for name, kind in _STRATEGIES.items():
        if isinstance(strategy, kind):
            return name
    raise TypeError(f"unknown strategy {strategy!r}")


def make_backend(name: str, threads: int, grain: int | None = None) -> Backend:
    if name == "serial":
        return Serial()
    if name == "static":
        return StaticThreads(threads)
    if name == "workstealing":
        return WorkStealing(threads, grain)
    raise ValueError(f"unknown backend {name!r}")


def _measure_cell(kernel: str, nx: int, ny: int, strategy: Strategy,
                  backend: Backend, steps: int, warmup: int, reps: int,
                  cfl: float) -> tuple[list[float], np.ndarray]:
    """Run one matrix cell; per-repetition ms/step plus the final state bytes."""
    spec = unit_square_spec(kernel, nx, ny)
    ic = DEFAULT_IC[kernel]
    config = SimulationConfig(spec=spec, kernel=kernel, ic=ic,
                              strategy=strategy, backend=backend, num_steps=steps)
    ctl = TimestepController(cfl_target=cfl)
    state, aux, _ = initial_condition(ic, spec)

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
            for strategy in config.strategies:
                sname = strategy_name(strategy)
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
            fh.write(",".join([
                r.kernel, str(r.nx), str(r.ny), r.strategy, r.backend,
                str(r.threads), str(r.steps), _fmt(r.ms_per_step),
                _fmt(r.mcells_per_s), _fmt(r.speedup), _fmt(r.efficiency),
            ]) + "\n")


def parse_csv(source) -> list[BenchRecord]:
    """Read back an emit_csv file (path or file object)."""
    with open_csv(source, "r") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not a bench CSV: bad or missing header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 11:
            raise ValueError(f"malformed row: {ln!r}")
        records.append(BenchRecord(
            kernel=parts[0], nx=int(parts[1]), ny=int(parts[2]), strategy=parts[3],
            backend=parts[4], threads=int(parts[5]), steps=int(parts[6]),
            ms_per_step=float(parts[7]), mcells_per_s=float(parts[8]),
            speedup=float(parts[9]), efficiency=float(parts[10])))
    return records
