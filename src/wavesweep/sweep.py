"""Interface sweeps and the first-order update.

A sweep applies one Riemann kernel to every x- and y-interface of a grid,
filling a FluctuationField; the update then folds the stored fluctuations
into the interior cells.  The two phases are what make threading trivial:
interface solves write disjoint interface slots, the update writes disjoint
cells, and neither reads anything another parallel unit writes.

Both traversal strategies produce bitwise-identical fluctuation fields and
differ only in partitioning, because both run one banded body.  Tiled's
tile_w x tile_h tiles set the unit of work distribution; CellWise is a preset
of it, the tiling by whole interface rows ((nx+1) x 1), which the command
line and the CSV also call "rowwise".  Each run of tiles a worker takes is
coalesced into at most three rectangles, and each rectangle is solved in row
blocks, in kernel calls of whole i-ranges.  The sweep hands the scheduler its band
width (tiles per row of tiles) as the alignment, so a default work-stealing
leaf of at least half a band is whole bands, one rectangle, rather than a band
and a splinter of the next in two or three.

One rule sizes every kernel call: the most interfaces whose result fits a
byte budget, up to a cap (_call_block).  The budget and cap depend on how
many threads run the region (parallel.plan): a one-leaf region runs on the
caller whatever the backend.  On one thread there is no lock to share, so
calls fit the cache: 1.5 MiB of result, at most 32k interfaces.  On more,
5.75 MiB and 64k, which keeps interpreter-lock hand-offs between the threads
rare.  Kernels are pointwise, so only call boundaries move and the
fluctuations are bitwise the same either way.

Every kernel takes both directions per row block, x then y, with as many rows
per block as the x-rows, the widest, fit in one call.  A kernel with a cell
pass (its descriptor's cell_pass: Euler's Roe inputs, acoustics-var's
impedance and sound speed) also computes each cell once per block: the pass
covers the cells the block's x- and y-calls read, plus one halo column and
row, and hands them to both calls in the aux slots.  The pass checks the
solver's own cell rule and raises its KernelError for a bad cell, which may be
a ghost corner that no interface reads; the sweep then solves that block by
the plain calls, which compute the same bits and locate any failure.  The
planes are block-sized temporaries, so memory stays flat.
Each kernel call reports its max |s| (the result's max_speed), each leaf
returns the largest of its calls', and the sweep folds them into SweepStats.

Where a kernel failure is reported does not depend on the traversal.  The
region stops at the first failing leaf; the sweep then solves the grid once
more without planes, row by row (j = 0 .. ny), x-interfaces then
y-interfaces, and raises SweepError at the first interface that fails (a
kernel names the lowest bad element of its first check that trips, so a row's
prefix before it is re-solved until it passes).  So every strategy and
backend names the first failing interface in row-major order, x before y
within a row.  If that pass does not fail, the region's
ParallelError is raised unchanged.  A KernelError that names no interface, a
refused kernel parameter say, is raised as it is, with no location pass.
"""

from __future__ import annotations

import ctypes
import os
import platform
import threading
from dataclasses import dataclass

import numpy as np

from .grid import AuxField, FluctuationField, StateField, check_same_grid
from .kernels import CellPlanes, Direction, Kernel, KernelDescriptor, KernelError
from .parallel import Backend, ParallelError, Serial, for_each_unit, plan

# A kernel call holds the most interfaces whose result (waves, speeds, amdq
# and apdq, float64) fits a byte budget, up to a cap: (budget, cap) below, for
# a region on one thread and on more.  Only call boundaries move with them,
# never a computed value.
#
# One thread, 1.5 MiB and 2^15: no lock to share, so calls fit the cache.  A
# call's temporaries are a few times its result: an 8548-interface Euler call
# peaks near 3.1 MiB, near a 2 MiB per-core L2.  The Euler kernel
# microbenchmark was fastest at 2^13-2^14 interfaces per call, and these calls
# cut euler-cellwise's serial step from 139.8 to 116.9 ms (BENCH_12.json).
# One budget for both was re-checked and is slower: giving one-thread regions
# the threaded budget made serial steps 1.39-1.46x slower on euler-cellwise
# (the threaded budget won 0 of 24 same-process step pairs, in each of two
# runs), 1.22-1.31x on acoustics-tiled (0/24) and 1.03-1.09x on
# advection-large (4/24), on a 2-core Xeon VM.
#
# More threads, 5.75 MiB and 2^16: sized for the interpreter lock, not a cache,
# since smaller calls mean more lock hand-offs between the threads.  On a
# 2-core host, 2-thread steps ran 25-87% slower at 8k or 4k Euler interfaces,
# and 2-thread sweeps 12% (acoustics-tiled), 20% (euler-cellwise) and 52%
# (advection-large) slower at 16k, while advection-large's 2-thread sweep took
# 48.8 ms at 64k against 59.0 ms at 32k.  The budget is Euler's 184 B x 2^15,
# so Euler's calls stay at 32k, acoustics' reach 53,833 and advection's 64k,
# which took advection-large from 276 to 135 kernel calls per threads2 step.
_SERIAL_CALL = (3 << 19, 1 << 15)
_THREADED_CALL = (23 << 18, 1 << 16)


def _call_block(desc: KernelDescriptor, threads: int) -> int:
    """Interfaces per kernel call for a region on `threads` threads.  One
    thread: Euler 8548, acoustics 14043, advection 32768 (the cap).  More:
    Euler 32768, acoustics 53833, advection 65536 (the cap)."""
    budget, cap = _THREADED_CALL if threads > 1 else _SERIAL_CALL
    per_iface = 8 * (desc.num_waves * desc.num_eqn + desc.num_waves + 2 * desc.num_eqn)
    return min(cap, budget // per_iface)


# cells per update chunk: apply_update walks rows in chunks of at most this
# many cells, which bounds its temporaries without changing a value
_UPDATE_CHUNK = 1 << 15


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds():
    """Keep one kernel call's temporaries on a warm heap, once per process.

    By default glibc serves large arrays from fresh mmaps and trims freed heap
    top, so every kernel call faults its temporaries in again; its adaptive
    threshold only rises after a large free, which a step that reuses its
    fluctuation field never makes.  The thresholds are sized for the largest
    calls, a multi-thread sweep's (_call_block); a one-thread sweep's smaller
    calls fit them with room to spare.  4 MiB is above the largest array one
    call creates (Euler's waves at 32768 interfaces, 3 x 4 x 32768 x 8 B =
    3 MiB; acoustics' at 53833, 2.5 MiB).  32 MiB is above the peak
    temporaries of the largest calls two threads make at once (measured with
    tracemalloc: 11.75 MiB per 32768-interface Euler call with cell planes,
    14.25 MiB without, 8.2 MiB per 53833-interface acoustics call; an
    8548-interface Euler call peaks at 3.07 MiB), so a freed call's memory
    stays for the next call.  Larger arrays, such as big grids' fields, still
    come from mmap; a trial at an 8 MiB mmap threshold took acoustics-tiled's
    peak RSS from 161.7 to 170.4 MiB.  Other C libraries are left alone.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


_pin_malloc_thresholds()

# opt-in sweep self-check: count writes per interface slot, assert exactly one
CHECKED_ENV = "WAVESWEEP_CHECKED"


@dataclass(frozen=True)
class CellWise:
    """Preset of the banded body: tiles of one whole interface row, (nx+1) x 1,
    called "rowwise" or "cellwise" on the command line and in the CSV."""


@dataclass(frozen=True)
class Tiled:
    """The banded body over tile_w x tile_h tiles, the unit of work distribution."""

    tile_w: int = 64
    tile_h: int = 64

    def __post_init__(self):
        if self.tile_w < 1 or self.tile_h < 1:
            raise ValueError(f"tile sides must be >= 1, got {self.tile_w}x{self.tile_h}")


Strategy = CellWise | Tiled


@dataclass(frozen=True)
class SweepStats:
    max_speed_x: float
    max_speed_y: float
    interfaces_solved: int


class SweepError(RuntimeError):
    """Kernel failure during a sweep, located at a specific interface.

    The interface is exactly the first failing one in row-major order (rows
    j = 0 .. ny), x before y within a row, under every strategy and backend.
    `driver.integrate` also locates it in time: `step` is the 0-based index of the
    failing step and `time` the sim time at its start (both None from a bare
    sweep).
    """

    def __init__(self, direction: Direction, i: int, j: int, cause: Exception,
                 step: int | None = None, time: float | None = None):
        where = f"{direction.value}-interface (i={i}, j={j})"
        if step is not None:
            where += f" in step {step} at t={float(time)!r}"
        super().__init__(f"{where}: {cause}")
        self.direction = direction
        self.i = i
        self.j = j
        self.cause = cause
        self.step = step
        self.time = time


class _WriteCounter:
    """Per-interface write counts, maintained only in checked mode."""

    def __init__(self, nx: int, ny: int):
        self.x = np.zeros((nx + 1, ny), dtype=np.int32)
        self.y = np.zeros((nx, ny + 1), dtype=np.int32)
        self.lock = threading.Lock()

    def record(self, counts: np.ndarray, ia: int, ib: int, ja: int, jb: int):
        with self.lock:
            counts[ia:ib, ja:jb] += 1

    def verify(self):
        if not (self.x == 1).all() or not (self.y == 1).all():
            raise AssertionError("sweep wrote some interface slot zero or multiple times")


def _checked() -> bool:
    return os.environ.get(CHECKED_ENV, "") not in ("", "0")


class _SweepContext:
    """Shared read-only inputs plus output slots for the strategy bodies."""

    def __init__(self, state: StateField, aux: AuxField | None, kernel: Kernel,
                 fluct: FluctuationField, counter: _WriteCounter | None, block: int):
        self.spec = state.spec
        self.q = state.data
        self.aux = aux.data if (aux is not None and aux.num_comp) else None
        self.kernel = kernel
        self.cell_pass = kernel.descriptor.cell_pass
        self.fluct = fluct
        self.counter = counter
        self.block = block

    def rect(self, ia: int, ib: int, ja: int, jb: int) -> tuple[float, float]:
        """Solve the x- and y-interfaces of a rectangle of whole tiles.

        Rows are solved in blocks of whole i-ranges, as many rows as the
        x-rows, the widest, fit in self.block; each block takes x, then y.  A
        kernel with a cell pass computes cells [ia - 1, ib) x [a - 1, b) once
        per block, the block's interfaces plus one halo column and row, for
        both calls; a block whose pass raises KernelError is solved without
        planes.  A call's KernelError leaves unlocated; sweep() locates it.
        """
        nx, ny, g = self.spec.nx, self.spec.ny, self.spec.num_ghost
        # (direction, i stop, j stop): at the grid's top edge there is one
        # x-interface row fewer, at its right edge one y-interface column fewer
        spans = ((Direction.X, ib, min(jb, ny)), (Direction.Y, min(ib, nx), jb))
        top = {Direction.X: 0.0, Direction.Y: 0.0}
        step = max(1, self.block // (ib - ia))
        for a in range(ja, jb, step):
            b = min(a + step, jb)
            cells = None
            if self.cell_pass is not None:
                window = (slice(None), slice(g + ia - 1, g + ib), slice(g + a - 1, g + b))
                try:
                    cells = self.cell_pass(self.q[window],
                                           None if self.aux is None else self.aux[window],
                                           **self.kernel.params)
                except KernelError:
                    cells = None
            for d, ie, je in spans:
                bj = min(b, je)
                if ia < ie and a < bj:
                    top[d] = max(top[d], self._call(d, ia, ie, a, bj, cells))
            del cells  # free this block's planes before the next block makes its own
        return top[Direction.X], top[Direction.Y]

    def locate(self):
        """Raise SweepError at the first failing interface in row-major order,
        x before y within a row, solving without planes; return if none fails.
        Each narrowing to a failing row's prefix trips a later check, so it
        costs at most one call per check; a prefix call that fails otherwise
        than with a KernelError keeps the element already found.
        """
        nx, ny = self.spec.nx, self.spec.ny
        for j in range(ny + 1):
            for d, ie, je in ((Direction.X, nx + 1, ny), (Direction.Y, nx, ny + 1)):
                if j == je:
                    continue
                try:
                    self._call(d, 0, ie, j, j + 1)
                except KernelError as err:
                    while err.element and err.element[0] > 0:
                        try:
                            self._call(d, 0, err.element[0], j, j + 1)
                            break  # the prefix passes
                        except KernelError as earlier:
                            err = earlier
                        except Exception:
                            break
                    raise SweepError(d, err.element[0] if err.element else 0, j, err) from err

    def _call(self, d: Direction, ia: int, ib: int, a: int, b: int,
              cells: CellPlanes | None = None) -> float:
        """One kernel call on d-interfaces [ia, ib) x [a, b), stored; returns
        the solver's max |s| over them, its result's max_speed.

        Interface (i, j) lies between cell (i, j) and its lower neighbour
        along d.  `cells` are the planes of cells [ia - 1, ib) x [a - 1, b)
        or None, in which case the aux field, if any, fills the aux slots.
        """
        g = self.spec.num_ghost
        di, dj = (1, 0) if d is Direction.X else (0, 1)
        left = (slice(None), slice(g + ia - di, g + ib - di), slice(g + a - dj, g + b - dj))
        right = (slice(None), slice(g + ia, g + ib), slice(g + a, g + b))
        auxl = auxr = None
        if cells is not None:
            auxl = cells[1 - di : ib - ia + 1 - di, 1 - dj : b - a + 1 - dj]
            auxr = cells[1 : ib - ia + 1, 1 : b - a + 1]
        elif self.aux is not None:
            auxl, auxr = self.aux[left], self.aux[right]
        res = self.kernel.solve(d, self.q[left], self.q[right], auxl, auxr)
        getattr(self.fluct, f"{d.value}_minus")[:, ia:ib, a:b] = res.amdq
        getattr(self.fluct, f"{d.value}_plus")[:, ia:ib, a:b] = res.apdq
        if self.counter is not None:
            self.counter.record(getattr(self.counter, d.value), ia, ib, a, b)
        return res.max_speed


def _tile_rects(t0: int, t1: int, tiles_i: int):
    """Cover the row-major tile run [t0, t1) with at most three rectangles.

    Yields (ti0, ti1, tj0, tj1) tile ranges: the tail of a partial first band,
    the whole bands after it, and the head of a partial last band.
    """
    while t0 < t1:
        tj, ti = divmod(t0, tiles_i)
        bands = (t1 - t0) // tiles_i if ti == 0 else 0
        if bands:
            yield 0, tiles_i, tj, tj + bands
            t0 += bands * tiles_i
        else:
            stop = min(t1, (tj + 1) * tiles_i)
            yield ti, stop - tj * tiles_i, tj, tj + 1
            t0 = stop


def sweep(state: StateField, aux: AuxField | None, kernel: Kernel,
          strategy: Strategy, backend: Backend,
          out: FluctuationField | None = None) -> tuple[FluctuationField, SweepStats]:
    """Solve every grid interface, returning fluctuations and exact max speeds.

    Requires ghost cells filled.  Every x-interface (i, j) holds the solution
    between cells (i-1, j) and (i, j); y likewise between (i, j-1) and (i, j).
    The output is bitwise identical for every strategy and backend because
    each interface is computed exactly once from the same two cells by the
    same elementwise kernel.  An aux field, and `out` when given, must be of
    this grid.  The fluctuations go into `out` when given (every slot is
    overwritten), else into a fresh field.
    A kernel failure raises SweepError at the first failing interface in
    row-major order, x before y within a row; a KernelError that names no
    interface, such as a refused kernel parameter, is raised as it is.
    """
    spec = state.spec
    check_same_grid(spec, aux=aux, out=out)
    kernel.descriptor.check_components(spec.num_eqn, aux.num_comp if aux is not None else 0)

    nx, ny = spec.nx, spec.ny
    if isinstance(strategy, CellWise):
        tile_w, tile_h = nx + 1, 1
    elif isinstance(strategy, Tiled):
        tile_w, tile_h = strategy.tile_w, strategy.tile_h
    else:
        raise TypeError(f"unknown traversal strategy {strategy!r}")
    fluct = out if out is not None else FluctuationField(spec)
    counter = _WriteCounter(nx, ny) if _checked() else None
    tiles_i = -(-(nx + 1) // tile_w)
    tiles_j = -(-(ny + 1) // tile_h)
    workers = plan(backend, tiles_i * tiles_j, tiles_i)[2]
    block = _call_block(kernel.descriptor, workers)
    ctx = _SweepContext(state, aux, kernel, fluct, counter, block)

    def tile_run(t0, t1):
        sx = sy = 0.0
        for ti0, ti1, tj0, tj1 in _tile_rects(t0, t1, tiles_i):
            ia, ib = ti0 * tile_w, min(ti1 * tile_w, nx + 1)
            ja, jb = tj0 * tile_h, min(tj1 * tile_h, ny + 1)
            rx, ry = ctx.rect(ia, ib, ja, jb)
            sx, sy = max(sx, rx), max(sy, ry)
        return sx, sy

    try:
        leaf_speeds = for_each_unit(tiles_i * tiles_j, backend, tile_run, align=tiles_i)
    except ParallelError as exc:
        cause = exc.__cause__
        if isinstance(cause, KernelError):
            if cause.element is None:  # a parameter error names no interface
                raise cause from None
            ctx.locate()  # raises SweepError if the plain calls fail too
        raise

    if counter is not None:
        counter.verify()

    stats = SweepStats(max(sx for sx, _ in leaf_speeds), max(sy for _, sy in leaf_speeds),
                       (nx + 1) * ny + nx * (ny + 1))
    return fluct, stats


def apply_update(state: StateField, fluct: FluctuationField, dt: float,
                 backend: Backend = Serial()) -> StateField:
    """First-order (donor-cell) update of the interior from stored fluctuations.

    Each interior cell absorbs the right-going fluctuation of its left/bottom
    faces and the left-going fluctuation of its right/top faces:

        q -= dt/dx * (apdq_x[i] + amdq_x[i+1])
        q -= dt/dy * (apdq_y[j] + amdq_y[j+1])

    applied in that fixed order, so results are bitwise reproducible across
    backends.  `fluct` must be of the state's grid.  Each leaf's rows are
    updated in chunks of at most _UPDATE_CHUNK cells, which bounds the
    temporaries without changing a value.  Mutates and returns `state`.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    spec = state.spec
    check_same_grid(spec, fluct=fluct)
    nx, ny, g = spec.nx, spec.ny, spec.num_ghost
    dtdx = dt / spec.dx
    dtdy = dt / spec.dy

    chunk = max(1, _UPDATE_CHUNK // nx)

    def rows(a, b):
        for c in range(a, b, chunk):
            d = min(c + chunk, b)
            cells = state.data[:, g : g + nx, g + c : g + d]
            # one temporary per chunk, scaled in place (t * dtdx is dtdx * t)
            net = np.add(fluct.x_plus[:, 0:nx, c:d], fluct.x_minus[:, 1 : nx + 1, c:d])
            net *= dtdx
            cells -= net
            np.add(fluct.y_plus[:, :, c:d], fluct.y_minus[:, :, c + 1 : d + 1], out=net)
            net *= dtdy
            cells -= net

    for_each_unit(ny, backend, rows)
    return state
