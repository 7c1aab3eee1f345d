"""Layer microbenchmarks: kernel batch size, empty parallel regions, memory triad."""

from __future__ import annotations

import statistics
import time

import numpy as np

from wavesweep import BoundaryCondition, Direction, fill_ghost, for_each_unit
from wavesweep.bench import make_backend

# batch sizes 2^10 .. 2^17 interfaces per kernel call, bracketing sweep._MAX_BLOCK
BATCHES = tuple(1 << k for k in range(10, 18))
L3_BYTES = 105 * 2**20          # shared last-level cache of the measuring host
TRIAD_ARRAY_BYTES = 4 * L3_BYTES
TRIAD_CHUNK = 1 << 16            # elements per numpy call; the chunk stays cache-resident
TRIAD_SCALAR = 3.0
PERIODIC = (BoundaryCondition.PERIODIC, BoundaryCondition.PERIODIC)


def _median_s(fn, min_reps: int, min_seconds: float) -> float:
    times = []
    while len(times) < min_reps or sum(times) < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_ns_per_iface(kernel, state, aux, batch: int, min_reps: int = 5,
                        min_seconds: float = 0.05) -> float:
    """Median ns per interface of one x-direction kernel call on `batch` interfaces.

    The operands are views of a ghost-filled StateField cut exactly as the
    sweep cuts them (interfaces i in [0, w), rows j in [0, batch / w)), so
    they carry the strides the sweep passes.
    """
    spec = state.spec
    g = spec.num_ghost
    w = min(batch, spec.nx)
    rows = batch // w
    if w * rows != batch or rows > spec.ny:
        raise ValueError(f"batch {batch} does not fit a {spec.nx}x{spec.ny} grid")
    fill_ghost(state, *PERIODIC)
    q = state.data
    ql = q[:, g - 1 : g - 1 + w, g : g + rows]
    qr = q[:, g : g + w, g : g + rows]
    auxl = auxr = None
    if aux is not None and aux.num_comp:
        fill_ghost(aux, *PERIODIC)
        auxl = aux.data[:, g - 1 : g - 1 + w, g : g + rows]
        auxr = aux.data[:, g : g + w, g : g + rows]
    seconds = _median_s(lambda: kernel.solve(Direction.X, ql, qr, auxl, auxr),
                        min_reps, min_seconds)
    return seconds * 1e9 / batch


def empty_region_us(backend_name: str, threads: int, units: int, reps: int = 200) -> float:
    """Median µs of a `for_each_unit` call whose body does nothing."""
    backend = make_backend(backend_name, threads)

    def body(a, b):
        return None

    return _median_s(lambda: for_each_unit(units, backend, body), reps, 0.0) * 1e6


def triad_gbps(array_bytes: int = TRIAD_ARRAY_BYTES, passes: int = 5) -> float:
    """In-process numpy triad a = b + s*c; GB/s from bytes computed as 3 arrays per pass.

    Each array is `array_bytes` long.  The triad runs chunk by chunk so the
    two numpy calls per chunk reuse the chunk of `a` from cache and main
    memory sees one read of b and c and one write of a.
    """
    n = -(-array_bytes // 8)
    a = np.zeros(n)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)

    def triad():
        for k in range(0, n, TRIAD_CHUNK):
            out = a[k : k + TRIAD_CHUNK]
            np.multiply(c[k : k + TRIAD_CHUNK], TRIAD_SCALAR, out=out)
            np.add(out, b[k : k + TRIAD_CHUNK], out=out)

    seconds = _median_s(triad, passes, 0.0)
    if not np.all(a[:: max(1, n // 4096)] == 1.0 + TRIAD_SCALAR * 2.0):
        raise RuntimeError("triad produced wrong values")
    return 3 * n * 8 / seconds / 1e9
