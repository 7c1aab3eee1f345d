import threading
import types

import numpy as np
import pytest

import wavesweep.sweep as sweep_mod
from wavesweep.driver import DEFAULT_IC, initial_condition, unit_square_spec
from wavesweep.grid import (AuxField, BoundaryCondition, FluctuationField, GridSpec,
                            StateField, allocate_fields, fill_ghost)
from wavesweep.kernels import (KERNEL_NAMES, CellPlanes, Direction, Kernel, KernelError,
                               make_kernel)
from wavesweep.oracles import random_gas_states
from wavesweep.parallel import (ParallelError, Serial, StaticThreads, WorkStealing,
                                for_each_unit)
from wavesweep.sweep import (_UPDATE_CHUNK, CellWise, RowWise, SweepError, Tiled,
                             apply_update, sweep)

PER = BoundaryCondition.PERIODIC


def filled_gas_field(nx, ny, seed=0, num_ghost=2):
    spec = GridSpec(nx=nx, ny=ny, dx=1.0 / nx, dy=1.0 / ny,
                    num_ghost=num_ghost, num_eqn=4)
    state = StateField(spec)
    state.interior[:] = random_gas_states(np.random.default_rng(seed), nx * ny, 1.4) \
        .reshape(4, nx, ny)
    fill_ghost(state, PER, PER)
    return spec, state


def test_uniform_state_yields_zero_fluctuations():
    spec = GridSpec(nx=6, ny=5, dx=0.1, dy=0.1, num_eqn=1)
    state, aux, _ = allocate_fields(spec)
    state.interior[:] = 4.0
    fill_ghost(state, PER, PER)
    kernel = make_kernel("advection", u=1.5, v=-2.0)
    fluct, stats = sweep(state, aux, kernel, CellWise(), Serial())
    for arr in (fluct.x_minus, fluct.x_plus, fluct.y_minus, fluct.y_plus):
        assert np.all(arr == 0.0)
    assert stats.max_speed_x == 1.5
    assert stats.max_speed_y == 2.0


def test_max_speeds_are_magnitudes_of_negative_velocities():
    spec = GridSpec(nx=6, ny=5, dx=0.1, dy=0.1, num_eqn=1)
    state, aux, _ = allocate_fields(spec)
    state.interior[:] = np.arange(30.0).reshape(6, 5)
    fill_ghost(state, PER, PER)
    _, stats = sweep(state, aux, make_kernel("advection", u=-1.5, v=-0.5),
                     Tiled(4, 3), StaticThreads(2))
    assert (stats.max_speed_x, stats.max_speed_y) == (1.5, 0.5)


def test_two_cell_periodic_row_hand_enumeration():
    # interior [2, 5] with u=1: wrap ghosts make interfaces 5|2, 2|5, 5|2
    spec = GridSpec(nx=2, ny=1, dx=1.0, dy=1.0, num_ghost=1, num_eqn=1)
    state, aux, _ = allocate_fields(spec)
    state.interior[0, :, 0] = [2.0, 5.0]
    fill_ghost(state, PER, PER)
    kernel = make_kernel("advection", u=1.0, v=0.0)
    fluct, _ = sweep(state, aux, kernel, RowWise(), Serial())
    assert list(fluct.x_plus[0, :, 0]) == [-3.0, 3.0, -3.0]
    assert np.all(fluct.x_minus == 0.0)


def test_interface_count_formula():
    spec = GridSpec(nx=4, ny=3, dx=1.0, dy=1.0, num_eqn=1)
    state, aux, _ = allocate_fields(spec)
    fill_ghost(state, BoundaryCondition.EXTRAPOLATE, BoundaryCondition.EXTRAPOLATE)
    _, stats = sweep(state, aux, make_kernel("advection", u=1.0, v=1.0),
                     RowWise(), Serial())
    assert stats.interfaces_solved == 5 * 3 + 4 * 4 == 31


STRATEGIES = [RowWise(), CellWise(), Tiled(), Tiled(7, 5), Tiled(1, 1), Tiled(200, 200)]
BACKENDS = [Serial(), StaticThreads(3), WorkStealing(3, 2), WorkStealing(2)]


@pytest.mark.parametrize("strategy", STRATEGIES[1:])
def test_strategy_equivalence_bitwise(strategy):
    spec, state = filled_gas_field(23, 17, seed=1)
    aux = AuxField(spec)
    kernel = make_kernel("euler")
    ref, ref_stats = sweep(state, aux, kernel, RowWise(), Serial())
    out, stats = sweep(state, aux, kernel, strategy, Serial())
    assert not np.shares_memory(ref.x_minus, out.x_minus)
    for a, b in ((ref.x_minus, out.x_minus), (ref.x_plus, out.x_plus),
                 (ref.y_minus, out.y_minus), (ref.y_plus, out.y_plus)):
        assert np.array_equal(a, b)
    assert stats.max_speed_x == ref_stats.max_speed_x
    assert stats.max_speed_y == ref_stats.max_speed_y


@pytest.mark.parametrize("backend", BACKENDS[1:])
@pytest.mark.parametrize("strategy", [RowWise(), CellWise(), Tiled(8, 8), Tiled(4, 1)])
def test_backend_equivalence_bitwise(strategy, backend):
    # Tiled(4, 1) on 19x11 is 5 x 12 tiles: WorkStealing(2)'s default leaf of
    # 4 tiles is rounded to one band of 5
    spec, state = filled_gas_field(19, 11, seed=2)
    aux = AuxField(spec)
    kernel = make_kernel("euler")
    ref, ref_stats = sweep(state, aux, kernel, strategy, Serial())
    out, stats = sweep(state, aux, kernel, strategy, backend)
    for a, b in ((ref.x_minus, out.x_minus), (ref.x_plus, out.x_plus),
                 (ref.y_minus, out.y_minus), (ref.y_plus, out.y_plus)):
        assert np.array_equal(a, b)
    assert stats == ref_stats


def test_sweep_into_given_field_overwrites_every_slot():
    spec, state = filled_gas_field(13, 9, seed=4)
    aux = AuxField(spec)
    kernel = make_kernel("euler")
    ref, ref_stats = sweep(state, aux, kernel, CellWise(), Serial())
    out = FluctuationField(spec, zeroed=False)
    for arr in (out.x_minus, out.x_plus, out.y_minus, out.y_plus):
        arr.fill(np.nan)
    fluct, stats = sweep(state, aux, kernel, Tiled(4, 3), StaticThreads(2), out=out)
    assert fluct is out
    for a, b in ((ref.x_minus, out.x_minus), (ref.x_plus, out.x_plus),
                 (ref.y_minus, out.y_minus), (ref.y_plus, out.y_plus)):
        assert np.array_equal(a, b)
    assert stats == ref_stats
    with pytest.raises(ValueError, match="out"):
        sweep(state, aux, kernel, CellWise(), Serial(), out=FluctuationField(
            GridSpec(nx=9, ny=13, dx=spec.dx, dy=spec.dy, num_eqn=4)))


def test_kernel_grid_shape_mismatch():
    spec = GridSpec(nx=4, ny=4, dx=1.0, dy=1.0, num_eqn=1)
    state, aux, _ = allocate_fields(spec)
    with pytest.raises(ValueError, match="num_eqn"):
        sweep(state, aux, make_kernel("euler"), CellWise(), Serial())


def test_aux_requirement_enforced():
    spec = GridSpec(nx=4, ny=4, dx=1.0, dy=1.0, num_eqn=3, num_aux=0)
    state, aux, _ = allocate_fields(spec)
    with pytest.raises(ValueError, match="num_aux"):
        sweep(state, aux, make_kernel("acoustics-var"), CellWise(), Serial())


def test_aux_of_another_grid_is_rejected():
    ic = "acoustics-var-interface"
    state, _, _ = initial_condition(ic, unit_square_spec("acoustics-var", 8, 8))
    _, aux, _ = initial_condition(ic, unit_square_spec("acoustics-var", 16, 16))
    fill_ghost(state, PER, PER)
    fill_ghost(aux, PER, PER)
    with pytest.raises(ValueError,
                       match=r"aux is a field for GridSpec\(nx=16.*grid is GridSpec\(nx=8"):
        sweep(state, aux, make_kernel("acoustics-var"), CellWise(), Serial())


def _sweep_error(state, aux, strategy, backend):
    with pytest.raises(SweepError) as exc:
        sweep(state, aux, make_kernel("euler"), strategy, backend)
    return exc.value.direction, exc.value.i, exc.value.j


@pytest.mark.parametrize("backend", [Serial(), StaticThreads(2), WorkStealing(2, 1)])
def test_kernel_failure_reports_interface_coordinates(backend):
    spec, state = filled_gas_field(8, 6, seed=3)
    aux = AuxField(spec)
    g = spec.num_ghost
    state.data[0, g + 3, g + 2] = -1.0  # poison interior cell (3, 2)
    with pytest.raises(SweepError) as exc:
        sweep(state, aux, make_kernel("euler"), CellWise(), backend)
    # cell (3,2) is the right state of x-interface (3, 2), the lowest it touches
    assert exc.value.i == 3 and exc.value.j == 2
    assert "x-interface (i=3, j=2)" in str(exc.value)

    # Tiled(4, 3) on 11x6 has 3x3 tiles; StaticThreads(2)'s second leaf starts
    # at tile (2, 1), so its first rectangle starts at i=8, j=3.  Cells (5, 4)
    # and (9, 4) lie in tile columns 1 and 2, (7, 4) and (3, 1) next to a tile
    # edge.  A single bad cell (i, j) must be reported at x-interface (i, j)
    # under every strategy.
    for cell in ((5, 4), (9, 4), (7, 4), (3, 1)):
        spec, state = filled_gas_field(11, 6, seed=3)
        state.data[0, g + cell[0], g + cell[1]] = -1.0
        aux = AuxField(spec)
        for strategy in (RowWise(), CellWise(), Tiled(4, 3)):
            assert _sweep_error(state, aux, strategy, backend) == (Direction.X, *cell)

    # a NaN or +inf cell trips the finiteness guard and is located the same way
    for cell, comp, value in (((7, 4), 0, np.nan), ((9, 4), 3, np.inf)):
        spec, state = filled_gas_field(11, 6, seed=3)
        state.data[comp, g + cell[0], g + cell[1]] = value
        aux = AuxField(spec)
        for strategy in (RowWise(), CellWise(), Tiled(4, 3)):
            with pytest.raises(SweepError, match="non-finite right state") as exc:
                sweep(state, aux, make_kernel("euler"), strategy, backend)
            assert (exc.value.direction, exc.value.i, exc.value.j) == (Direction.X, *cell)

    # the reported interface is the first failing one in row-major order, x
    # before y within a row, under every strategy: a bad last-row cell is first
    # read through the periodic ghost row by y-interface (i, 0), and of two bad
    # cells the lower row's is reported, for bad gas states and bad aux alike
    for name, cells, where in (("euler", [(3, 5)], (Direction.Y, 3, 0)),
                               ("euler", [(9, 1), (2, 4)], (Direction.X, 9, 1)),
                               ("acoustics-var", [(9, 1), (2, 4)], (Direction.X, 9, 1))):
        if name == "euler":
            spec, state = filled_gas_field(11, 6, seed=3)
            aux, bad = AuxField(spec), state
        else:
            state, aux, _ = initial_condition("acoustics-var-interface",
                                              unit_square_spec(name, 11, 6))
            fill_ghost(state, PER, PER)
            bad = aux  # negative density in the aux field
        for cell in cells:
            bad.data[0, g + cell[0], g + cell[1]] = -1.0
        fill_ghost(bad, PER, PER)
        for strategy in (RowWise(), CellWise(), Tiled(4, 3)):
            with pytest.raises(SweepError) as exc:
                sweep(state, aux, make_kernel(name), strategy, backend)
            assert (exc.value.direction, exc.value.i, exc.value.j) == where


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_single_write_checked_mode(monkeypatch, name):
    monkeypatch.setenv("WAVESWEEP_CHECKED", "1")
    state, aux, params = initial_condition(DEFAULT_IC[name], unit_square_spec(name, 9, 7))
    fill_ghost(state, PER, PER)
    fill_ghost(aux, PER, PER)
    for strategy in (RowWise(), CellWise(), Tiled(4, 3)):
        for backend in (Serial(), StaticThreads(3), WorkStealing(2, 1)):
            sweep(state, aux, make_kernel(name, **params), strategy, backend)


class _CallCounts:
    """A Kernel whose solve calls are counted in total and per parallel leaf.

    `leaves` records the unit range of each leaf the sweep's region ran.
    """

    def __init__(self, kernel: Kernel):
        self.total = 0
        self.per_leaf: list[int] = []
        self.leaves: list[tuple[int, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

        def solve(*args):
            with self._lock:
                self.total += 1
            self._local.calls = getattr(self._local, "calls", 0) + 1
            return kernel.solve(*args)

        self.kernel = Kernel(kernel.descriptor, kernel.params, solve)

    def counting_for_each_unit(self, units, backend, body, **kwargs):
        def leaf(a, b):
            self._local.calls = 0
            result = body(a, b)
            with self._lock:
                self.per_leaf.append(self._local.calls)
                self.leaves.append((a, b))
            return result

        return for_each_unit(units, backend, leaf, **kwargs)


def test_tiled_serial_makes_cellwise_call_count():
    spec, state = filled_gas_field(128, 128, seed=9)
    aux = AuxField(spec)
    calls = {}
    for strategy in (CellWise(), Tiled(32, 32)):
        counts = _CallCounts(make_kernel("euler"))
        sweep(state, aux, counts.kernel, strategy, Serial())
        calls[strategy] = counts.total
    assert calls[Tiled(32, 32)] == calls[CellWise()]


@pytest.mark.parametrize("backend", [WorkStealing(2, 1), WorkStealing(2), StaticThreads(2)])
def test_tiled_leaf_coalesces_tiles(monkeypatch, backend):
    # 17x17 tiles of 8x8: every rectangle a leaf covers fits one call, so
    # a leaf's at most three rectangles take at most six kernel calls
    spec, state = filled_gas_field(128, 128, seed=10)
    aux = AuxField(spec)
    counts = _CallCounts(make_kernel("euler"))
    monkeypatch.setattr(sweep_mod, "for_each_unit", counts.counting_for_each_unit)
    sweep(state, aux, counts.kernel, Tiled(8, 8), backend)
    assert counts.per_leaf and max(counts.per_leaf) <= 6
    assert sum(counts.per_leaf) == counts.total


def test_default_leaves_are_whole_tile_bands(monkeypatch):
    # 128^2 in 8x8 tiles is the acoustics-tiled benchmark's 17 x 17 tiling;
    # checked mode asserts that each interface is written exactly once
    monkeypatch.setenv("WAVESWEEP_CHECKED", "1")
    spec = unit_square_spec("acoustics-var", 128, 128)
    state, aux, _ = initial_condition("acoustics-var-interface", spec)
    state.interior[...] *= 1.0 + 1e-3 * np.random.default_rng(11).random((128, 128))
    fill_ghost(state, PER, PER)
    fill_ghost(aux, PER, PER)
    kernel = make_kernel("acoustics-var")
    ref, ref_stats = sweep(state, aux, kernel, Tiled(8, 8), Serial())
    for backend, sizes in ((WorkStealing(2), [17] * 17),
                           (WorkStealing(2, grain=19), [19] * 15 + [4])):
        counts = _CallCounts(kernel)
        with monkeypatch.context() as m:
            m.setattr(sweep_mod, "for_each_unit", counts.counting_for_each_unit)
            out, stats = sweep(state, aux, counts.kernel, Tiled(8, 8), backend)
        leaves = sorted(counts.leaves)
        assert [b - a for a, b in leaves] == sizes
        if backend.grain is None:
            assert all(a % 17 == 0 for a, _ in leaves)
        for x, y in ((ref.x_minus, out.x_minus), (ref.x_plus, out.x_plus),
                     (ref.y_minus, out.y_minus), (ref.y_plus, out.y_plus)):
            assert np.array_equal(x, y)
        assert stats == ref_stats


def test_serial_call_size_moves_only_call_boundaries(monkeypatch):
    # 160x160 Euler has 161-interface rows.  One thread calls the kernel on
    # 8548 // 161 = 53 rows at a time (X rows 0-52, 53-105, 106-158, 159;
    # Y rows 0-52, ..., 159-160), so a serial sweep makes 4 + 4 calls; on
    # two threads every leaf fits one 32768-interface call per direction.
    spec, state = filled_gas_field(160, 160, seed=12)
    aux = AuxField(spec)
    kernel = make_kernel("euler")
    fields = {}
    for backend, calls in ((Serial(), [8]), (StaticThreads(2), [2] * 2),
                           (WorkStealing(2), [2] * 15)):
        counts = _CallCounts(kernel)
        with monkeypatch.context() as m:
            m.setattr(sweep_mod, "for_each_unit", counts.counting_for_each_unit)
            fields[backend] = sweep(state, aux, counts.kernel, CellWise(), backend)
        assert counts.per_leaf == calls
    ref, ref_stats = fields[Serial()]
    for out, stats in fields.values():
        for a, b in ((ref.x_minus, out.x_minus), (ref.x_plus, out.x_plus),
                     (ref.y_minus, out.y_minus), (ref.y_plus, out.y_plus)):
            assert np.array_equal(a, b)
        assert stats == ref_stats

    # cells on the rows either side of the first serial call boundary
    g = spec.num_ghost
    for cell in ((7, 52), (150, 53)):
        bad = state.copy()
        bad.data[0, g + cell[0], g + cell[1]] = -1.0
        for backend in fields:
            assert _sweep_error(bad, aux, CellWise(), backend) == (Direction.X, *cell)


def test_one_leaf_region_makes_serial_calls(monkeypatch):
    # 128^2 Euler in one 256x256 tile is one leaf, which every backend runs
    # on the caller, so it takes the one-thread calls: 8548 // 129 = 66 rows,
    # x-rows [0, 66), [66, 128) and y-rows [0, 66), [66, 129)
    spec, state = filled_gas_field(128, 128, seed=13)
    aux = AuxField(spec)
    call = sweep_mod._SweepContext._call
    for backend in (Serial(), StaticThreads(2), WorkStealing(2, grain=1)):
        calls = []

        def recording_call(ctx, d, ia, ib, a, b, cells=None):
            calls.append((d.value, a, b))
            return call(ctx, d, ia, ib, a, b, cells)

        with monkeypatch.context() as m:
            m.setattr(sweep_mod._SweepContext, "_call", recording_call)
            sweep(state, aux, make_kernel("euler"), Tiled(256, 256), backend)
        assert calls == [("x", 0, 66), ("y", 0, 66), ("x", 66, 128), ("y", 66, 129)]


def test_plain_kernel_takes_both_directions_per_row_block(monkeypatch):
    # a one-thread advection call holds up to _SERIAL_CALL's cap of 2^15
    # interfaces, 15 x-rows of 2049, the widest rows, which set every block: 2048x30 has 30 x-rows and 31
    # y-rows, so blocks [0, 15) and [15, 30) take x then y, and [30, 31) y alone
    spec = GridSpec(nx=2048, ny=30, dx=1.0, dy=1.0, num_eqn=1)
    state, aux, _ = allocate_fields(spec)
    fill_ghost(state, PER, PER)
    calls = []
    call = sweep_mod._SweepContext._call

    def recording_call(ctx, d, ia, ib, a, b, cells=None):
        calls.append((d, a, b))
        return call(ctx, d, ia, ib, a, b, cells)

    monkeypatch.setattr(sweep_mod._SweepContext, "_call", recording_call)
    sweep(state, aux, make_kernel("advection", u=1.0, v=1.0), CellWise(), Serial())
    X, Y = Direction.X, Direction.Y
    assert calls == [(X, 0, 15), (Y, 0, 15), (X, 15, 30), (Y, 15, 30), (Y, 30, 31)]


@pytest.mark.parametrize("name,nx,ny,rows", [
    # a multi-thread call holds the most interfaces whose result fits
    # 5.75 MiB, at most 2^16: 65536 // 2049 = 31 advection x-rows (32 B per
    # interface), 32768 // 513 = 63 Euler x-rows (184 B per interface)
    ("advection", 2048, 80, 31),
    ("euler", 512, 200, 63),
])
def test_multi_thread_call_size(monkeypatch, name, nx, ny, rows):
    spec = GridSpec(nx=nx, ny=ny, dx=1.0 / nx, dy=1.0 / ny,
                    num_eqn=1 if name == "advection" else 4)
    state, aux, _ = allocate_fields(spec)
    if name == "euler":
        state.interior[:] = random_gas_states(np.random.default_rng(3), nx * ny, 1.4) \
            .reshape(4, nx, ny)
    fill_ghost(state, PER, PER)
    calls = []
    call = sweep_mod._SweepContext._call

    def recording_call(ctx, d, ia, ib, a, b, cells=None):
        calls.append((d.value, a, b))
        return call(ctx, d, ia, ib, a, b, cells)

    monkeypatch.setattr(sweep_mod._SweepContext, "_call", recording_call)
    sweep(state, aux, make_kernel(name, **({"u": 1.0, "v": 1.0} if name == "advection" else {})),
          CellWise(), StaticThreads(2))
    # StaticThreads(2) leaves are rows [0, half) and [half, ny + 1), each cut
    # into blocks of `rows` rows; the top x-row is ny - 1
    half = -(-(ny + 1) // 2)
    blocks = [(a, min(a + rows, stop)) for start, stop in ((0, half), (half, ny + 1))
              for a in range(start, stop, rows)]
    assert sorted(calls) == sorted((d, a, min(b, ny if d == "x" else ny + 1))
                                   for d in "xy" for a, b in blocks)


@pytest.mark.parametrize("backend", [Serial(), WorkStealing(2)])
def test_cell_pass_falls_back_to_plain_calls(monkeypatch, backend):
    # the cell pass covers each block's cells plus one halo column and row, so
    # it reads the ghost corners (-1, -1) and (nx, ny), which no interface
    # reads: a negative density there trips its guard, and those blocks are
    # solved without planes, to the same bits, each slot written once.  On
    # 100x100 one thread makes two blocks of 84 and 17 rows, so (nx, ny) trips
    # after a block's calls have already written.  A KernelError raised only
    # with planes is one the plain location pass cannot reproduce, so it
    # surfaces unlocated, as the region's ParallelError.
    monkeypatch.setenv("WAVESWEEP_CHECKED", "1")
    spec, state = filled_gas_field(100, 100, seed=18)
    aux = AuxField(spec)
    kernel = make_kernel("euler")

    def planes_per_call(state, refuse_planes=False):
        with_planes = []

        def solve(d, ql, qr, auxl, auxr):
            with_planes.append(isinstance(auxl, CellPlanes))
            if refuse_planes and with_planes[-1] and d is Direction.Y:
                raise KernelError("refused", element=(0, 0))
            return kernel.solve(d, ql, qr, auxl, auxr)

        out = sweep(state, aux, Kernel(kernel.descriptor, kernel.params, solve),
                    CellWise(), backend)
        return out, with_planes

    (ref, ref_stats), calls = planes_per_call(state)
    assert all(calls)
    g = spec.num_ghost
    cases = []
    for corner in ((-1, -1), (spec.nx, spec.ny)):
        bad = state.copy()
        bad.data[0, g + corner[0], g + corner[1]] = -1.0
        cases.append(planes_per_call(bad))
    for (out, stats), calls in cases:
        assert not all(calls)
        for a, b in ((ref.x_minus, out.x_minus), (ref.x_plus, out.x_plus),
                     (ref.y_minus, out.y_minus), (ref.y_plus, out.y_plus)):
            assert np.array_equal(a, b)
        assert stats == ref_stats
    with pytest.raises(ParallelError) as exc:
        planes_per_call(state, refuse_planes=True)
    assert isinstance(exc.value.__cause__, KernelError)
    assert str(exc.value.__cause__) == "refused"


class TestApplyUpdate:
    def test_zero_fluctuations_leave_state_alone(self):
        spec, state = filled_gas_field(6, 5, seed=5)
        before = state.data.copy()
        from wavesweep.grid import FluctuationField
        fluct = FluctuationField(spec)  # zeroed
        apply_update(state, fluct, dt=0.1)
        assert np.array_equal(state.data, before)

    def test_donor_cell_hand_case(self):
        # u=1, dt/dx=0.5, profile 0 0 1 1: the cell right of the jump halves
        spec = GridSpec(nx=4, ny=1, dx=1.0, dy=1.0, num_ghost=1, num_eqn=1)
        state, aux, _ = allocate_fields(spec)
        state.interior[0, :, 0] = [0.0, 0.0, 1.0, 1.0]
        fill_ghost(state, BoundaryCondition.EXTRAPOLATE, BoundaryCondition.EXTRAPOLATE)
        fluct, _ = sweep(state, aux, make_kernel("advection", u=1.0, v=0.0),
                         CellWise(), Serial())
        apply_update(state, fluct, dt=0.5)
        assert list(state.interior[0, :, 0]) == [0.0, 0.0, 0.5, 1.0]

    def test_periodic_advection_conserves_interior_sum(self):
        spec = GridSpec(nx=16, ny=12, dx=1 / 16, dy=1 / 12, num_eqn=1)
        state, aux, _ = allocate_fields(spec)
        rng = np.random.default_rng(6)
        state.interior[:] = rng.normal(size=state.interior.shape)
        total = state.interior.sum()
        kernel = make_kernel("advection", u=0.7, v=-1.3)
        for _ in range(5):
            fill_ghost(state, PER, PER)
            fluct, _ = sweep(state, aux, kernel, CellWise(), Serial())
            apply_update(state, fluct, dt=0.01)
            new_total = state.interior.sum()
            assert abs(new_total - total) <= 1e-12 * max(1.0, abs(total))
            total = new_total

    def test_update_backend_equivalence(self):
        spec, state = filled_gas_field(21, 13, seed=7)
        aux = AuxField(spec)
        fluct, _ = sweep(state, aux, make_kernel("euler"), CellWise(), Serial())
        serial = state.copy()
        apply_update(serial, fluct, dt=1e-3, backend=Serial())
        threaded = state.copy()
        apply_update(threaded, fluct, dt=1e-3, backend=StaticThreads(4))
        assert np.array_equal(serial.data, threaded.data)

    @pytest.mark.parametrize("backend", [Serial(), StaticThreads(2)])
    @pytest.mark.parametrize("nx,ny", [(_UPDATE_CHUNK + 5, 3), (1000, 70)])
    def test_blocked_update_equals_whole_grid_expression(self, nx, ny, backend):
        # rows are updated in chunks of max(1, _UPDATE_CHUNK // nx): 1 row, or 32 rows
        spec = GridSpec(nx=nx, ny=ny, dx=0.3, dy=0.7, num_eqn=1)
        rng = np.random.default_rng(9)
        state = StateField(spec)
        state.data[:] = rng.normal(size=state.data.shape)
        fluct = FluctuationField(spec)
        for arr in (fluct.x_minus, fluct.x_plus, fluct.y_minus, fluct.y_plus):
            arr[:] = rng.normal(size=arr.shape)
        dt = 0.01
        dtdx, dtdy = dt / spec.dx, dt / spec.dy
        expect = state.data.copy(order="F")
        q = expect[:, 2 : 2 + nx, 2 : 2 + ny]
        q -= dtdx * (fluct.x_plus[:, :nx] + fluct.x_minus[:, 1:])
        q -= dtdy * (fluct.y_plus[:, :, :ny] + fluct.y_minus[:, :, 1:])
        apply_update(state, fluct, dt, backend=backend)
        assert np.array_equal(state.data, expect)

    @pytest.mark.parametrize("nx,ny", [(8, 12), (12, 8)])
    def test_fluctuations_of_another_grid_are_rejected(self, nx, ny):
        spec = GridSpec(nx=8, ny=8, dx=0.1, dy=0.1, num_eqn=1)
        state = StateField(spec)
        state.data[:] = 1.0
        fluct = FluctuationField(GridSpec(nx=nx, ny=ny, dx=0.1, dy=0.1, num_eqn=1))
        fluct.x_plus[:] = 1.0
        with pytest.raises(ValueError, match=rf"fluct is a field for GridSpec\(nx={nx}, ny={ny}"):
            apply_update(state, fluct, 0.01)
        assert np.all(state.data == 1.0)

    def test_nonpositive_dt_rejected(self):
        spec, state = filled_gas_field(4, 4, seed=8)
        from wavesweep.grid import FluctuationField
        fluct = FluctuationField(spec)
        for dt in (0.0, -0.5):
            with pytest.raises(ValueError, match="dt"):
                apply_update(state, fluct, dt=dt)


def test_package_attribute_sweep_is_the_module():
    import wavesweep.sweep as module
    assert isinstance(module, types.ModuleType)
    assert module.sweep is sweep
