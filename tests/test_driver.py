import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wavesweep
import wavesweep.driver as driver
import wavesweep.kernels as kernels
from wavesweep.driver import (DEFAULT_IC, SOD_LEFT, SOD_RIGHT, SimulationConfig,
                              StepLimitError, TimestepController, choose_dt,
                              gaussian_profile, initial_condition, run, step)
from wavesweep.grid import BoundaryCondition, GridSpec
from wavesweep.kernels import KernelDescriptor, rp_advection
from wavesweep.oracles import error_norms, exact_advection
from wavesweep.parallel import Serial, StaticThreads, WorkStealing
from wavesweep.sweep import CellWise, RowWise, SweepError, Tiled


def gas_spec(nx, ny):
    return GridSpec(nx=nx, ny=ny, dx=1.0 / nx, dy=1.0 / ny, num_eqn=4)


class TestChooseDt:
    def test_symmetric_speeds(self):
        ctl = TimestepController(cfl_target=0.9)
        assert choose_dt(1.0, 1.0, 0.01, 0.01, ctl) == pytest.approx(0.0045, rel=1e-12)

    def test_pure_x_motion(self):
        ctl = TimestepController(cfl_target=0.5)
        assert choose_dt(2.0, 0.0, 0.1, 0.1, ctl) == pytest.approx(0.025, rel=1e-12)

    def test_stationary_without_fixed_dt_is_an_error(self):
        with pytest.raises(ValueError, match="stationary"):
            choose_dt(0.0, 0.0, 0.1, 0.1, TimestepController())

    def test_remaining_clamp(self):
        ctl = TimestepController(cfl_target=0.9)
        assert choose_dt(1.0, 0.0, 1.0, 1.0, ctl, remaining=1e-4) == 1e-4

    @pytest.mark.parametrize("cfl", [0.0, 1.0, -0.1, 1.5])
    def test_cfl_target_range(self, cfl):
        with pytest.raises(ValueError):
            TimestepController(cfl_target=cfl)


class TestConfig:
    def test_exactly_one_stop_rule(self):
        spec = gas_spec(8, 8)
        with pytest.raises(ValueError, match="exactly one"):
            SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x")
        with pytest.raises(ValueError, match="exactly one"):
            SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                             t_final=1.0, num_steps=5)

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            SimulationConfig(spec=gas_spec(8, 8), kernel="maxwell",
                             ic="euler-sod-x", num_steps=1)
        with pytest.raises(ValueError, match="unknown kernel 'maxwell'; available: advection"):
            driver.unit_square_spec("maxwell", 8, 8)

    def test_initial_condition_must_exist_and_fit_the_kernel(self):
        with pytest.raises(ValueError, match="unknown initial condition 'vortex'"):
            SimulationConfig(spec=gas_spec(8, 8), kernel="euler", ic="vortex", num_steps=1)
        with pytest.raises(ValueError, match="advection-gaussian is for kernel advection"):
            SimulationConfig(spec=gas_spec(8, 8), kernel="euler",
                             ic="advection-gaussian", num_steps=1)

    def test_grid_must_carry_the_kernels_components(self):
        # refused when built, not later inside run
        with pytest.raises(ValueError, match="kernel euler expects num_eqn=4, num_aux=0; "
                                             "got num_eqn=1, num_aux=0"):
            SimulationConfig(spec=GridSpec(8, 8, .1, .1, num_eqn=1), kernel="euler",
                             ic="euler-sod-x", num_steps=1)
        with pytest.raises(ValueError, match="expects num_eqn=3, num_aux=2"):
            SimulationConfig(spec=GridSpec(8, 8, .1, .1, num_eqn=3), kernel="acoustics-var",
                             ic="acoustics-var-interface", num_steps=1)

    def test_periodic_axis_must_cover_the_ghost_frame(self):
        for nx, ny in ((1, 8), (8, 1)):
            with pytest.raises(ValueError, match="ghost frame"):
                SimulationConfig(spec=gas_spec(nx, ny), kernel="euler", ic="euler-sod-x",
                                 num_steps=1)
        # an extrapolated axis wraps nothing, so one cell is enough
        SimulationConfig(spec=gas_spec(1, 8), kernel="euler", ic="euler-sod-x",
                         bc_x=BoundaryCondition.EXTRAPOLATE, num_steps=1)

    @pytest.mark.parametrize("t_final", [math.inf, math.nan, -1.0])
    def test_t_final_must_be_finite_and_nonnegative(self, t_final):
        # with t_final = inf the step loop's tolerance is inf and no step runs
        with pytest.raises(ValueError, match="t_final"):
            SimulationConfig(spec=gas_spec(8, 8), kernel="euler", ic="euler-sod-x",
                             t_final=t_final)


def test_a_kernel_declared_in_the_tables_runs_under_every_backend(monkeypatch):
    # a new kernel is one solver, one descriptor, one initial-condition entry
    # and one DEFAULT_IC entry; nothing in the sweep, scheduler or driver names it.
    # The toy is advection at (speed, speed) with a cell pass that always
    # declines, so its runs equal the built-in advection run bit for bit.
    blocks = []

    def solve(direction, ql, qr, auxl=None, auxr=None, *, speed):
        return rp_advection(direction, ql, qr, u=speed, v=speed)

    def cell_pass(q, speed):
        blocks.append(q.shape)
        return None

    monkeypatch.setitem(kernels.DESCRIPTORS, "toy",
                        KernelDescriptor("toy", 1, 1, 0, solve, cell_pass))
    monkeypatch.setitem(driver.INITIAL_CONDITIONS, "toy-bump", driver.InitialCondition(
        "toy", {"speed": 1.0}, driver.INITIAL_CONDITIONS["advection-gaussian"].fill))
    monkeypatch.setitem(DEFAULT_IC, "toy", "toy-bump")
    spec = driver.unit_square_spec("toy", 24, 16)
    finals = []
    for kernel, backend in (("toy", Serial()), ("toy", WorkStealing(2)),
                            ("advection", Serial())):
        state, reports = run(SimulationConfig(spec=spec, kernel=kernel, ic=DEFAULT_IC[kernel],
                                              backend=backend, num_steps=3))
        assert len(reports) == 3
        finals.append(state.data)
    assert blocks  # the sweep found the cell pass on the descriptor
    assert np.array_equal(finals[0], finals[1])
    assert np.array_equal(finals[0], finals[2])


class TestInitialConditions:
    def test_shock_tube_cell_values(self):
        spec = gas_spec(8, 4)
        state, _, params = initial_condition("euler-sod-x", spec)
        assert params == {"gamma": 1.4}
        assert tuple(state.interior[:, 0, 0]) == SOD_LEFT == (1.0, 0.0, 0.0, 2.5)
        assert tuple(state.interior[:, -1, 0]) == SOD_RIGHT == (0.125, 0.0, 0.0, 0.25)

    def test_pressure_pulse_is_at_rest(self):
        # odd cell count puts one cell center exactly on the bump's peak
        spec = GridSpec(nx=15, ny=15, dx=1 / 15, dy=1 / 15, num_eqn=3)
        state, _, _ = initial_condition("acoustics-pulse", spec)
        assert np.all(state.interior[1] == 0.0)
        assert np.all(state.interior[2] == 0.0)
        assert state.interior[0].max() == pytest.approx(1.0, rel=1e-12)

    def test_material_interface_aux(self):
        spec = GridSpec(nx=8, ny=4, dx=1 / 8, dy=1 / 4, num_eqn=3, num_aux=2)
        _, aux, _ = initial_condition("acoustics-var-interface", spec)
        assert np.all(aux.interior[0] == 1.0)
        assert np.all(aux.interior[1, :4] == 1.0)
        assert np.all(aux.interior[1, 4:] == 3.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown initial condition"):
            initial_condition("vortex", gas_spec(8, 8))

    def test_spec_mismatch(self):
        with pytest.raises(ValueError, match="num_eqn"):
            initial_condition("advection-gaussian", gas_spec(8, 8))

    def test_every_kernel_has_a_default_ic(self):
        from wavesweep.kernels import KERNEL_NAMES
        assert set(DEFAULT_IC) == set(KERNEL_NAMES)


class TestStep:
    def test_uniform_state_is_a_fixed_point(self):
        spec = gas_spec(10, 6)
        config = SimulationConfig(spec=spec, kernel="euler", ic="euler-uniform",
                                  num_steps=1)
        state, aux, _ = initial_condition("euler-uniform", spec)
        before = state.interior.copy()
        _, report = step(state, aux, config, TimestepController())
        assert np.array_equal(state.interior, before)
        assert report.cfl == pytest.approx(0.9, abs=1e-12)
        assert report.dt > 0 and report.sweep_ms >= 0.0

    def test_single_step_conserves_mass(self):
        spec = GridSpec(nx=24, ny=24, dx=1 / 24, dy=1 / 24, num_eqn=1)
        config = SimulationConfig(spec=spec, kernel="advection",
                                  ic="advection-gaussian", num_steps=1)
        state, aux, _ = initial_condition("advection-gaussian", spec)
        total = state.interior.sum()
        step(state, aux, config, TimestepController())
        assert abs(state.interior.sum() - total) <= 1e-12 * max(1.0, abs(total))

    def test_state_of_another_grid_is_rejected(self):
        config = SimulationConfig(spec=driver.unit_square_spec("advection", 16, 16),
                                  kernel="advection", ic="advection-gaussian", num_steps=1)
        state, aux, _ = initial_condition("advection-gaussian",
                                          driver.unit_square_spec("advection", 8, 8))
        before = state.data.copy()
        with pytest.raises(ValueError, match=r"state is a field for GridSpec\(nx=8.*"
                                             r"grid is GridSpec\(nx=16"):
            step(state, aux, config, TimestepController())
        assert np.array_equal(state.data, before)

    def test_shock_tube_keeps_y_momentum_exactly_zero(self):
        spec = gas_spec(32, 4)
        config = SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                                  num_steps=1)
        state, aux, _ = initial_condition("euler-sod-x", spec)
        for _ in range(10):
            step(state, aux, config, TimestepController())
        assert np.all(state.interior[2] == 0.0)

    def test_realized_cfl_never_exceeds_target(self):
        spec = gas_spec(16, 16)
        config = SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                                  num_steps=25)
        _, reports = run(config, TimestepController(cfl_target=0.8))
        for rep in reports:
            assert rep.cfl <= 0.8 + 1e-12

    def test_reused_fluctuation_field_carries_nothing_between_states(self):
        spec = gas_spec(20, 14)
        ctl = TimestepController()
        plans = [SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x", num_steps=1),
                 SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                                  strategy=Tiled(6, 5), backend=StaticThreads(2),
                                  num_steps=1)]
        other_spec = GridSpec(nx=12, ny=10, dx=1 / 12, dy=1 / 10, num_eqn=1)
        other = SimulationConfig(spec=other_spec, kernel="advection",
                                 ic="advection-gaussian", num_steps=1)
        other_state, other_aux, _ = initial_condition(other.ic, other_spec)
        starts = []
        for k in range(2):
            state, aux, _ = initial_condition("euler-sod-x", spec)
            state.interior[0] *= 1.0 + 0.1 * k   # the two states differ
            starts.append((state, aux))

        alone = []
        for (state, aux), config in zip(starts, plans):
            state = state.copy()
            for _ in range(4):
                step(state, aux, config, ctl)
            alone.append(state)

        together = [state.copy() for state, _ in starts]
        for _ in range(4):
            for k, config in enumerate(plans):
                step(together[k], starts[k][1], config, ctl)
                step(other_state, other_aux, other, ctl)
        for a, b in zip(alone, together):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("backend", [Serial(), StaticThreads(2)])
    def test_warm_step_allocates_less_than_one_fluctuation_array(self, backend):
        n = 1024
        spec = GridSpec(nx=n, ny=n, dx=1 / n, dy=1 / n, num_eqn=1)
        config = SimulationConfig(spec=spec, kernel="advection", ic="advection-gaussian",
                                  backend=backend, num_steps=3)
        state, aux, _ = initial_condition(config.ic, spec)
        ctl = TimestepController()
        for _ in range(2):
            step(state, aux, config, ctl)
        tracemalloc.start()
        try:
            step(state, aux, config, ctl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (n + 1) * n * 8, f"third step's traced peak {peak / 2**20:.1f} MiB"

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="the malloc thresholds are pinned only under glibc on Linux")
    def test_warm_steps_do_not_fault(self):
        # a fresh process, so this one's allocation history cannot hide the churn
        script = textwrap.dedent("""
            import resource
            from wavesweep.driver import (SimulationConfig, TimestepController,
                                          initial_condition, step)
            from wavesweep.grid import GridSpec
            from wavesweep.parallel import StaticThreads

            spec = GridSpec(nx=256, ny=256, dx=1 / 256, dy=1 / 256, num_eqn=4)
            config = SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                                      backend=StaticThreads(2), num_steps=1)
            state, aux, _ = initial_condition(config.ic, spec)
            ctl = TimestepController()
            for _ in range(2):
                step(state, aux, config, ctl)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                step(state, aux, config, ctl)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / 5)
        """)
        src = str(Path(wavesweep.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert float(out.stdout) < 256, f"{out.stdout.strip()} minor faults per warm step"

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="the malloc thresholds are pinned only under glibc on Linux")
    @pytest.mark.parametrize("backend", ["Serial()", "StaticThreads(2)"])
    def test_warm_euler_steps_keep_cell_planes_block_sized(self, backend):
        # the sweep's cell planes are block-sized: at 384^2, grid-sized planes
        # in one array (4 x 386^2 x 8 B, about 4.8 MB) would be above the 4 MiB
        # mmap threshold and fault in again every step
        script = textwrap.dedent(f"""
            import resource
            from wavesweep.driver import (SimulationConfig, TimestepController,
                                          initial_condition, step)
            from wavesweep.grid import GridSpec
            from wavesweep.parallel import Serial, StaticThreads

            spec = GridSpec(nx=384, ny=384, dx=1 / 384, dy=1 / 384, num_eqn=4)
            config = SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                                      backend={backend}, num_steps=1)
            state, aux, _ = initial_condition(config.ic, spec)
            ctl = TimestepController()
            for _ in range(2):
                step(state, aux, config, ctl)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                step(state, aux, config, ctl)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / 5)
        """)
        src = str(Path(wavesweep.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert float(out.stdout) < 256, f"{out.stdout.strip()} minor faults per warm step"


class TestRun:
    def test_zero_steps_returns_initial_condition(self):
        spec = gas_spec(8, 4)
        config = SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                                  num_steps=0)
        state, reports = run(config)
        fresh, _, _ = initial_condition("euler-sod-x", spec)
        assert reports == []
        assert np.array_equal(state.interior, fresh.interior)

    def test_t_final_reached_exactly(self):
        spec = GridSpec(nx=16, ny=16, dx=1 / 16, dy=1 / 16, num_eqn=1)
        config = SimulationConfig(spec=spec, kernel="advection",
                                  ic="advection-gaussian", t_final=0.1)
        _, reports = run(config)
        assert math.fsum(r.dt for r in reports) == pytest.approx(0.1, abs=1e-14)

    def test_tiny_t_final_is_one_truncated_step(self):
        spec = GridSpec(nx=16, ny=16, dx=1 / 16, dy=1 / 16, num_eqn=1)
        config = SimulationConfig(spec=spec, kernel="advection",
                                  ic="advection-gaussian", t_final=1e-6)
        _, reports = run(config)
        assert len(reports) == 1
        assert reports[0].dt == pytest.approx(1e-6, abs=1e-18)

    @pytest.mark.parametrize("t_final,steps", [(1e-300, 1), (0.0, 0)])
    def test_t_final_far_below_one_is_not_rounded_away(self, t_final, steps):
        # the end-time tolerance is relative to t_final, so 1e-300 still takes its step
        spec = GridSpec(nx=8, ny=8, dx=1 / 8, dy=1 / 8, num_eqn=1)
        config = SimulationConfig(spec=spec, kernel="advection",
                                  ic="advection-gaussian", t_final=t_final)
        _, reports = run(config)
        assert len(reports) == steps
        assert sum(r.dt for r in reports) == t_final

    def test_t_final_run_stops_at_step_limit(self, monkeypatch):
        monkeypatch.setattr(driver, "MAX_STEPS", 5)
        spec = GridSpec(nx=8, ny=8, dx=1 / 8, dy=1 / 8, num_eqn=1)
        config = SimulationConfig(spec=spec, kernel="advection",
                                  ic="advection-gaussian", t_final=1e9)
        with pytest.raises(StepLimitError) as exc:
            run(config)
        _, reports = run(SimulationConfig(spec=spec, kernel="advection",
                                          ic="advection-gaussian", num_steps=5))
        assert exc.value.steps == 5
        assert exc.value.time == sum(r.dt for r in reports)
        assert exc.value.t_final == 1e9
        # the cap is on t_final runs only; num_steps already bounds a run
        assert len(run(SimulationConfig(spec=spec, kernel="advection",
                                        ic="advection-gaussian", num_steps=7))[1]) == 7

    @pytest.mark.parametrize("backend", [Serial(), StaticThreads(2)])
    def test_kernel_failure_reports_step_and_time(self, poison_step, backend):
        spec = gas_spec(8, 8)
        clean = SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                                 backend=backend, num_steps=2)
        _, reports = run(clean)
        for config in (SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                                        backend=backend, num_steps=4),
                       SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                                        backend=backend, t_final=10.0)):
            poison_step(2)
            with pytest.raises(SweepError) as exc:
                run(config)
            err = exc.value
            assert (err.direction.value, err.i, err.j) == ("x", 3, 2)
            assert err.step == 2
            assert err.time == reports[0].dt + reports[1].dt
            assert str(err).startswith(f"x-interface (i=3, j=2) in step 2 at t={err.time!r}")
            assert "nonpositive density on right side" in str(err)

        # a last-row cell is first read, through the periodic ghost row, by
        # y-interface (3, 0): the first failing interface in row-major order
        poison_step(2, cell=(3, 7))
        with pytest.raises(SweepError) as exc:
            run(SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                                 backend=backend, num_steps=4))
        assert str(exc.value).startswith("y-interface (i=3, j=0) in step 2")

    @pytest.mark.parametrize("strategy,backend", [
        (RowWise(), StaticThreads(3)),
        (Tiled(5, 4), WorkStealing(3, 2)),
        (CellWise(), WorkStealing(2)),
    ])
    def test_determinism_across_execution_plans(self, strategy, backend):
        spec = gas_spec(20, 14)
        base = SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                                num_steps=6)
        alt = SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                               strategy=strategy, backend=backend, num_steps=6)
        ref, _ = run(base)
        out, _ = run(alt)
        assert np.array_equal(ref.data, out.data)

    def test_translation_error_shrinks_with_resolution(self):
        errors = []
        for n in (32, 64):
            spec = GridSpec(nx=n, ny=n, dx=1.0 / n, dy=1.0 / n, num_eqn=1)
            config = SimulationConfig(spec=spec, kernel="advection",
                                      ic="advection-gaussian", t_final=0.25)
            state, _ = run(config)
            exact = exact_advection(gaussian_profile(spec), 1.0, 1.0, 0.25, spec)
            errors.append(error_norms(state, exact).l1)
        assert errors[1] < errors[0]

    def test_variable_coefficient_run_stays_finite(self):
        spec = GridSpec(nx=32, ny=8, dx=1 / 32, dy=1 / 8, num_eqn=3, num_aux=2)
        config = SimulationConfig(spec=spec, kernel="acoustics-var",
                                  ic="acoustics-var-interface",
                                  bc_x=BoundaryCondition.EXTRAPOLATE,
                                  num_steps=20)
        state, reports = run(config)
        assert np.all(np.isfinite(state.interior))
        assert reports[0].max_speed_x == 3.0  # fast material on the right
