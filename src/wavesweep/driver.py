"""Time integration: CFL-controlled step selection, the ghost-fill /
sweep / update loop, and built-in initial conditions for each kernel."""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (AuxField, BoundaryCondition, FluctuationField, GridSpec, StateField,
                   check_same_grid, fill_ghost)
from .kernels import Kernel, lookup_kernel, make_kernel
from .parallel import Backend, Serial
from .sweep import CellWise, Strategy, SweepError, apply_update, sweep

# the most steps a t_final run takes; a run that has not reached t_final by
# then raises StepLimitError instead of looping on (e.g. a huge t_final)
MAX_STEPS = 10**6


@dataclass(frozen=True)
class TimestepController:
    """CFL-target step selection."""

    cfl_target: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.cfl_target < 1.0:
            raise ValueError(f"cfl_target must lie in (0, 1), got {self.cfl_target}")


def choose_dt(max_sx: float, max_sy: float, dx: float, dy: float,
              ctl: TimestepController, remaining: float | None = None) -> float:
    """Largest stable step: dt = cfl_target / (max_sx/dx + max_sy/dy).

    The summed-directions form is what the unsplit donor-cell update's
    stability region requires.  Clamped by the remaining time.  A stationary
    field (both speeds zero) is an error rather than dt=inf, so configuration
    mistakes cannot hide behind an infinite step.
    """
    if max_sx < 0 or max_sy < 0:
        raise ValueError(f"wave speeds must be >= 0, got {max_sx}, {max_sy}")
    rate = max_sx / dx + max_sy / dy
    if rate == 0.0:
        raise ValueError("all wave speeds are zero; a stationary field has no CFL step")
    dt = ctl.cfl_target / rate
    if remaining is not None:
        dt = min(dt, remaining)
    return dt


@dataclass(frozen=True)
class SimulationConfig:
    """One complete simulation setup.  Exactly one of t_final/num_steps; the
    ic names an INITIAL_CONDITIONS entry declared for this kernel; the grid
    carries the kernel's components.  Any grid of at least one cell per axis
    runs under either boundary condition."""

    spec: GridSpec
    kernel: str
    ic: str
    strategy: Strategy = CellWise()
    backend: Backend = Serial()
    bc_x: BoundaryCondition = BoundaryCondition.PERIODIC
    bc_y: BoundaryCondition = BoundaryCondition.PERIODIC
    t_final: float | None = None
    num_steps: int | None = None

    def __post_init__(self):
        desc = lookup_kernel(self.kernel)
        ic_kernel = _lookup_ic(self.ic).kernel
        if ic_kernel != self.kernel:
            raise ValueError(f"initial condition {self.ic} is for kernel {ic_kernel}, "
                             f"not {self.kernel}")
        desc.check_components(self.spec.num_eqn, self.spec.num_aux)
        if (self.t_final is None) == (self.num_steps is None):
            raise ValueError("exactly one of t_final and num_steps must be set")
        if self.t_final is not None and not (math.isfinite(self.t_final)
                                             and self.t_final >= 0):
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.num_steps is not None and self.num_steps < 0:
            raise ValueError(f"num_steps must be >= 0, got {self.num_steps}")


@dataclass
class StepReport:
    """What one step did: step size, realized CFL, and phase wall times."""

    dt: float
    cfl: float
    sweep_ms: float
    update_ms: float
    max_speed_x: float
    max_speed_y: float


DEFAULT_IC = {
    "advection": "advection-gaussian",
    "acoustics-const": "acoustics-pulse",
    "acoustics-var": "acoustics-var-interface",
    "euler": "euler-sod-x",
}

SOD_LEFT = (1.0, 0.0, 0.0, 2.5)       # density 1, at rest, pressure 1 (gamma 1.4)
SOD_RIGHT = (0.125, 0.0, 0.0, 0.25)   # density 1/8, at rest, pressure 0.1


def unit_square_spec(kernel: str, nx: int, ny: int) -> GridSpec:
    """An nx x ny grid on the unit square sized for `kernel`'s state and aux."""
    desc = lookup_kernel(kernel)
    # a count below 1 reaches GridSpec, which names it, not a ZeroDivisionError
    return GridSpec(nx=nx, ny=ny, dx=1.0 / max(nx, 1), dy=1.0 / max(ny, 1),
                    num_eqn=desc.num_eqn, num_aux=desc.num_aux)


def gaussian_profile(spec: GridSpec, x_frac: float = 0.5):
    """Unit-amplitude Gaussian bump at x_frac of the width, centered in y.

    Width is min(domain extent)/16, so the tails are far below double
    precision at the boundary and the profile is effectively periodic.
    """
    cx, cy = x_frac * spec.width, 0.5 * spec.height
    sigma = min(spec.width, spec.height) / 16.0

    def profile(x, y):
        return np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma * sigma))

    return profile


def _fill_bump(spec, xx, yy, q, aux):
    q[0] = gaussian_profile(spec)(xx, yy)  # a tracer, or a pressure bump at rest


def _fill_interface(spec, xx, yy, q, aux):
    q[0] = gaussian_profile(spec, 0.25)(xx, yy)
    aux[0] = 1.0
    aux[1] = np.where(xx < 0.5 * spec.width, 1.0, 3.0)


def _fill_sod_x(spec, xx, yy, q, aux):
    left = xx < 0.5 * spec.width
    for comp in range(4):
        q[comp] = np.where(left, SOD_LEFT[comp], SOD_RIGHT[comp])


def _fill_uniform(spec, xx, yy, q, aux):
    for comp in range(4):
        q[comp] = SOD_LEFT[comp]


@dataclass(frozen=True)
class InitialCondition:
    """A named initial condition: the kernel it is for, the kernel parameters
    it implies, and fill(spec, xx, yy, q, aux), which writes the interior
    state q and aux given the cell centers xx, yy."""

    kernel: str
    params: dict
    fill: Callable[..., None]


INITIAL_CONDITIONS: dict[str, InitialCondition] = {
    "advection-gaussian": InitialCondition("advection", {"u": 1.0, "v": 1.0}, _fill_bump),
    "acoustics-pulse": InitialCondition("acoustics-const", {"rho": 1.0, "bulk": 1.0},
                                        _fill_bump),
    "acoustics-var-interface": InitialCondition("acoustics-var", {}, _fill_interface),
    "euler-sod-x": InitialCondition("euler", {"gamma": 1.4}, _fill_sod_x),
    "euler-uniform": InitialCondition("euler", {"gamma": 1.4}, _fill_uniform),
}


def _lookup_ic(name: str) -> InitialCondition:
    if name not in INITIAL_CONDITIONS:
        raise ValueError(f"unknown initial condition {name!r}; "
                         f"available: {', '.join(INITIAL_CONDITIONS)}")
    return INITIAL_CONDITIONS[name]


def initial_condition(name: str, spec: GridSpec) -> tuple[StateField, AuxField, dict]:
    """Build interior state/aux for a named initial condition.

    Returns the kernel parameters the condition implies alongside the fields.
    Ghost cells are left zero; they are filled from the boundary conditions
    at step time.
    """
    ic = _lookup_ic(name)
    lookup_kernel(ic.kernel).check_components(spec.num_eqn, spec.num_aux)
    state = StateField(spec)
    aux = AuxField(spec)
    xx, yy = np.meshgrid(spec.x_centers(), spec.y_centers(), indexing="ij")
    ic.fill(spec, xx, yy, state.interior, aux.interior)
    return state, aux, dict(ic.params)


def resolve_kernel(config: SimulationConfig) -> Kernel:
    """Bind the configured kernel to the parameters its IC implies."""
    return make_kernel(config.kernel, **INITIAL_CONDITIONS[config.ic].params)


# one fluctuation field per stepping thread, reused by every step on a grid of
# its spec: a sweep overwrites every slot and the update only reads them, so
# the field carries nothing from one step to the next and never leaves step()
_fluct_slot = threading.local()


def _fluct_field(spec: GridSpec) -> FluctuationField:
    fluct = getattr(_fluct_slot, "field", None)
    if fluct is None or fluct.spec != spec:
        fluct = _fluct_slot.field = FluctuationField(spec)
    return fluct


def step(state: StateField, aux: AuxField | None, config: SimulationConfig,
         ctl: TimestepController, remaining: float | None = None
         ) -> tuple[StateField, StepReport]:
    """One ghost-fill / sweep / choose-dt / update cycle.

    The step size comes from this sweep's own max wave speeds, so the first
    step needs no pre-pass.  The fluctuations go into this thread's reused
    field, so after its first step a step allocates nothing grid-sized.  The
    state must be of the config's grid.  Mutates and returns `state`.
    """
    spec = config.spec
    check_same_grid(spec, state=state)
    kernel = resolve_kernel(config)

    fill_ghost(state, config.bc_x, config.bc_y)
    if aux is not None and aux.num_comp:
        fill_ghost(aux, config.bc_x, config.bc_y)

    t0 = time.perf_counter()
    fluct, stats = sweep(state, aux, kernel, config.strategy, config.backend,
                         out=_fluct_field(spec))
    t1 = time.perf_counter()
    dt = choose_dt(stats.max_speed_x, stats.max_speed_y, spec.dx, spec.dy, ctl, remaining)
    apply_update(state, fluct, dt, backend=config.backend)
    t2 = time.perf_counter()

    cfl = dt * (stats.max_speed_x / spec.dx + stats.max_speed_y / spec.dy)
    report = StepReport(dt=dt, cfl=cfl, sweep_ms=(t1 - t0) * 1e3,
                        update_ms=(t2 - t1) * 1e3,
                        max_speed_x=stats.max_speed_x, max_speed_y=stats.max_speed_y)
    return state, report


class StepLimitError(RuntimeError):
    """A t_final run took MAX_STEPS steps without reaching t_final."""

    def __init__(self, steps: int, time: float, t_final: float):
        super().__init__(f"stopped after {steps} steps (the step limit) at "
                         f"t={float(time)!r}, short of t_final={float(t_final)!r}")
        self.steps = steps
        self.time = time
        self.t_final = t_final


def run(config: SimulationConfig, ctl: TimestepController | None = None
        ) -> tuple[StateField, list[StepReport]]:
    """Integrate from the named initial condition to t_final or num_steps.

    Returns the final state and every step's report; see `integrate`, which
    runs the steps and raises the same errors.
    """
    reports: list[StepReport] = []
    state = integrate(config, reports.append, ctl)
    return state, reports


def integrate(config: SimulationConfig, on_step: Callable[[StepReport], None],
              ctl: TimestepController | None = None) -> StateField:
    """Step from the named initial condition to t_final or num_steps.

    Each step's report goes to `on_step` as the step ends; none is kept here,
    so a caller that only sums the reports holds constant memory however long
    the run.  The last step's dt is truncated to land on t_final exactly.  A
    t_final run stops with StepLimitError after MAX_STEPS steps.  A kernel
    failure raises SweepError carrying the step index and sim time as well as
    the interface.  Returns the final state.
    """
    ctl = ctl if ctl is not None else TimestepController()
    state, aux, _ = initial_condition(config.ic, config.spec)
    steps = 0
    t = 0.0

    try:
        if config.num_steps is not None:
            for _ in range(config.num_steps):
                state, rep = step(state, aux, config, ctl)
                on_step(rep)
                steps += 1
                t += rep.dt
        else:
            tol = 1e-14 * config.t_final
            while config.t_final - t > tol:
                if steps >= MAX_STEPS:
                    raise StepLimitError(steps, t, config.t_final)
                state, rep = step(state, aux, config, ctl, remaining=config.t_final - t)
                on_step(rep)
                steps += 1
                t += rep.dt
    except SweepError as err:
        raise SweepError(err.direction, err.i, err.j, err.cause,
                         step=steps, time=t) from err
    return state
