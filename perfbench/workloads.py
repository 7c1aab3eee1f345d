"""Benchmark workloads, their seeded inputs, and the correctness gates.

Every configuration is built through ``wavesweep.cli.parse_args(["run", ...])``
so the benchmark follows the command-line contract rather than internal
constructors.  Each workload runs the same seeded input twice in one process:
once serially and once on two threads.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from wavesweep import cli, driver

# the conservation-run oracle's bound on per-step relative drift
DRIFT_BOUND = 1e-12
# per-cell input scaling: 1 + SEED_AMPLITUDE * U(0, 1)
SEED_AMPLITUDE = 1e-3
THREADS = 2
# grid side used by --smoke (tests only; figures are not comparable)
SMOKE_N = 64
LABELS = ("serial", f"threads{THREADS}")


def steal_ms() -> float:
    """Milliseconds the hypervisor has so far kept this machine's CPUs from running.

    The `steal` column of /proc/stat, summed over CPUs; 0 where there is none.
    A step's wall time minus the steal during it is the time the step took on
    the CPUs it was given, which is what it would take on a machine of its own.
    """
    try:
        with open("/proc/stat") as f:
            ticks = int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks * 1e3 / os.sysconf("SC_CLK_TCK")


class HostReference:
    """A fixed task, independent of wavesweep, timed between steps to gauge the host.

    The machine's speed drifts by up to 1.6x over minutes while other machines
    share its cores, memory and cache, and steal does not show it.  The task,
    a numpy copy and add over two 32 MiB arrays, slows with the host as the
    steps do, so the end-to-end timings are scaled by NOMINAL_MS / (its median):
    they read as times on a host where the task takes NOMINAL_MS.
    """

    NOMINAL_MS = 10.0
    ARRAY_BYTES = 32 * 2**20

    def __init__(self, checks: Checks):
        self.checks = checks
        self.src = np.ones(self.ARRAY_BYTES // 8)
        self.dst = np.empty_like(self.src)
        self.times_ms: list[float] = []
        self._task()                    # fault the arrays in

    def _task(self):
        np.copyto(self.dst, self.src)
        np.add(self.dst, 1.0, out=self.dst)

    def run(self):
        """Time the task once, less steal; other threads of this process must be idle."""
        s0, c0, t0 = steal_ms(), time.process_time(), time.perf_counter()
        own0 = time.thread_time()
        self._task()
        own = time.thread_time() - own0
        wall, others = time.perf_counter() - t0, time.process_time() - c0 - own
        self.times_ms.append(wall * 1e3 - (steal_ms() - s0))
        self.checks.record(others <= 0.1 * wall,
                           f"host reference: other threads used {others * 1e3:.1f} ms of CPU "
                           "while the program was idle")

    def scale(self) -> float:
        """Factor that turns this run's times into times at the nominal host speed."""
        return self.NOMINAL_MS / statistics.median(self.times_ms)


@dataclass(frozen=True)
class Workload:
    kernel: str
    n: int                      # square grid side
    strategy: str
    tile: str | None            # WxH for the tiled strategy
    threaded_backend: str
    # components whose interior sum the scheme conserves on this input.
    # Variable-coefficient acoustics is not in conservation form: pressure
    # changes wherever a wave meets the material jump, while both velocities
    # telescope because the density is uniform in acoustics-var-interface.
    conserved: tuple[int, ...]


# why each workload was chosen, and what should move on it: RATIONALE.md
WORKLOADS = {
    "euler-cellwise": Workload(
        "euler", 512, "cellwise", None, "workstealing", (0, 1, 2, 3)),
    "advection-large": Workload(
        "advection", 2048, "cellwise", None, "static", (0,)),
    "acoustics-tiled": Workload(
        "acoustics-var", 512, "tiled", "32x32", "workstealing", (1, 2)),
}


def micro_kernels() -> dict:
    """Each workload's kernel, mapped to the workload whose grid its microbenchmark slices."""
    return {w.kernel: w for w in WORKLOADS.values()}


def grid_side(workload: Workload, smoke: bool) -> int:
    return SMOKE_N if smoke else workload.n


def configs(workload: Workload, smoke: bool = False) -> dict:
    """The serial and threaded RunConfigs of a workload, keyed by label."""
    n = str(grid_side(workload, smoke))
    base = ["run", "--kernel", workload.kernel, "--nx", n, "--ny", n,
            "--strategy", workload.strategy, "--steps", "1"]
    if workload.tile:
        base += ["--tile", workload.tile]
    serial, threaded = LABELS
    return {
        serial: cli.parse_args(base + ["--backend", "serial", "--threads", "1"]),
        threaded: cli.parse_args(base + ["--backend", workload.threaded_backend,
                                         "--threads", str(THREADS)]),
    }


def make_inputs(run_config, seed: int):
    """The kernel's default initial condition, each cell scaled by 1 + 1e-3 U(0,1)."""
    sim = run_config.sim
    state, aux, _ = driver.initial_condition(sim.ic, sim.spec)
    rng = np.random.default_rng(seed)
    state.interior[...] *= 1.0 + SEED_AMPLITUDE * rng.random((sim.spec.nx, sim.spec.ny))
    return state, aux


def sweep_units(workload: Workload, smoke: bool = False) -> int:
    """Units of the sweep's parallel region: rows for cellwise, tiles for tiled."""
    n = grid_side(workload, smoke)
    if workload.tile is None:
        return n + 1
    tw, th = (int(s) for s in workload.tile.split("x"))
    return -(-(n + 1) // tw) * -(-(n + 1) // th)


class Checks:
    """Correctness checks attempted and failed, with the failures described."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def bitwise_equal(a, b) -> bool:
    """True when two fields hold the same bits (NaN payloads and signed zeros too)."""
    return a.data.shape == b.data.shape and np.array_equal(
        a.data.view(np.uint64), b.data.view(np.uint64))


def component_sums(state):
    """Per-component interior sum and sum of magnitudes (the rounding scale)."""
    q = state.interior
    return q.sum(axis=(1, 2)), np.abs(q).sum(axis=(1, 2))


def drift(before, after, conserved) -> float:
    """Worst relative change of the conserved components' interior sums.

    Relative to max(1, sum |q_c|): equal to the oracle's max(1, |sum q_c|) for
    sign-definite components, and meaningful for signed ones (momenta,
    velocities) whose sum sits near zero.
    """
    (s0, _), (s1, scale) = before, after
    idx = list(conserved)
    return float(np.max(np.abs(s1[idx] - s0[idx]) / np.maximum(1.0, scale[idx])))


class Trajectory:
    """One configuration stepping its own copy of the seeded input.

    Every `driver.step` call is timed: `times_ms` holds its wall time minus
    the CPU time stolen by the hypervisor meanwhile, `stolen_ms` that steal.
    The gates run outside the timed region.  A tracer, when given, records
    spans of each timed step.
    """

    def __init__(self, label: str, run_config, state, aux, conserved, checks: Checks,
                 tracer=None):
        self.label = label
        self.rc = run_config
        self.state = state
        self.aux = aux
        self.conserved = conserved
        self.checks = checks
        self.tracer = tracer
        self.steps = 0
        self.times_ms: list[float] = []
        self.stolen_ms: list[float] = []
        self.alive = True
        self._sums = component_sums(state)

    def advance(self, timed: bool = True):
        where = f"{self.label} step {self.steps}"
        traced = self.tracer is not None and timed
        try:
            with self.tracer.stepping((self.label, self.steps)) if traced else nullcontext():
                s0 = steal_ms()
                t0 = time.perf_counter()
                driver.step(self.state, self.aux, self.rc.sim, self.rc.ctl)
                t1 = time.perf_counter()
                stolen = steal_ms() - s0
        except Exception as exc:  # a step that raises is a failed check; the run goes on
            self.checks.record(False, f"{where} raised {exc!r}")
            self.alive = False
            return
        self.steps += 1
        if timed:
            self.times_ms.append((t1 - t0) * 1e3 - stolen)
            self.stolen_ms.append(stolen)
        finite = bool(np.isfinite(self.state.interior).all())
        self.checks.record(finite, f"{where}: state not finite")
        sums = component_sums(self.state)
        worst = drift(self._sums, sums, self.conserved)
        self.checks.record(worst <= DRIFT_BOUND,
                           f"{where}: interior sum drifted {worst:.3e} > {DRIFT_BOUND:g}")
        self._sums = sums
