"""The wavesweep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports wavesweep from ``src/``.
Each workload steps one seeded input serially and on two threads, alternating
steps, for S seconds, timing every ``driver.step`` call (wall time minus the
CPU time the hypervisor stole meanwhile) and checking the correctness gates
outside the timed region.  A host reference timed between the steps scales the
end-to-end times to a nominal host speed.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it steps a traced twin of each
configuration next to the untraced one and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See RATIONALE.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 5
# the tail percentile reported: at 30 s a configuration gets 45 to 90 timed
# steps, so at least ten lie beyond it
TAIL = 75

END_TO_END_UNITS = {
    "setup_s": "s",
    "serial.step_ms.p50": "ms",
    f"serial.step_ms.p{TAIL}": "ms",
    "threads2.step_ms.p50": "ms",
    f"threads2.step_ms.p{TAIL}": "ms",
    "serial.mcells_per_s": "Mcells/s",
    "threads2.mcells_per_s": "Mcells/s",
    "peak_rss_mb": "MiB",
    "checks_passed_frac": "ratio",
}

# per-step layer figures, reported once per configuration label
LAYER_UNITS = {
    "kernels.solve_ms": "ms",
    "kernels.solve_ns_per_iface": "ns",
    "kernels.calls": "count",
    "kernels.ifaces_per_call": "count",
    "kernels.result_bytes_per_iface": "B",
    "sweep.sweep_ms": "ms",
    "sweep.self_ms": "ms",
    "sweep.leaf_self_ms": "ms",
    "sweep.fresh_fluct_mb": "MiB",
    "sweep.apply_update_ms": "ms",
    "sweep.apply_update_gbps": "GB/s-computed",
    "sweep.apply_update_frac_of_triad": "ratio",
    "parallel.regions": "count",
    "parallel.leaves": "count",
    "parallel.self_ms": "ms",
    "parallel.busy_frac": "ratio",
    "parallel.imbalance": "ratio",
    "grid.fill_ghost_ms": "ms",
    "driver.step_self_ms": "ms",
    "memory.minor_faults": "count",
    "trace.overhead_frac": "ratio",
}
MICRO_BACKENDS = ("serial", "static", "workstealing")


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run prints, with its unit."""
    import workloads as wl
    from micro import BATCHES

    units = {f"{label}.{name}": unit for label in wl.LABELS
             for name, unit in LAYER_UNITS.items()}
    units.update({f"kernels.{k}.ns_per_iface.b{n}": "ns"
                  for k in wl.micro_kernels() for n in BATCHES})
    units.update({f"parallel.{b}.empty_us": "us" for b in MICRO_BACKENDS})
    units["memory.triad_gbps"] = "GB/s-computed"
    units["host.ref_ms"] = "ms"
    return units


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny grids and a small triad, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once and exit (timed by the parent for setup_s)")
    return p.parse_args(argv)


def load_program() -> bool:
    """Import wavesweep from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import wavesweep
    except ImportError as exc:
        print(f"cannot import wavesweep from {SRC}: {exc}", file=sys.stderr)
        return False
    if Path(wavesweep.__file__).resolve().parent.parent != SRC.resolve():
        print(f"wavesweep came from {wavesweep.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def start(name: str, seed: int, smoke: bool, checks, traced: bool = False):
    """Set up a workload: seeded inputs and the first, untimed step of each config.

    Returns the trajectories (serial, threaded, then their traced twins) and
    the tracer, if any.
    """
    import workloads as wl
    from tracing import Tracer

    workload = wl.WORKLOADS[name]
    cfgs = wl.configs(workload, smoke)
    state, aux = wl.make_inputs(cfgs["serial"], seed)
    tracer = Tracer() if traced else None
    trajs = [wl.Trajectory(label, rc, state.copy(), aux.copy(), workload.conserved, checks)
             for label, rc in cfgs.items()]
    if tracer is not None:
        trajs += [wl.Trajectory(label, rc, state.copy(), aux.copy(), workload.conserved,
                                checks, tracer) for label, rc in cfgs.items()]
    for t in trajs:
        t.advance(timed=False)
    return trajs, tracer


def measure(trajs, seconds: float, checks):
    """Alternate timed steps of every trajectory until `seconds` have passed.

    After each round of steps the host reference is timed once; it is returned.
    """
    import workloads as wl

    ref = wl.HostReference(checks)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and all(t.alive for t in trajs):
        for t in trajs:
            t.advance()
            if not t.alive:
                break
        ref.run()
    return ref


def final_checks(trajs, checks):
    """Threaded equals serial, and each traced twin equals its untraced run, bitwise."""
    import workloads as wl

    if not all(t.alive for t in trajs):
        return
    serial, threaded = trajs[:2]
    checks.record(wl.bitwise_equal(serial.state, threaded.state),
                  f"{threaded.label} final state differs bitwise from serial")
    for plain, traced in zip(trajs[:2], trajs[2:]):
        checks.record(wl.bitwise_equal(plain.state, traced.state),
                      f"{plain.label} traced final state differs bitwise from untraced")


def time_setup(args) -> list[float]:
    """Seconds of fresh processes that start up, set up and exit, less stolen time."""
    import workloads as wl

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(1 if args.smoke else SETUP_RUNS):
        s0, t0 = wl.steal_ms(), time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=150)
        times.append(time.perf_counter() - t0 - (wl.steal_ms() - s0) / 1e3)
    return times


def end_to_end(trajs, checks, setup_times, ref) -> dict:
    """The end-to-end figures, every time in it at the nominal host speed."""
    scale = ref.scale()
    m = {"setup_s": statistics.median(setup_times) * scale}
    print(f"host reference: median {statistics.median(ref.times_ms):.3f} ms over "
          f"{len(ref.times_ms)} runs; times are scaled by {scale:.4f}")
    for t in trajs[:2]:
        ms = np.array(t.times_ms) * scale
        spec = t.rc.sim.spec
        m[f"{t.label}.step_ms.p50"] = float(np.median(ms))
        m[f"{t.label}.step_ms.p{TAIL}"] = float(np.percentile(ms, TAIL))
        m[f"{t.label}.mcells_per_s"] = spec.nx * spec.ny * ms.size / ms.sum() / 1e3
        wall = np.array(t.times_ms) + t.stolen_ms
        print(f"{t.label}: {ms.size} timed steps, p50 {np.median(ms):.2f} ms, "
              f"p{TAIL} {np.percentile(ms, TAIL):.2f} ms; unscaled wall p50 "
              f"{np.median(wall):.2f} ms, {np.mean(t.stolen_ms):.2f} ms stolen per step")
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m["checks_passed_frac"] = 1.0 - checks.failed / checks.attempted
    return m


def traced_figures(args, trajs, tracer, ref) -> dict:
    """Per-layer figures of both configurations, from the traced twins' spans."""
    from tracing import layer_figures, self_time_summary

    m = {"host.ref_ms": statistics.median(ref.times_ms)}
    for plain, traced in zip(trajs[:2], trajs[2:]):
        label = plain.label
        n_threads = 1 if label == "serial" else plain.rc.sim.backend.n
        update_bytes = 6 * plain.state.interior.nbytes   # computed: read q and 4 flucts, write q
        for k, v in layer_figures(tracer, label, n_threads, update_bytes).items():
            m[f"{label}.{k}"] = v
        base = float(np.median(plain.times_ms))
        m[f"{label}.trace.overhead_frac"] = (float(np.median(traced.times_ms)) - base) / base
        summary = self_time_summary(tracer, label)
        total = sum(summary.values())
        print(f"self time per layer, {label}, {len(traced.times_ms)} traced steps "
              f"({'thread-' if n_threads > 1 else ''}ms, share):")
        for layer, ms in sorted(summary.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:9s} {ms:10.1f}  {ms / total:6.1%}")
    out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome(out)
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(HERE.parent)}")
    return m


def micro_figures(args) -> dict:
    """Kernel batch sizes, empty parallel regions and the memory triad."""
    import micro
    import workloads as wl
    from wavesweep.driver import resolve_kernel

    m = {}
    reps, secs = (1, 0.0) if args.smoke else (5, 0.05)
    for kernel, workload in wl.micro_kernels().items():
        rc = wl.configs(workload)["serial"]                 # full-size grid, real strides
        state, aux = wl.make_inputs(rc, args.seed)
        solver = resolve_kernel(rc.sim)
        for n in micro.BATCHES:
            m[f"kernels.{kernel}.ns_per_iface.b{n}"] = micro.kernel_ns_per_iface(
                solver, state, aux, n, reps, secs)
    units = wl.sweep_units(wl.WORKLOADS[args.workload], args.smoke)
    for b in MICRO_BACKENDS:
        m[f"parallel.{b}.empty_us"] = micro.empty_region_us(
            b, wl.THREADS, units, 10 if args.smoke else 200)

    array_bytes = 8 * 2**20 if args.smoke else micro.TRIAD_ARRAY_BYTES
    triad = micro.triad_gbps(array_bytes, 1 if args.smoke else 5)
    print(f"triad: 3 arrays of {array_bytes / 2**20:.0f} MiB each "
          f"({array_bytes / micro.L3_BYTES:.1f}x the {micro.L3_BYTES / 2**20:.0f} MiB L3), "
          f"{triad:.2f} GB/s computed from array sizes")
    m["memory.triad_gbps"] = triad
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    if not load_program():
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    checks = wl.Checks()
    if args.setup_probe:
        start(args.workload, args.seed, args.smoke, checks)
        return 0

    setup_times = [] if args.trace else time_setup(args)
    trajs, tracer = start(args.workload, args.seed, args.smoke, checks, traced=bool(args.trace))
    ref = measure(trajs, args.seconds, checks)
    final_checks(trajs, checks)
    if not all(t.times_ms for t in trajs):
        print("no timed step completed: " + "; ".join(checks.failures), file=sys.stderr)
        return 1
    for failure in checks.failures[:20]:
        print(f"FAILED {failure}")

    if args.trace:
        metrics = traced_figures(args, trajs, tracer, ref)
        del trajs                       # free the states before the triad's arrays
        metrics.update(micro_figures(args))
        for label in wl.LABELS:
            metrics[f"{label}.sweep.apply_update_frac_of_triad"] = (
                metrics[f"{label}.sweep.apply_update_gbps"] / metrics["memory.triad_gbps"])
        units = per_layer_units()
    else:
        print(f"setup: {', '.join(f'{s:.3f}' for s in setup_times)} s")
        metrics, units = end_to_end(trajs, checks, setup_times, ref), END_TO_END_UNITS
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metric names out of step: {sorted(metrics.keys() ^ units.keys())}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
