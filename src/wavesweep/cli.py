"""Command-line interface: run one simulation, benchmark the matrix, verify.

Exit codes: 0 success, 1 correctness/verification failure (including a run
that fails in a kernel or stops at the step limit), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .bench import (BACKEND_NAMES, BenchConfig, BenchGuardError, emit_csv,
                    make_backend, run_bench)
from .driver import (DEFAULT_IC, IC_KERNEL, SimulationConfig, StepLimitError,
                     TimestepController, run)
from .grid import GridSpec
from .kernels import DESCRIPTORS, KERNEL_NAMES
from .oracles import verify_suite
from .parallel import THREAD_COUNT_ENV, default_thread_count
from .sweep import CellWise, RowWise, SweepError, Tiled

STRATEGY_NAMES = ("rowwise", "cellwise", "tiled")

# the periodic ghost fill wraps num_ghost interior cells, so no side may be shorter
_MIN_SIDE = GridSpec.num_ghost


@dataclass
class RunConfig:
    sim: SimulationConfig
    ctl: TimestepController


@dataclass
class VerifyConfig:
    seed: int


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavesweep",
        description="2D finite-volume wave-propagation solver and benchmark. "
                    f"Default thread count honors the {THREAD_COUNT_ENV} "
                    "environment variable, else all detected cores.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single simulation")
    run_p.add_argument("--kernel", default="advection", choices=KERNEL_NAMES)
    run_p.add_argument("--ic", default=None, help="initial condition (default: kernel's own)")
    run_p.add_argument("--nx", type=int, default=256)
    run_p.add_argument("--ny", type=int, default=256)
    run_p.add_argument("--steps", type=int, default=None, help="number of steps (default 10)")
    run_p.add_argument("--t-final", type=float, default=None, help="end time instead of --steps")
    run_p.add_argument("--strategy", default="cellwise", choices=STRATEGY_NAMES)
    run_p.add_argument("--tile", default="64x64", help="tile size WxH for --strategy tiled")
    run_p.add_argument("--backend", default="serial", choices=BACKEND_NAMES)
    run_p.add_argument("--threads", type=int, default=None,
                       help="thread count for threaded backends")
    run_p.add_argument("--grain", type=int, default=None,
                       help="workstealing leaf size in units (default: auto)")
    run_p.add_argument("--cfl", type=float, default=0.9)

    bench_p = sub.add_parser("bench", help="time the kernel/grid/strategy/backend matrix")
    bench_p.add_argument("--kernel", default=",".join(KERNEL_NAMES),
                         help="comma list of kernels (default: all)")
    bench_p.add_argument("--sizes", default="256x256,512x512,1024x1024,2048x2048",
                         help="comma list of NxM grid sizes")
    bench_p.add_argument("--steps", type=int, default=5, help="steps per measurement")
    bench_p.add_argument("--warmup", type=int, default=2, help="untimed steps per cell")
    bench_p.add_argument("--reps", type=int, default=5, help="repetitions (median kept)")
    bench_p.add_argument("--threads", default=None,
                         help="comma list of thread counts (default: 1..cores)")
    bench_p.add_argument("--strategy", default=",".join(STRATEGY_NAMES),
                         help="comma list of rowwise,cellwise,tiled")
    bench_p.add_argument("--tile", default="64x64", help="tile size WxH for tiled")
    bench_p.add_argument("--backend", default=",".join(BACKEND_NAMES),
                         help="comma list of serial,static,workstealing")
    bench_p.add_argument("--grain", type=int, default=None)
    bench_p.add_argument("--cfl", type=float, default=0.9)
    bench_p.add_argument("--out", default=None, help="CSV output file (default stdout)")

    verify_p = sub.add_parser("verify", help="run the oracle verification suite")
    verify_p.add_argument("--seed", type=int, default=0,
                          help="seed for the randomized checks")

    return parser


def _parse_tile(parser, text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        parser.error(f"--tile expects WxH, got {text!r}")
    if w < 1 or h < 1:
        parser.error(f"tile sides must be >= 1, got {text!r}")
    return w, h


def _parse_sizes(parser, text: str) -> tuple[tuple[int, int], ...]:
    sizes = []
    for item in text.split(","):
        try:
            nx, ny = item.lower().split("x")
            sizes.append((int(nx), int(ny)))
        except ValueError:
            parser.error(f"--sizes expects comma-separated NxM entries, got {item!r}")
    for nx, ny in sizes:
        if nx < _MIN_SIDE or ny < _MIN_SIDE:
            parser.error(f"grid sides must be >= {_MIN_SIDE} (the ghost frame), "
                         f"got {nx}x{ny}")
    return tuple(sizes)


def _parse_threads(parser, text: str) -> tuple[int, ...]:
    try:
        threads = tuple(int(t) for t in text.split(","))
    except ValueError:
        parser.error(f"--threads expects comma-separated integers, got {text!r}")
    for t in threads:
        if t < 1:
            parser.error(f"thread counts must be >= 1, got {t}")
    return threads


def _default_threads(parser) -> int:
    try:
        return default_thread_count()
    except ValueError as exc:
        parser.error(str(exc))


def _strategy_obj(parser, name: str, tile: tuple[int, int]):
    if name == "rowwise":
        return RowWise()
    if name == "cellwise":
        return CellWise()
    if name == "tiled":
        return Tiled(*tile)
    parser.error(f"unknown strategy {name!r}; choose from {', '.join(STRATEGY_NAMES)}")


def parse_args(argv) -> BenchConfig | RunConfig | VerifyConfig:
    """Turn argv into a typed command config; exits with code 2 on bad usage."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        return VerifyConfig(seed=args.seed)

    if args.command == "run":
        if args.steps is not None and args.t_final is not None:
            parser.error("--steps and --t-final are mutually exclusive")
        steps = 10 if (args.steps is None and args.t_final is None) else args.steps
        if steps is not None and steps < 0:
            parser.error(f"--steps must be >= 0, got {steps}")
        kernel = args.kernel
        ic = args.ic or DEFAULT_IC[kernel]
        if ic not in IC_KERNEL:
            parser.error(f"unknown --ic {ic!r}; choose from {', '.join(IC_KERNEL)}")
        if IC_KERNEL[ic] != kernel:
            parser.error(f"--ic {ic} is for --kernel {IC_KERNEL[ic]}, not {kernel}")
        desc = DESCRIPTORS[kernel]
        if args.nx < _MIN_SIDE or args.ny < _MIN_SIDE:
            parser.error(f"--nx/--ny must be >= {_MIN_SIDE} (the ghost frame), "
                         f"got {args.nx}, {args.ny}")
        spec = GridSpec(nx=args.nx, ny=args.ny, dx=1.0 / args.nx, dy=1.0 / args.ny,
                        num_eqn=desc.num_eqn, num_aux=desc.num_aux)
        tile = _parse_tile(parser, args.tile)
        threads = args.threads if args.threads is not None else _default_threads(parser)
        if threads < 1:
            parser.error(f"--threads must be >= 1, got {threads}")
        if args.grain is not None and args.grain < 1:
            parser.error(f"--grain must be >= 1, got {args.grain}")
        if args.grain is not None and args.backend != "workstealing":
            parser.error(f"--grain applies only to --backend workstealing, not {args.backend}")
        backend = make_backend(args.backend, threads, args.grain)
        if not 0.0 < args.cfl < 1.0:
            parser.error(f"--cfl must lie in (0, 1), got {args.cfl}")
        try:
            sim = SimulationConfig(spec=spec, kernel=kernel, ic=ic,
                                   strategy=_strategy_obj(parser, args.strategy, tile),
                                   backend=backend, t_final=args.t_final, num_steps=steps)
        except ValueError as exc:
            parser.error(str(exc))
        return RunConfig(sim=sim, ctl=TimestepController(cfl_target=args.cfl))

    # bench
    kernels = tuple(k.strip() for k in args.kernel.split(","))
    for k in kernels:
        if k not in DESCRIPTORS:
            parser.error(f"unknown kernel {k!r}; choose from {', '.join(KERNEL_NAMES)}")
    sizes = _parse_sizes(parser, args.sizes)
    tile = _parse_tile(parser, args.tile)
    strategies = tuple(_strategy_obj(parser, s.strip(), tile)
                       for s in args.strategy.split(","))
    backends = tuple(b.strip() for b in args.backend.split(","))
    for b in backends:
        if b not in BACKEND_NAMES:
            parser.error(f"unknown backend {b!r}; choose from {', '.join(BACKEND_NAMES)}")
    if args.threads is None:
        threads = tuple(range(1, _default_threads(parser) + 1))
    else:
        threads = _parse_threads(parser, args.threads)
    if args.steps < 1:
        parser.error(f"--steps must be >= 1, got {args.steps}")
    if args.warmup < 0:
        parser.error(f"--warmup must be >= 0, got {args.warmup}")
    if args.reps < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")
    if args.grain is not None and args.grain < 1:
        parser.error(f"--grain must be >= 1, got {args.grain}")
    if not 0.0 < args.cfl < 1.0:
        parser.error(f"--cfl must lie in (0, 1), got {args.cfl}")
    return BenchConfig(kernels=kernels, sizes=sizes, strategies=strategies,
                       backends=backends, threads=threads, steps=args.steps,
                       warmup=args.warmup, repetitions=args.reps, grain=args.grain,
                       cfl=args.cfl, out=args.out)


def _do_run(cfg: RunConfig) -> int:
    try:
        state, reports = run(cfg.sim, cfg.ctl)
    except (SweepError, StepLimitError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    n = len(reports)
    t = sum(r.dt for r in reports)
    sweep_ms = sum(r.sweep_ms for r in reports)
    update_ms = sum(r.update_ms for r in reports)
    print(f"kernel={cfg.sim.kernel} ic={cfg.sim.ic} grid={cfg.sim.spec.nx}x{cfg.sim.spec.ny}")
    print(f"steps={n} t={t:.6g} sweep_ms={sweep_ms:.3f} update_ms={update_ms:.3f}"
          + (f" ms_per_step={(sweep_ms + update_ms) / n:.3f}" if n else ""))
    sums = ", ".join(f"{s:.9g}" for s in state.interior.sum(axis=(1, 2)))
    print(f"component interior sums: {sums}")
    return 0


def _do_bench(cfg: BenchConfig) -> int:
    try:
        records = run_bench(cfg, progress=lambda msg: print(msg, file=sys.stderr))
    except BenchGuardError as exc:
        print(f"bench aborted: {exc}", file=sys.stderr)
        return 1
    emit_csv(records, cfg.out)
    return 0


def _do_verify(cfg: VerifyConfig) -> int:
    report = verify_suite(cfg.seed)
    for r in report.results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    if not report.passed:
        failed = [r.name for r in report.results if not r.ok]
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    cfg = parse_args(argv if argv is not None else sys.argv[1:])
    if isinstance(cfg, RunConfig):
        return _do_run(cfg)
    if isinstance(cfg, BenchConfig):
        return _do_bench(cfg)
    return _do_verify(cfg)


if __name__ == "__main__":
    sys.exit(main())
