"""Command-line interface: run one simulation, benchmark the matrix, verify.

Exit codes: 0 success, 1 correctness/verification failure (including a run
that fails in a kernel or stops at the step limit), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .bench import (BACKEND_NAMES, STRATEGY_NAMES, BenchConfig, BenchGuardError,
                    emit_csv, make_backend, make_strategy, open_csv, run_bench)
from .driver import (DEFAULT_IC, SimulationConfig, StepLimitError, StepReport,
                     TimestepController, integrate, unit_square_spec)
from .kernels import KERNEL_NAMES
from .oracles import verify_suite
from .parallel import THREAD_COUNT_ENV, default_thread_count
from .sweep import SweepError


@dataclass
class RunConfig:
    sim: SimulationConfig
    ctl: TimestepController


@dataclass
class VerifyConfig:
    seed: int


@dataclass
class _RunTotals:
    """Running sums over a run's step reports, which are not kept."""

    steps: int = 0
    t: float = 0.0
    sweep_ms: float = 0.0
    update_ms: float = 0.0

    def add(self, rep: StepReport):
        self.steps += 1
        self.t += rep.dt
        self.sweep_ms += rep.sweep_ms
        self.update_ms += rep.update_ms


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
                       help="workstealing leaf size in units, honored exactly (default: "
                            "ceil(units / 8 threads), rounded to whole tile bands when at "
                            "least half a band)")
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
    bench_p.add_argument("--grain", type=int, default=None,
                         help="workstealing leaf size in units, as for run --grain; "
                              "needs workstealing among --backend")
    bench_p.add_argument("--cfl", type=float, default=0.9)
    bench_p.add_argument("--out", default=None, help="CSV output file (default stdout)")

    verify_p = sub.add_parser("verify", help="run the oracle verification suite")
    verify_p.add_argument("--seed", type=int, default=0,
                          help="seed for the randomized checks")

    return parser


def _parse_wxh(parser, flag: str, text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        parser.error(f"{flag} expects WxH, got {text!r}")


def _default_threads(parser) -> int:
    try:
        return default_thread_count()
    except ValueError as exc:
        parser.error(str(exc))


def parse_args(argv) -> BenchConfig | RunConfig | VerifyConfig:
    """Turn argv into a typed command config; exits with code 2 on bad usage.

    Values are checked by the config types they build (BenchConfig,
    SimulationConfig, TimestepController, the backends and strategies); only
    the rules that need the command line itself are checked here.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        if args.seed < 0:  # numpy's generators take only non-negative seeds
            parser.error(f"--seed must be >= 0, got {args.seed}")
        return VerifyConfig(seed=args.seed)

    tile = _parse_wxh(parser, "--tile", args.tile)
    if args.command == "run":
        steps = 10 if (args.steps is None and args.t_final is None) else args.steps
        threads = args.threads if args.threads is not None else _default_threads(parser)
        if threads < 1:  # Serial ignores the count, so no config type checks it
            parser.error(f"--threads must be >= 1, got {threads}")
        if args.grain is not None and args.backend != "workstealing":
            parser.error(f"--grain applies only to --backend workstealing, not {args.backend}")
        try:
            return RunConfig(
                sim=SimulationConfig(spec=unit_square_spec(args.kernel, args.nx, args.ny),
                                     kernel=args.kernel,
                                     ic=args.ic or DEFAULT_IC[args.kernel],
                                     strategy=make_strategy(args.strategy, tile),
                                     backend=make_backend(args.backend, threads, args.grain),
                                     t_final=args.t_final, num_steps=steps),
                ctl=TimestepController(cfl_target=args.cfl))
        except ValueError as exc:
            parser.error(str(exc))

    # bench
    sizes = tuple(_parse_wxh(parser, "--sizes", item) for item in args.sizes.split(","))
    if args.threads is None:
        threads = tuple(range(1, _default_threads(parser) + 1))
    else:
        try:
            threads = tuple(int(t) for t in args.threads.split(","))
        except ValueError:
            parser.error(f"--threads expects comma-separated integers, got {args.threads!r}")
    try:
        return BenchConfig(kernels=tuple(k.strip() for k in args.kernel.split(",")),
                           sizes=sizes,
                           strategies=tuple(s.strip() for s in args.strategy.split(",")),
                           backends=tuple(b.strip() for b in args.backend.split(",")),
                           threads=threads, tile=tile, steps=args.steps, warmup=args.warmup,
                           repetitions=args.reps, grain=args.grain, cfl=args.cfl,
                           out=args.out)
    except ValueError as exc:
        parser.error(str(exc))


def _do_run(cfg: RunConfig) -> int:
    tot = _RunTotals()
    try:
        state = integrate(cfg.sim, tot.add, cfg.ctl)
    except (SweepError, StepLimitError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    n = tot.steps
    print(f"kernel={cfg.sim.kernel} ic={cfg.sim.ic} grid={cfg.sim.spec.nx}x{cfg.sim.spec.ny}")
    print(f"steps={n} t={tot.t:.6g} sweep_ms={tot.sweep_ms:.3f} update_ms={tot.update_ms:.3f}"
          + (f" ms_per_step={(tot.sweep_ms + tot.update_ms) / n:.3f}" if n else ""))
    sums = ", ".join(f"{s:.9g}" for s in state.interior.sum(axis=(1, 2)))
    print(f"component interior sums: {sums}")
    return 0


def _do_bench(cfg: BenchConfig) -> int:
    try:  # before the matrix runs, so a bad --out fails at once, not after it
        out = open_csv(cfg.out, "w")
    except OSError as exc:
        print(f"cannot write --out: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        try:
            records = run_bench(cfg, progress=lambda msg: print(msg, file=sys.stderr))
        except BenchGuardError as exc:
            print(f"bench aborted: {exc}", file=sys.stderr)
            return 1
        emit_csv(records, fh)
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
