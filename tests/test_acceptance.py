"""Acceptance suite: each test enforces one release criterion at its stated
tolerance and prints one PASS line.  Absolute timings from other hardware are
not reproduced; timing-related criteria are relative (scaling, ordering).

The thread-scaling criterion is environment-sensitive by design: it needs at
least 4 physical cores and a quiet machine.  On smaller or shared hosts the
measurement still runs and reports, but only warns; set WAVESWEEP_DEDICATED=1
on a dedicated >= 4-core box to make it a hard failure.
"""

import io
import os
import statistics
import time
import warnings

import numpy as np
import pytest

import wavesweep.bench as bench
import wavesweep.cli as cli
from wavesweep.bench import BenchConfig, BenchGuardError, CSV_HEADER, emit_csv, parse_csv
from wavesweep.oracles import (advection_convergence, conservation_property_errors,
                               conservation_run_errors, equivalence_mismatches,
                               fluctuation_identity_errors, linear_exactness_errors,
                               sod_density_l1)
from wavesweep.parallel import Serial, WorkStealing, detect_cores
from wavesweep.sweep import CellWise

SEED = 20240817


def _report(n, detail):
    print(f"criterion {n} PASS: {detail}")


def test_criterion_1_fluctuation_identity():
    t0 = time.perf_counter()
    worst = fluctuation_identity_errors(SEED, samples=10_000)
    elapsed = time.perf_counter() - t0
    for kernel, err in worst.items():
        assert err <= 1e-12, f"{kernel}: {err:.2e}"
    assert elapsed < 5.0
    _report(1, f"amdq+apdq = sum(s W) worst rel err "
               f"{max(worst.values()):.2e} <= 1e-12 in {elapsed:.2f}s")


def test_criterion_2_roe_conservation_property():
    t0 = time.perf_counter()
    worst = conservation_property_errors(SEED, samples=10_000)
    elapsed = time.perf_counter() - t0
    for kernel, err in worst.items():
        assert err <= 1e-11, f"{kernel}: {err:.2e}"
    assert elapsed < 5.0
    _report(2, f"amdq+apdq = f(qr)-f(ql) worst rel err "
               f"{max(worst.values()):.2e} <= 1e-11 in {elapsed:.2f}s")


def test_criterion_3_linear_kernel_exactness():
    worst = linear_exactness_errors(SEED, samples=10_000)
    for kernel, err in worst.items():
        assert err <= 1e-12, f"{kernel}: {err:.2e}"
    _report(3, f"acoustics vs analytic matrix worst rel err {max(worst.values()):.2e} <= 1e-12")


def test_criterion_4_strategy_backend_bitwise_equivalence():
    t0 = time.perf_counter()
    mismatches = equivalence_mismatches()
    elapsed = time.perf_counter() - t0
    assert mismatches == []
    assert elapsed < 30.0
    _report(4, "all kernels, 128x96, 10 steps: 12 strategy/backend combos "
               f"bitwise identical in {elapsed:.1f}s")


def test_criterion_5_conservation_over_100_steps():
    worst = conservation_run_errors()
    for kernel, drift in worst.items():
        assert drift <= 1e-12, f"{kernel}: {drift:.2e}"
    _report(5, f"periodic interior sums: worst per-step drift {max(worst.values()):.2e} <= 1e-12")


def test_criterion_6_convergence_and_shock_accuracy():
    t0 = time.perf_counter()
    order, errors = advection_convergence()
    assert 0.7 <= order <= 1.1, f"order {order:.3f} outside [0.7, 1.1]"
    e400 = sod_density_l1(400)
    e800 = sod_density_l1(800)
    elapsed = time.perf_counter() - t0
    assert e400 <= 0.02, f"L1(400) = {e400:.4f} > 0.02"
    assert e800 < e400, f"L1(800) = {e800:.4f} did not decrease from {e400:.4f}"
    assert elapsed < 60.0
    _report(6, f"advection order {order:.3f} in [0.7, 1.1]; shock-tube density "
               f"L1 {e400:.4f} -> {e800:.4f} in {elapsed:.1f}s")


def _speedup_at_4_threads(kernel: str, size: int) -> float:
    serial_ms, _ = bench._measure_cell(kernel, size, size, CellWise(), Serial(),
                                       steps=2, warmup=1, reps=1, cfl=0.9)
    threaded_ms, _ = bench._measure_cell(kernel, size, size, CellWise(),
                                         WorkStealing(4), steps=2, warmup=1,
                                         reps=1, cfl=0.9)
    return statistics.median(serial_ms) / statistics.median(threaded_ms)


def test_criterion_7_thread_scaling_paper_anchored():
    cores = detect_cores()
    dedicated = os.environ.get("WAVESWEEP_DEDICATED", "") not in ("", "0")
    size = 2048

    euler = _speedup_at_4_threads("euler", size)
    advection = _speedup_at_4_threads("advection", size)
    detail = (f"{size}x{size} cellwise workstealing @4 threads on {cores} cores: "
              f"euler speedup {euler:.2f} (need >= 2.0), "
              f"advection {advection:.2f} (need >= 1.6)")

    if cores >= 4 and dedicated:
        assert euler >= 2.0, detail
        assert advection >= 1.6, detail
        _report(7, detail)
    elif euler >= 2.0 and advection >= 1.6:
        _report(7, detail + " [met even without a dedicated host]")
    else:
        warnings.warn("criterion 7 is environment-sensitive and this host is "
                      f"not a dedicated >=4-core machine; measured: {detail}")
        print(f"criterion 7 WARN (environment-sensitive, not enforced here): {detail}")


def test_criterion_8_kernel_cost_ordering():
    times = {}
    for kernel in ("advection", "acoustics-const", "acoustics-var", "euler"):
        reps, _ = bench._measure_cell(kernel, 1024, 1024, CellWise(), Serial(),
                                      steps=2, warmup=1, reps=3, cfl=0.9)
        times[kernel] = statistics.median(reps)
    adv, ac, av, eu = (times["advection"], times["acoustics-const"],
                       times["acoustics-var"], times["euler"])
    noise = 1.10  # the <= comparisons tolerate scheduler jitter
    assert adv < ac, times
    assert ac <= av * noise, times
    assert av <= eu * noise, times
    _report(8, "serial ms/step at 1024x1024: " +
            " <= ".join(f"{k}={times[k]:.1f}" for k in
                        ("advection", "acoustics-const", "acoustics-var", "euler")))


def test_criterion_9_csv_contract_and_guard(monkeypatch, capsys, tmp_path):
    # header is byte-exact
    buf = io.StringIO()
    emit_csv([], buf)
    assert buf.getvalue() == CSV_HEADER + "\n"
    assert CSV_HEADER == ("kernel,nx,ny,strategy,backend,threads,steps,"
                          "ms_per_step,mcells_per_s,speedup,efficiency")

    # round-trip recovers non-timing fields exactly
    config = BenchConfig(kernels=("advection",), sizes=((16, 16),),
                         strategies=("cellwise",), backends=("serial", "static"),
                         threads=(2,), steps=2, warmup=0, repetitions=1)
    records = bench.run_bench(config)
    out = tmp_path / "bench.csv"
    emit_csv(records, str(out))
    back = parse_csv(str(out))
    for a, b in zip(records, back):
        assert (a.kernel, a.nx, a.ny, a.strategy, a.backend, a.threads, a.steps) == \
               (b.kernel, b.nx, b.ny, b.strategy, b.backend, b.threads, b.steps)

    # an injected threaded-state fault must abort the bench with exit code 1
    real = bench._measure_cell

    def corrupted(kernel, nx, ny, strategy, backend, *args, **kwargs):
        times, state = real(kernel, nx, ny, strategy, backend, *args, **kwargs)
        if not isinstance(backend, Serial):
            state = state.copy()
            state.flat[0] = np.nextafter(state.flat[0], np.inf)
        return times, state

    monkeypatch.setattr(bench, "_measure_cell", corrupted)
    with pytest.raises(BenchGuardError):
        bench.run_bench(config)
    code = cli.main(["bench", "--kernel", "advection", "--sizes", "16x16",
                     "--steps", "1", "--warmup", "0", "--reps", "1",
                     "--threads", "2", "--backend", "static",
                     "--strategy", "cellwise"])
    assert code == 1
    capsys.readouterr()
    _report(9, "CSV header byte-exact, round-trip exact, injected fault aborts with exit 1")
