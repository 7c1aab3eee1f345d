"""Tiny-grid tests of the benchmark: its output contract, its seeding, what it
writes, and that each correctness gate trips on an injected fault."""

import itertools
import json
import shutil
import statistics
import subprocess
import sys
import threading

import numpy as np
import pytest

import run
import workloads as wl
from conftest import BENCH, ROOT
from wavesweep import Serial, driver

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_outputs = {}


def bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _outputs:
        proc = bench(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        _outputs[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _outputs[key]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_metric_names_and_units_match_benchmark_json(workload, trace):
    out = result(workload, 1, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in out["metrics"].items()}


def test_seed_changes_inputs_but_not_metric_names():
    rc = wl.configs(wl.WORKLOADS["euler-cellwise"], smoke=True)["serial"]
    a, _ = wl.make_inputs(rc, 1)
    b, _ = wl.make_inputs(rc, 2)
    again, _ = wl.make_inputs(rc, 1)
    assert wl.bitwise_equal(a, again)
    assert not np.array_equal(a.interior, b.interior)
    for trace in (0, 1):
        assert (result("euler-cellwise", 1, trace)["metrics"].keys()
                == result("euler-cellwise", 2, trace)["metrics"].keys())


def _snapshot():
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    files = {}
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT)
        if rel.parts[0] == BENCH.name or skip & set(rel.parts) or not path.is_file():
            continue
        st = path.stat()
        files[str(rel)] = (st.st_size, st.st_mtime_ns)
    return files


def test_leaves_other_repo_files_untouched():
    before = _snapshot()
    proc = bench("acoustics-tiled", 3, 1)
    assert proc.returncode == 0, proc.stderr
    assert _snapshot() == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("euler-cellwise", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- fault injection: each gate trips ----------------------------------------------

def _run(monkeypatch, corrupt=None, workload="advection-large", traced=False):
    if corrupt is not None:
        real_step = driver.step

        def faulty(state, aux, config, ctl, *args, **kwargs):
            out = real_step(state, aux, config, ctl, *args, **kwargs)
            corrupt(state, config)
            return out

        monkeypatch.setattr(driver, "step", faulty)
    checks = wl.Checks()
    trajs, _ = run.start(workload, 1, True, checks, traced=traced)
    run.measure(trajs, 0.2, checks)
    return trajs, checks


def _flip_low_bit(state):
    bits = state.data.view(np.uint64)
    g = state.spec.num_ghost
    bits[0, g + 3, g + 5] ^= 1


def test_clean_run_passes_every_gate(monkeypatch):
    trajs, checks = _run(monkeypatch, traced=True)
    run.final_checks(trajs, checks)
    assert checks.failures == [] and checks.attempted > 4 * 2


def test_finite_gate_trips(monkeypatch):
    def nan(state, config):
        state.interior[0, 1, 1] = np.nan

    _, checks = _run(monkeypatch, nan)
    assert any("not finite" in f for f in checks.failures)


def test_conservation_gate_trips(monkeypatch):
    def leak(state, config):
        state.interior[0, 1, 1] += 1e-6 * np.abs(state.interior[0]).sum()

    _, checks = _run(monkeypatch, leak)
    assert checks.failures and all("drifted" in f for f in checks.failures)


def test_conservation_gate_ignores_acoustic_pressure_but_not_velocity(monkeypatch):
    def pressure(state, config):
        state.interior[0, 1, 1] *= 1.5

    _, checks = _run(monkeypatch, pressure, workload="acoustics-tiled")
    assert checks.failures == []

    def velocity(state, config):
        state.interior[2, 1, 1] += 1e-6 * np.abs(state.interior[2]).sum() + 1e-6

    _, checks = _run(monkeypatch, velocity, workload="acoustics-tiled")
    assert checks.failures and all("drifted" in f for f in checks.failures)


def test_bitwise_gate_trips_on_one_ulp_in_the_threaded_run(monkeypatch):
    def ulp(state, config):
        if not isinstance(config.backend, Serial):
            _flip_low_bit(state)

    trajs, checks = _run(monkeypatch, ulp)
    assert checks.failures == []            # one ulp passes the per-step gates
    run.final_checks(trajs, checks)
    assert checks.failures == ["threads2 final state differs bitwise from serial"]


def test_traced_twin_gate_trips(monkeypatch):
    trajs, checks = _run(monkeypatch, traced=True)
    _flip_low_bit(trajs[2].state)
    run.final_checks(trajs, checks)
    assert checks.failures == ["serial traced final state differs bitwise from untraced"]


def test_a_step_that_raises_counts_as_failed(monkeypatch):
    real_step = driver.step
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise FloatingPointError("injected")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(driver, "step", flaky)
    checks = wl.Checks()
    trajs, _ = run.start("euler-cellwise", 1, True, checks)
    run.measure(trajs, 5.0, checks)
    run.final_checks(trajs, checks)
    assert checks.failed == 1 and "raised FloatingPointError" in checks.failures[0]
    assert not all(t.alive for t in trajs)


# -- stolen time ---------------------------------------------------------------------

def test_steal_counter_reads_and_never_falls():
    first = wl.steal_ms()
    assert 0.0 <= first <= wl.steal_ms()


def test_stolen_time_is_taken_out_of_step_times(monkeypatch):
    readings = itertools.count(0.0, 1e4)        # 10 s stolen during every step
    monkeypatch.setattr(wl, "steal_ms", lambda: next(readings))
    checks = wl.Checks()
    trajs, _ = run.start("advection-large", 1, True, checks)
    run.measure(trajs, 0.2, checks)
    for t in trajs:
        assert t.stolen_ms and set(t.stolen_ms) == {1e4}
        assert all(-1e4 < ms < -1e4 + 1e3 for ms in t.times_ms)   # wall time under 1 s


# -- host reference ------------------------------------------------------------------

def test_host_reference_scales_to_its_nominal_time():
    checks = wl.Checks()
    ref = wl.HostReference(checks)
    for _ in range(3):
        ref.run()
    assert checks.attempted == 3 and checks.failures == []
    assert ref.scale() == pytest.approx(ref.NOMINAL_MS / statistics.median(ref.times_ms))


def test_host_reference_gate_trips_when_other_threads_are_busy():
    checks = wl.Checks()
    ref = wl.HostReference(checks)
    stop = threading.Event()

    def busy():                                  # numpy releases the lock while it computes
        x = np.ones(1 << 20)
        while not stop.is_set():
            np.sqrt(x, out=x)

    worker = threading.Thread(target=busy)
    worker.start()
    try:
        for _ in range(5):
            ref.run()
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert checks.failures and all("other threads used" in f for f in checks.failures)
