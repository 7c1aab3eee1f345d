import io
import random
import statistics

import pytest

import wavesweep.bench as bench
from wavesweep.bench import (STRATEGY_NAMES, BenchConfig, BenchGuardError,
                             BenchRecord, CSV_HEADER, emit_csv, make_backend,
                             make_strategy, parse_csv, run_bench)
from wavesweep.parallel import Serial, StaticThreads, WorkStealing
from wavesweep.sweep import CellWise, Tiled

TINY = dict(kernels=("advection",), sizes=((16, 16),), strategies=("cellwise",),
            steps=2, warmup=1, repetitions=2)


class TestConfigValidation:
    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError, match="kernels"):
            BenchConfig(kernels=(), sizes=((16, 16),), strategies=("cellwise",),
                        backends=("serial",), threads=(1,))
        with pytest.raises(ValueError, match="threads"):
            BenchConfig(kernels=("euler",), sizes=((16, 16),), strategies=("cellwise",),
                        backends=("serial",), threads=())

    def test_bad_values_rejected(self):
        base = dict(kernels=("euler",), sizes=((16, 16),), strategies=("cellwise",),
                    backends=("serial",), threads=(1,))
        with pytest.raises(ValueError):
            BenchConfig(**{**base, "kernels": ("warp",)})
        with pytest.raises(ValueError):
            BenchConfig(**{**base, "backends": ("cuda",)})
        with pytest.raises(ValueError):
            BenchConfig(**{**base, "threads": (0,)})
        with pytest.raises(ValueError):
            BenchConfig(**{**base, "steps": 0})
        with pytest.raises(ValueError):
            BenchConfig(**{**base, "repetitions": 0})
        with pytest.raises(ValueError):
            BenchConfig(**{**base, "sizes": ((0, 4),)})
        with pytest.raises(ValueError):
            BenchConfig(**{**base, "cfl": 1.5})
        with pytest.raises(ValueError):
            BenchConfig(**{**base, "backends": ("workstealing",), "grain": 0})

    def test_one_cell_periodic_axis_is_accepted(self):
        # one ghost layer: a periodic axis of one cell wraps onto itself
        sizes = ((1, 8), (8, 1), (1, 1))
        config = BenchConfig(kernels=("advection", "euler"), sizes=sizes,
                             strategies=("cellwise",), backends=("serial", "static"),
                             threads=(2,), steps=1, warmup=0, repetitions=1)
        records = run_bench(config)
        assert len(records) == 2 * 3 * 2  # kernels x sizes x (serial, static 2)
        assert {(r.nx, r.ny) for r in records} == set(sizes)


class TestRunBench:
    def test_serial_only_all_speedups_one(self):
        config = BenchConfig(backends=("serial",), threads=(1,), **TINY)
        records = run_bench(config)
        assert len(records) == 1
        assert records[0].speedup == 1.0
        assert records[0].efficiency == 1.0
        assert records[0].backend == "serial"
        assert records[0].threads == 1

    def test_matrix_enumeration_order_and_fields(self):
        config = BenchConfig(backends=("serial", "static"), threads=(1, 2),
                             kernels=("advection",), sizes=((16, 16), (16, 8)),
                             strategies=("rowwise", "cellwise"),
                             steps=2, warmup=0, repetitions=1)
        records = run_bench(config)
        # per (kernel, size, strategy): serial row + 2 static rows
        assert len(records) == 1 * 2 * 2 * (1 + 2)
        labels = [(r.nx, r.ny, r.strategy, r.backend, r.threads) for r in records]
        assert labels[:3] == [(16, 16, "rowwise", "serial", 1),
                              (16, 16, "rowwise", "static", 1),
                              (16, 16, "rowwise", "static", 2)]
        # both names run the CellWise preset, and each labels its own rows
        assert [r.strategy for r in records] == (["rowwise"] * 3 + ["cellwise"] * 3) * 2
        for r in records:
            assert r.ms_per_step > 0
            assert r.mcells_per_s > 0
            assert r.efficiency == pytest.approx(r.speedup / r.threads)

    def test_static_one_bitwise_equals_serial(self):
        config = BenchConfig(backends=("serial", "static", "workstealing"),
                             threads=(1,), **TINY)
        records = run_bench(config)  # the guard compares states internally
        assert [r.backend for r in records] == ["serial", "static", "workstealing"]

    def test_guard_fires_on_injected_fault(self, monkeypatch):
        real = bench._measure_cell

        def corrupted(kernel, nx, ny, strategy, backend, *args, **kwargs):
            times, state = real(kernel, nx, ny, strategy, backend, *args, **kwargs)
            if not isinstance(backend, Serial):
                state = state.copy()
                state.flat[0] += 1e-13  # single-bit-scale perturbation
            return times, state

        monkeypatch.setattr(bench, "_measure_cell", corrupted)
        config = BenchConfig(backends=("serial", "static"), threads=(2,), **TINY)
        with pytest.raises(BenchGuardError) as exc:
            run_bench(config)
        msg = str(exc.value)
        assert "advection" in msg and "16x16" in msg and "static" in msg and "threads=2" in msg

    def test_superlinear_efficiency_flagged_not_rejected(self, capsys):
        rec = bench._record("euler", 8, 8, "cellwise", "static", 2, 2,
                            ms_per_step=1.0, serial_ms=100.0)
        assert rec.efficiency == 50.0
        assert "superlinear" in capsys.readouterr().err


class TestCsv:
    RECORD = BenchRecord(kernel="euler", nx=2048, ny=2048, strategy="cellwise",
                         backend="workstealing", threads=4, steps=5,
                         ms_per_step=123.456789, mcells_per_s=33.9876543,
                         speedup=3.14159265, efficiency=0.785398163)

    def test_header_is_byte_exact(self):
        buf = io.StringIO()
        emit_csv([], buf)
        assert buf.getvalue() == ("kernel,nx,ny,strategy,backend,threads,steps,"
                                  "ms_per_step,mcells_per_s,speedup,efficiency\n")

    def test_one_record_two_lines_six_significant_digits(self):
        buf = io.StringIO()
        emit_csv([self.RECORD], buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[1] == ("euler,2048,2048,cellwise,workstealing,4,5,"
                            "123.457,33.9877,3.14159,0.785398")

    def test_round_trip_recovers_non_timing_fields(self):
        buf = io.StringIO()
        emit_csv([self.RECORD], buf)
        buf.seek(0)
        back = parse_csv(buf)
        assert len(back) == 1
        r = back[0]
        for field in ("kernel", "nx", "ny", "strategy", "backend", "threads", "steps"):
            assert getattr(r, field) == getattr(self.RECORD, field)

    def test_round_trip_from_file(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([self.RECORD], str(path))
        back = parse_csv(str(path))
        assert back[0].kernel == "euler" and back[0].threads == 4

    def test_parse_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            parse_csv(str(path))


def test_median_invariant_under_repetition_order():
    reps = [3.2, 1.1, 9.7, 2.4, 5.5]
    expected = statistics.median(reps)
    rng = random.Random(0)
    for _ in range(10):
        shuffled = reps[:]
        rng.shuffle(shuffled)
        assert statistics.median(shuffled) == expected


def test_make_backend_and_strategy_names():
    assert make_backend("serial", 4) == Serial()
    assert make_backend("static", 4) == StaticThreads(4)
    assert make_backend("workstealing", 4, 7) == WorkStealing(4, 7)
    with pytest.raises(ValueError):
        make_backend("fpga", 1)
    assert STRATEGY_NAMES == ("rowwise", "cellwise", "tiled")
    assert make_strategy("rowwise", (8, 4)) == make_strategy("cellwise", (8, 4)) == CellWise()
    assert make_strategy("tiled", (8, 4)) == Tiled(8, 4)
    with pytest.raises(ValueError):
        make_strategy("diagonal", (8, 4))
    with pytest.raises(ValueError):  # the tile is checked whatever the name
        make_strategy("rowwise", (0, 4))
