import re
import tracemalloc

import pytest

import wavesweep.cli as cli
import wavesweep.driver as driver
from wavesweep.bench import BenchConfig
from wavesweep.cli import RunConfig, VerifyConfig, main, parse_args
from wavesweep.oracles import VerifyReport, VerifyResult
from wavesweep.parallel import Serial, WorkStealing
from wavesweep.sweep import CellWise


class TestParseBench:
    def test_matrix_flags(self):
        cfg = parse_args(["bench", "--kernel", "euler", "--sizes", "1024x1024",
                          "--threads", "1,2,4"])
        assert isinstance(cfg, BenchConfig)
        assert cfg.kernels == ("euler",)
        assert cfg.sizes == ((1024, 1024),)
        assert cfg.threads == (1, 2, 4)
        assert cfg.strategies == ("rowwise", "cellwise", "tiled")
        assert cfg.backends == ("serial", "static", "workstealing")

    def test_defaults_mirror_full_matrix(self):
        cfg = parse_args(["bench"])
        assert cfg.sizes == ((256, 256), (512, 512), (1024, 1024), (2048, 2048))
        assert len(cfg.kernels) == 4
        assert cfg.steps == 5 and cfg.warmup == 2 and cfg.repetitions == 5
        assert min(cfg.threads) == 1

    def test_tile_flag(self):
        cfg = parse_args(["bench", "--strategy", "tiled", "--tile", "32x16"])
        assert cfg.strategies == ("tiled",) and cfg.tile == (32, 16)

    @pytest.mark.parametrize("argv", [
        ["bench", "--threads", "0"],
        ["bench", "--threads", "1,0"],
        ["bench", "--sizes", "0x32"],
        ["bench", "--sizes", "8x0"],
        ["bench", "--sizes", "8x8,-1x8"],
        ["bench", "--sizes", "banana"],
        ["bench", "--kernel", "warp"],
        ["bench", "--backend", "cuda"],
        ["bench", "--steps", "0"],
        ["bench", "--reps", "0"],
        ["bench", "--cfl", "1.5"],
        ["bench", "--tile", "0x4"],
        ["--bogus"],
        [],
        ["bench", "--warmup", "-1"],
        ["bench", "--grain", "0"],
        ["bench", "--strategy", "cellwise", "--tile", "0x4"],
        ["bench", "--backend", "serial", "--threads", "0"],
        ["bench", "--backend", "static", "--grain", "0"],
    ])
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("backends", ["serial", "static,serial"])
    def test_grain_without_workstealing_exits_2(self, backends, capsys):
        # as for run: a grain no backend of the matrix takes is refused, not ignored
        with pytest.raises(SystemExit) as exc:
            parse_args(["bench", "--backend", backends, "--grain", "4", "--threads", "2"])
        assert exc.value.code == 2
        assert "grain applies only to the workstealing backend" in capsys.readouterr().err
        cfg = parse_args(["bench", "--backend", backends + ",workstealing", "--grain", "4",
                          "--threads", "2"])
        assert cfg.grain == 4


class TestParseRun:
    def test_single_simulation(self):
        cfg = parse_args(["run", "--kernel", "advection", "--nx", "256",
                          "--ny", "256", "--steps", "10"])
        assert isinstance(cfg, RunConfig)
        assert cfg.sim.kernel == "advection"
        assert cfg.sim.ic == "advection-gaussian"
        assert cfg.sim.spec.nx == 256 and cfg.sim.spec.ny == 256
        assert cfg.sim.num_steps == 10
        assert cfg.sim.backend == Serial()
        assert cfg.sim.strategy == CellWise()

    def test_threaded_backend_and_strategy(self):
        cfg = parse_args(["run", "--kernel", "euler", "--backend", "workstealing",
                          "--threads", "4", "--grain", "2", "--strategy", "rowwise"])
        assert cfg.sim.backend == WorkStealing(4, 2)
        assert cfg.sim.strategy == CellWise()  # "rowwise" names the CellWise preset

    def test_t_final_excludes_steps(self):
        cfg = parse_args(["run", "--t-final", "0.5"])
        assert cfg.sim.t_final == 0.5 and cfg.sim.num_steps is None
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--steps", "5", "--t-final", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--steps", "-1"],
        ["run", "--backend", "workstealing", "--grain", "0"],
        ["run", "--cfl", "1.0"],
        ["run", "--t-final", "inf"],
        ["run", "--ic", "vortex"],
        ["run", "--nx", "0"],
        ["run", "--nx", "-3"],
        ["run", "--strategy", "cellwise", "--tile", "0x4"],
    ])
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2

    def test_cfl_flag_feeds_controller(self):
        cfg = parse_args(["run", "--cfl", "0.5"])
        assert cfg.ctl.cfl_target == 0.5

    def test_non_integer_thread_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("WAVESWEEP_NUM_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--backend", "static"])
        assert exc.value.code == 2
        assert "WAVESWEEP_NUM_THREADS" in capsys.readouterr().err

    def test_kernel_ic_mismatch_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--kernel", "euler", "--ic", "advection-gaussian"])
        assert exc.value.code == 2
        assert "advection-gaussian" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["serial", "static"])
    def test_grain_without_workstealing_exits_2(self, backend, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--backend", backend, "--threads", "2", "--grain", "5"])
        assert exc.value.code == 2
        assert "--grain" in capsys.readouterr().err


def test_parse_verify():
    cfg = parse_args(["verify", "--seed", "42"])
    assert cfg == VerifyConfig(seed=42)


def test_negative_verify_seed_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["verify", "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


class TestMain:
    def test_run_prints_summary(self, capsys):
        code = main(["run", "--kernel", "euler", "--nx", "16", "--ny", "8",
                     "--steps", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "steps=3" in out
        assert "kernel=euler" in out

    @pytest.mark.parametrize("nx,ny", [("1", "1"), ("8", "1"), ("1", "8")])
    def test_one_cell_periodic_axis_runs(self, nx, ny, capsys):
        # one ghost layer: a periodic axis of one cell wraps onto itself
        for kernel in driver.DEFAULT_IC:
            code = main(["run", "--kernel", kernel, "--nx", nx, "--ny", ny, "--steps", "2"])
            assert code == 0
            assert "steps=2" in capsys.readouterr().out

    def test_run_past_step_limit_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(driver, "MAX_STEPS", 4)
        code = main(["run", "--kernel", "advection", "--nx", "8", "--ny", "8",
                     "--t-final", "1e9"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "after 4 steps" in lines[0] and "t_final=1000000000" in lines[0]
        assert re.search(r" at t=0\.\d+", lines[0])

    def test_capped_run_keeps_no_report_per_step(self, monkeypatch, capsys):
        # 20k StepReports would hold about 5.6 MB (~280 B each); the CLI keeps
        # running sums, so the traced peak stays at the grid's own small size
        monkeypatch.setattr(driver, "MAX_STEPS", 20_000)
        tracemalloc.start()
        try:
            code = main(["run", "--kernel", "advection", "--nx", "8", "--ny", "8",
                         "--t-final", "1e9"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "after 20000 steps" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_run_kernel_failure_exits_1_with_location(self, poison_step, capsys):
        poison_step(2)
        code = main(["run", "--kernel", "euler", "--nx", "8", "--ny", "8", "--steps", "4"])
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "x-interface (i=3, j=2) in step 2 at t=" in lines[0]
        assert "nonpositive density on right side" in lines[0]

    def test_bench_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = main(["bench", "--kernel", "advection", "--sizes", "16x16",
                     "--steps", "2", "--warmup", "0", "--reps", "1",
                     "--threads", "2", "--backend", "serial,static",
                     "--strategy", "cellwise", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("kernel,nx,ny,")
        assert len(lines) == 3  # header + serial + static x2

    def test_bench_unwritable_out_exits_2_before_measuring(self, tmp_path, monkeypatch,
                                                          capsys):
        def no_bench(*args, **kwargs):
            raise AssertionError("the matrix ran before --out was opened")

        monkeypatch.setattr(cli, "run_bench", no_bench)
        out = tmp_path / "missing" / "records.csv"
        code = main(["bench", "--kernel", "advection", "--sizes", "8x8",
                     "--steps", "1", "--warmup", "0", "--reps", "1",
                     "--threads", "1", "--backend", "serial",
                     "--strategy", "rowwise", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "--out" in captured.err
        assert not out.parent.exists()

    def test_bench_stdout_by_default(self, capsys):
        code = main(["bench", "--kernel", "advection", "--sizes", "8x8",
                     "--steps", "1", "--warmup", "0", "--reps", "1",
                     "--threads", "1", "--backend", "serial",
                     "--strategy", "rowwise"])
        assert code == 0
        assert capsys.readouterr().out.startswith("kernel,nx,ny,")

    def test_bench_guard_failure_exits_1(self, monkeypatch, capsys):
        import wavesweep.bench as bench
        real = bench._measure_cell

        def corrupted(kernel, nx, ny, strategy, backend, *args, **kwargs):
            times, state = real(kernel, nx, ny, strategy, backend, *args, **kwargs)
            if not isinstance(backend, Serial):
                state = state.copy()
                state.flat[-1] *= 1.0000000001
            return times, state

        monkeypatch.setattr(bench, "_measure_cell", corrupted)
        code = main(["bench", "--kernel", "advection", "--sizes", "8x8",
                     "--steps", "1", "--warmup", "0", "--reps", "1",
                     "--threads", "2", "--backend", "static",
                     "--strategy", "cellwise"])
        assert code == 1
        err = capsys.readouterr().err
        assert "bench aborted" in err

    def test_verify_exit_codes(self, monkeypatch, capsys):
        ok = VerifyReport(results=[VerifyResult("x", True, "fine")], seed=0)
        monkeypatch.setattr(cli, "verify_suite", lambda seed: ok)
        assert main(["verify"]) == 0
        assert "PASS x" in capsys.readouterr().out

        bad = VerifyReport(results=[VerifyResult("x", False, "broken")], seed=0)
        monkeypatch.setattr(cli, "verify_suite", lambda seed: bad)
        assert main(["verify", "--seed", "9"]) == 1
        captured = capsys.readouterr()
        assert "FAIL x" in captured.out
        assert "verification failed" in captured.err
