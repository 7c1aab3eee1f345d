import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavesweep.parallel import (ParallelError, Serial, StaticThreads,
                                THREAD_COUNT_ENV, WorkStealing,
                                default_thread_count, detect_cores,
                                for_each_unit)


def collect_ranges(units, backend, **kwargs):
    seen = []
    lock = threading.Lock()

    def body(a, b):
        with lock:
            seen.append((a, b))

    for_each_unit(units, backend, body, **kwargs)
    return seen


def assert_partition(ranges, n):
    assert all(a < b for a, b in ranges)
    covered = sorted(ranges)
    flat = [k for a, b in covered for k in range(a, b)]
    assert flat == list(range(n))


def test_serial_is_one_ascending_range():
    assert collect_ranges(7, Serial()) == [(0, 7)]


def test_static_partition_is_observable():
    ranges = collect_ranges(10, StaticThreads(3))
    assert sorted(ranges) == [(0, 4), (4, 8), (8, 10)]


@settings(deadline=None, max_examples=80)
@given(n=st.integers(0, 200), workers=st.integers(1, 6), grain=st.integers(1, 50),
       kind=st.sampled_from(["serial", "static", "stealing"]), data=st.data())
def test_every_unit_covered_exactly_once(n, workers, grain, kind, data):
    backend = {"serial": Serial(),
               "static": StaticThreads(workers),
               "stealing": WorkStealing(workers, grain)}[kind]
    ranges = collect_ranges(n, backend)
    assert_partition(ranges, n)

    leaves = for_each_unit(n, backend, lambda a, b: (a, b))
    assert leaves == sorted(ranges)  # one result per leaf, in ascending leaf order
    assert sum(for_each_unit(n, backend, lambda a, b: b - a)) == n
    assert max(for_each_unit(n, backend, lambda a, b: b - 1), default=-1) == n - 1

    if n:
        failing = data.draw(st.sets(st.integers(0, n - 1), min_size=1))

        def body(a, b):
            time.sleep(1e-4)  # let the other workers run meanwhile
            if any(a <= k < b for k in failing):
                raise RuntimeError("boom")

        with pytest.raises(ParallelError) as exc:
            for_each_unit(n, backend, body)
        assert exc.value.unit_start <= min(failing) < exc.value.unit_stop


def test_work_stealing_auto_grain_covers_everything():
    ranges = collect_ranges(1000, WorkStealing(3))
    assert_partition(ranges, 1000)


def test_stealing_leaves_respect_grain():
    ranges = collect_ranges(64, WorkStealing(2, grain=5))
    assert max(b - a for a, b in ranges) <= 5


@pytest.mark.parametrize("backend", [StaticThreads(1), WorkStealing(1, 3), WorkStealing(1)])
def test_single_worker_matches_serial(backend):
    def body(a, b):
        return sum(k * k for k in range(a, b))

    serial = sum(for_each_unit(100, Serial(), body))
    other = sum(for_each_unit(100, backend, body))
    assert serial == other == sum(k * k for k in range(100))


def test_max_accumulator_fold():
    locals_ = {0: 3.0, 1: 7.5, 2: 1.2}

    def body(a, b):
        return max(locals_[k] for k in range(a, b))

    out = for_each_unit(3, StaticThreads(3), body)
    assert out == [3.0, 7.5, 1.2]
    assert max(out, default=0.0) == 7.5


@pytest.mark.parametrize("backend", [Serial(), StaticThreads(3), WorkStealing(3, 2)])
def test_merged_max_independent_of_backend(backend):
    values = [((k * 2654435761) % 1000) / 7.0 for k in range(500)]

    def body(a, b):
        return max(values[a:b])

    out = for_each_unit(500, backend, body)
    assert max(out, default=0.0) == max(values)


@pytest.mark.parametrize("backend", [Serial(), StaticThreads(4), WorkStealing(4, 3),
                                     WorkStealing(2, 1)])
def test_body_failure_identifies_unit(backend):
    # units 3 and 26 both fail; the lower one is reported on every run, also
    # when the bodies take long enough for the workers to interleave
    def body(a, b):
        time.sleep(1e-3)
        if a <= 3 < b or a <= 26 < b:
            raise RuntimeError("boom")

    for _ in range(20):
        with pytest.raises(ParallelError) as exc:
            for_each_unit(50, backend, body)
        assert exc.value.unit_start <= 3 < exc.value.unit_stop
        assert "boom" in str(exc.value)
        assert isinstance(exc.value.__cause__, RuntimeError)
    if backend == WorkStealing(2, 1):
        assert (exc.value.unit_start, exc.value.unit_stop) == (3, 4)


def test_zero_units_returns_empty_list():
    called = []
    out = for_each_unit(0, WorkStealing(4, 1), lambda a, b: called.append((a, b)))
    assert out == [] and called == []


def test_detect_cores_at_least_one():
    assert detect_cores() >= 1


def test_default_thread_count_env_override(monkeypatch):
    monkeypatch.setenv(THREAD_COUNT_ENV, "3")
    assert default_thread_count() == 3
    monkeypatch.setenv(THREAD_COUNT_ENV, "0")
    with pytest.raises(ValueError):
        default_thread_count()
    monkeypatch.delenv(THREAD_COUNT_ENV)
    assert default_thread_count() == detect_cores()


def test_backend_validation():
    with pytest.raises(ValueError):
        StaticThreads(0)
    with pytest.raises(ValueError):
        WorkStealing(2, 0)
    with pytest.raises(ValueError):
        WorkStealing(0)


@pytest.mark.parametrize("units,align,grain", [
    (289, 17, 17),   # default 19 is one band plus a splinter: round to one band
    (130, 65, 9),    # band wider than twice the default leaf: keep the default
    (60, 5, 5),      # default 4 is at least half a band: one band
    (420, 17, 34),   # default 27 is 1.6 bands: two bands
    (289, 1, 19),    # no alignment: the default as before
    (0, 17, 0),
])
def test_default_grain_rounds_to_whole_bands(units, align, grain):
    backend = WorkStealing(2)
    assert backend.threads_and_grain(units, align) == (2, grain)
    ranges = sorted(collect_ranges(units, backend, align=align))
    assert_partition(ranges, units)
    assert all(b - a == grain for a, b in ranges[:-1])
    if grain % align == 0:
        assert all(a % align == 0 for a, _ in ranges)


def test_explicit_grain_ignores_alignment():
    assert WorkStealing(2, grain=19).threads_and_grain(289, 17) == (2, 19)
    ranges = sorted(collect_ranges(289, WorkStealing(2, grain=19), align=17))
    assert_partition(ranges, 289)
    assert [b - a for a, b in ranges] == [19] * 15 + [4]


@pytest.mark.parametrize("backend", [Serial(), StaticThreads(2), StaticThreads(3)])
def test_serial_and_static_ignore_alignment(backend):
    for units, align in ((289, 17), (130, 65), (10, 4)):
        assert backend.threads_and_grain(units, align) == backend.threads_and_grain(units)
        assert (sorted(collect_ranges(units, backend, align=align))
                == sorted(collect_ranges(units, backend)))


def test_alignment_must_be_positive():
    with pytest.raises(ValueError, match="alignment"):
        for_each_unit(10, WorkStealing(2), lambda a, b: None, align=0)
