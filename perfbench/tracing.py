"""Outside-in tracing of wavesweep steps.

The tracer replaces, for the duration of one step, the public functions that
``driver.step`` calls (``fill_ghost``, ``resolve_kernel``, ``sweep``,
``choose_dt``, ``apply_update``), the ``for_each_unit`` entry point that the
sweep and the update use, and the bound ``Kernel.solve``.  Each replacement
records a span and calls the original, so the computed values are unchanged
and no wavesweep source is edited.  Spans stay in memory and are written as
Chrome Trace Event JSON, which Perfetto opens, when the run ends.

Layers are the wavesweep modules: driver, grid, sweep, kernels, parallel.
"""

from __future__ import annotations

import importlib
import itertools
import json
import resource
import statistics
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

from wavesweep import driver
from wavesweep.kernels import Kernel

# span name -> layer
LAYER = {
    "driver.step": "driver",
    "driver.resolve_kernel": "driver",
    "driver.choose_dt": "driver",
    "grid.fill_ghost": "grid",
    "sweep.sweep": "sweep",
    "sweep.apply_update": "sweep",
    "parallel.region": "parallel",
    "parallel.leaf": "sweep",       # the leaf body is the sweep's (or update's) own code
    "kernels.solve": "kernels",
}

_DRIVER_CALLEES = {
    "fill_ghost": "grid.fill_ghost",
    "choose_dt": "driver.choose_dt",
    "apply_update": "sweep.apply_update",
}


class Span:
    __slots__ = ("name", "id", "parent", "step", "tid", "start", "end", "ifaces",
                 "result_bytes")

    def __init__(self, name, span_id, parent, step, tid):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.step = step
        self.tid = tid
        self.ifaces = 0
        self.result_bytes = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _owner(arr):
    while arr.base is not None:
        arr = arr.base
    return arr


class Tracer:
    """Records spans of the steps run inside `stepping`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.faults: dict = {}
        self.fresh_bytes: dict = {}
        self.step = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._seen_fluct: dict = {}     # trajectory label -> weakrefs to its last buffers
        self._saved: list[tuple] = []

    # -- span recording ------------------------------------------------------

    def _open(self, name: str, parent: int | None = None) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(name, next(self._ids), parent, self.step, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    # -- the replaced functions ------------------------------------------------

    def _traced_sweep(self, fn):
        def traced(*args, **kwargs):
            span = self._open("sweep.sweep")
            try:
                fluct, stats = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._count_fresh(fluct)
            return fluct, stats
        return traced

    def _count_fresh(self, fluct):
        """Fluctuation bytes whose buffers were not in the previous step's field."""
        arrays = (fluct.x_minus, fluct.x_plus, fluct.y_minus, fluct.y_plus)
        label = self.step[0]
        seen = {id(ref()) for ref in self._seen_fluct.get(label, ()) if ref() is not None}
        owners = [_owner(a) for a in arrays]
        self.fresh_bytes[self.step] = sum(a.nbytes for a, o in zip(arrays, owners)
                                          if id(o) not in seen)
        self._seen_fluct[label] = [weakref.ref(o) for o in owners]

    def _traced_resolve_kernel(self, fn):
        def traced(config):
            span = self._open("driver.resolve_kernel")
            try:
                kernel = fn(config)
            finally:
                self._close(span)
            solve = kernel.solve

            def traced_solve(direction, ql, qr, auxl=None, auxr=None):
                s = self._open("kernels.solve")
                try:
                    res = solve(direction, ql, qr, auxl, auxr)
                finally:
                    self._close(s)
                s.ifaces = ql[0].size
                s.result_bytes = (res.waves.nbytes + res.speeds.nbytes
                                  + res.amdq.nbytes + res.apdq.nbytes)
                return res

            return Kernel(kernel.descriptor, kernel.params, traced_solve)
        return traced

    def _traced_for_each_unit(self, fn):
        def traced(units, backend, body, **kwargs):
            region = self._open("parallel.region")

            def leaf(a, b):
                span = self._open("parallel.leaf", parent=region.id)
                try:
                    return body(a, b)
                finally:
                    self._close(span)

            try:
                return fn(units, backend, leaf, **kwargs)
            finally:
                self._close(region)
        return traced

    def _install(self):
        # the package re-exports the function `sweep`, which shadows the submodule
        sweep_mod = importlib.import_module("wavesweep.sweep")
        patches = [(driver, attr, self._wrap(name, getattr(driver, attr)))
                   for attr, name in _DRIVER_CALLEES.items()]
        patches += [
            (driver, "sweep", self._traced_sweep(driver.sweep)),
            (driver, "resolve_kernel", self._traced_resolve_kernel(driver.resolve_kernel)),
            (sweep_mod, "for_each_unit", self._traced_for_each_unit(sweep_mod.for_each_unit)),
        ]
        for module, attr, replacement in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

    def _uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def stepping(self, step_id):
        """Trace one `driver.step` call made inside the block."""
        self._install()
        self.step = step_id
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        span = self._open("driver.step")
        try:
            yield
        finally:
            self._close(span)
            self.faults[step_id] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            self.step = None
            self._uninstall()

    # -- export ----------------------------------------------------------------

    def write_chrome(self, path):
        """Write every span as a Chrome Trace Event "complete" event."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [{
            "name": s.name, "cat": LAYER[s.name], "ph": "X", "pid": 1, "tid": s.tid,
            "ts": (s.start - t0) * 1e6, "dur": (s.end - s.start) * 1e6,
            "args": {"id": s.id, "parent": s.parent,
                     "step": f"{s.step[0]}:{s.step[1]}"},
        } for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _union_s(intervals) -> float:
    """Length of time covered by at least one (start, end) interval."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def step_figures(spans: list[Span], n_threads: int, faults: int, fresh_bytes: int,
                 update_bytes: int) -> dict:
    """Per-layer figures of one traced step, from its spans."""
    by_id = {s.id: s for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    (step,) = named["driver.step"]
    (swp,) = named["sweep.sweep"]
    (upd,) = named["sweep.apply_update"]
    regions = named["parallel.region"]
    leaves = named["parallel.leaf"]
    solves = named["kernels.solve"]

    callees_ms = sum(s.ms for s in spans if s.parent == step.id)
    sweep_regions = [r for r in regions if r.parent == swp.id]
    sweep_leaves = [s for s in leaves if by_id[s.parent].parent == swp.id]
    ifaces = sum(s.ifaces for s in solves)
    solve_ms = sum(s.ms for s in solves)

    leaves_of = defaultdict(list)
    per_thread = defaultdict(float)
    for s in leaves:
        leaves_of[s.parent].append((s.start, s.end))
        per_thread[s.tid] += s.end - s.start
    leaf_total = sum(per_thread.values())
    region_s = sum(r.end - r.start for r in regions)
    parallel_self_s = sum(r.end - r.start - _union_s(leaves_of[r.id]) for r in regions)

    return {
        "kernels.solve_ms": solve_ms,
        "kernels.solve_ns_per_iface": solve_ms * 1e6 / ifaces,
        "kernels.calls": len(solves),
        "kernels.ifaces_per_call": ifaces / len(solves),
        "kernels.result_bytes_per_iface": sum(s.result_bytes for s in solves) / ifaces,
        "sweep.sweep_ms": swp.ms,
        "sweep.self_ms": swp.ms - sum(r.ms for r in sweep_regions),
        "sweep.leaf_self_ms": sum(s.ms for s in sweep_leaves) - solve_ms,
        "sweep.fresh_fluct_mb": fresh_bytes / 2**20,
        "sweep.apply_update_ms": upd.ms,
        "sweep.apply_update_gbps": update_bytes / (upd.end - upd.start) / 1e9,
        "parallel.regions": len(regions),
        "parallel.leaves": len(leaves),
        "parallel.self_ms": parallel_self_s * 1e3,
        "parallel.busy_frac": leaf_total / (region_s * n_threads),
        "parallel.imbalance": max(per_thread.values()) / (leaf_total / n_threads),
        "grid.fill_ghost_ms": sum(s.ms for s in named["grid.fill_ghost"]),
        "driver.step_self_ms": step.ms - callees_ms,
        "memory.minor_faults": faults,
    }


def layer_figures(tracer: Tracer, label: str, n_threads: int, update_bytes: int) -> dict:
    """Median over the traced steps of `label` of each per-step figure."""
    by_step = defaultdict(list)
    for s in tracer.spans:
        if s.step[0] == label:
            by_step[s.step].append(s)
    per_step = [step_figures(spans, n_threads, tracer.faults[sid],
                             tracer.fresh_bytes[sid], update_bytes)
                for sid, spans in by_step.items()]
    return {k: statistics.median(f[k] for f in per_step) for k in per_step[0]}


def self_time_summary(tracer: Tracer, label: str) -> dict:
    """Total self time per layer over the traced steps of `label`, in ms.

    Worker-thread time is summed, so threaded totals are thread-milliseconds.
    """
    spans = [s for s in tracer.spans if s.step[0] == label]
    child_ms = defaultdict(float)
    leaves_of = defaultdict(list)
    for s in spans:
        if s.name == "parallel.leaf":
            leaves_of[s.parent].append((s.start, s.end))
        elif s.parent is not None:
            child_ms[s.parent] += s.ms
    totals = defaultdict(float)
    for s in spans:
        if s.name == "parallel.region":
            own = s.ms - _union_s(leaves_of[s.id]) * 1e3
        else:
            own = s.ms - child_ms[s.id]
        totals[LAYER[s.name]] += own
    return dict(totals)
