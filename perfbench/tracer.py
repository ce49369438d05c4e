"""Span tracing of sosim's layer boundaries, installed from outside the package.

`Tracer.install()` replaces each traced callable where its caller looks it
up (a module global or a class attribute) with a wrapper that records a span
(name, start, end, parent, op id) in memory; `restore()` puts every original
object back.  Self time is computed from the spans afterwards: a span's
duration minus the durations of its direct children.

Hot leaf callables that run hundreds of thousands of times per op (the Clark
fold) are counted only, so their time is charged to the caller's span.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from contextlib import contextmanager

from sosim import (
    baselines,
    delay_sources,
    estimation,
    fec,
    scheduler_core,
    simulator,
    workloads,
)

LAYERS = (
    "harness",
    "simulator",
    "priority_engine",
    "workloads",
    "scheduler_core",
    "fec",
    "baselines",
    "estimation",
    "delay_sources",
)


class Tracer:
    """In-memory span recorder plus exact event counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, name: str, op_id: int):
        """Root span of one benchmark op."""
        self._op = op_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def _spanned(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _solver(self, fn):
        """solve_integer span; injects a SolveStats so d_upper_evals is exact."""
        spanned = self._spanned("scheduler_core.solve_integer", fn)
        counts = self.counts

        def wrapper(n, paths, stats=None):
            own = scheduler_core.SolveStats() if stats is None else stats
            before = own.d_upper_evals
            result = spanned(n, paths, stats=own)
            counts["scheduler_core.d_upper_evals"] += own.d_upper_evals - before
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def targets(self):
        """(owner, attribute, replacement factory) for every traced callable."""
        def span(name, on_result=None):
            return lambda fn: self._spanned(name, fn, on_result)

        def static(name):
            return lambda sm: staticmethod(self._spanned(name, sm.__func__))

        def add(key, of=lambda result: result):
            def on_result(result):
                self.counts[key] += of(result)

            return on_result

        sim, win = simulator, estimation.RollingWindow
        return [
            (sim.ParamFeed, "__init__", span("simulator.ParamFeed.__init__")),
            (sim.ParamFeed, "snapshot", span("simulator.ParamFeed.snapshot")),
            (sim, "oracle_stats", span("delay_sources.oracle_stats")),
            (sim, "snapshot_params", span("estimation.snapshot_params")),
            (win, "as_array", span("estimation.RollingWindow.as_array")),
            (win, "record", span("estimation.RollingWindow.record")),
            (win, "extend", span("estimation.RollingWindow.extend")),
            (delay_sources.GammaSource, "take", span("delay_sources.GammaSource.take")),
            (sim, "split_object", self._solver),
            (fec, "solve_integer", self._solver),
            (scheduler_core, "solve_relaxed", span("scheduler_core.solve_relaxed")),
            (
                fec,
                "solve_fec_split",
                span(
                    "fec.solve_fec_split",
                    add("fec.redundancy_pkts", lambda alloc: alloc.redundancy),
                ),
            ),
            (sim.EdfPolicy, "assign", static("baselines.edf_assign")),
            (sim.SedpfPolicy, "assign", static("baselines.sedpf_assign")),
            (baselines, "clark_max", lambda fn: self._counted("baselines.clark_max.calls", fn)),
            (sim.Simulation, "step", span("simulator.Simulation.step")),
            (sim.Simulation, "dispatch", span("simulator.Simulation.dispatch")),
            (
                sim.Simulation,
                "pull_unserved",
                span(
                    "simulator.Simulation.pull_unserved",
                    add("simulator.Simulation.pull_unserved.packets"),
                ),
            ),
            (
                workloads.ObjectQueue,
                "next_ready_object",
                span("workloads.ObjectQueue.next_ready_object"),
            ),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, make in self.targets():
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; per layer
        self seconds; total root wall; and the exact counts."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[i]
        by_name: dict[str, list] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        root_wall = 0.0
        for i, name in enumerate(self.names):
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += durations[i]
            entry[2] += own[i]
            layer_self[name.split(".", 1)[0]] += own[i]
            if self.parents[i] < 0:
                root_wall += durations[i]
        return {
            "spans": by_name,
            "layer_self_s": layer_self,
            "root_wall_s": root_wall,
            "counts": dict(self.counts),
            "n_spans": len(self.names),
        }

    def write_spans(self, path) -> None:
        """gzip CSV: name,start_s,end_s,parent_index,op_id (one span per line)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_s,end_s,parent,op\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                out.write("%s,%r,%r,%d,%d\n" % row)
