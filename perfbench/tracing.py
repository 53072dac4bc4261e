"""Spans around the program's layer boundaries, recorded from outside.

Tracing is installed only for ``--trace 1`` runs and in the traced service
daemon (``traced_serve.py``).  It wraps public entry points of each layer
(``ResultCache.get/put``, the ``sim.serialize`` functions the cache and
service call, ``SweepJournal.record``, ``SweepExecutor.run_cells``,
``GridRunner.run_grid``, the Figure 4 shape check) and swaps every
executor's per-cell function for :func:`traced_cell`.  That calls the
program's own ``simulate_cell`` with ``build_program``,
``Scenario.build_jobs``, ``build_system`` and ``RuntimeSystem.run``
wrapped: a span around each, and the system's exact work counters read
after ``run``.  :func:`counted_cell` does the same without spans, for the
exact counters of untraced runs.

Spans stay in memory.  Cell spans recorded in pool workers travel back to
the parent attached to the pickled ``RunResult`` (an instance attribute
that the serializer ignores) and are collected when the executor stores
the result.  :meth:`Tracer.dump` writes everything once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: Attribute carrying a traced cell's spans and counters back to the parent.
PAYLOAD_ATTR = "_perfbench_payload"

#: Numbers the tracers of one process, so span ids stay unique when a pool
#: worker records many cells, each with its own tracer.
_TRACER_SEQ = itertools.count()


class Tracer:
    """In-memory span store; thread-safe append, per-thread parent stack."""

    def __init__(self, record_spans: bool = True) -> None:
        self.record_spans = record_spans
        self.spans: list[dict[str, Any]] = []
        #: Exact or summed counters keyed by name.
        self.counters: dict[str, float] = defaultdict(float)
        #: Per-call samples (e.g. cell seconds) keyed by name.
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._prefix = f"{os.getpid()}.{next(_TRACER_SEQ)}-"

    def _stack(self) -> list[tuple[str, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None) -> Iterator[None]:
        if not self.record_spans:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = self._prefix + str(next(self._ids))
        if trace_id is None:
            trace_id = parent[1] if parent is not None else span_id
        stack.append((span_id, trace_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "parent": parent[0] if parent is not None else None,
                "trace": trace_id,
                "name": name,
                "start": start,
                "end": end,
            }
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def absorb(self, payload: dict[str, Any]) -> None:
        """Merge a traced cell's spans/counters (possibly from a worker)."""
        with self._lock:
            self.spans.extend(payload["spans"])
            for name, value in payload["counters"].items():
                self.counters[name] += value
            for name, values in payload["samples"].items():
                self.samples[name].extend(values)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    def state(self) -> dict[str, Any]:
        return {
            "spans": list(self.spans),
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Self time per span name: duration minus what direct children cover."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span["id"], ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[span["name"]] += (end - start) - covered
    return dict(totals)


def span_counts(spans: list[dict[str, Any]]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span["name"]] += 1
    return dict(counts)


# ------------------------------------------------------------ traced cell
class _CellState(threading.local):
    #: Tracer of the cell this thread is simulating, if any.
    tracer: Optional[Tracer] = None


_CELL = _CellState()
_CELL_WRAPPED = False


def _install_cell_wrappers() -> None:
    """Wrap the layers ``simulate_cell`` calls (once per process).

    The wrappers record into the tracer of the cell the calling thread is
    simulating and call straight through otherwise.
    """
    global _CELL_WRAPPED
    if _CELL_WRAPPED:
        return
    _CELL_WRAPPED = True
    import repro.core.policies as policies_mod
    import repro.harness.executor as executor_mod
    from repro.runtime.system import RuntimeSystem
    from repro.workloads.scenario import Scenario

    def traced(name: str, tasks: Optional[Callable[[Any], int]] = None):
        def make(fn):
            def wrapper(*args, **kwargs):
                tracer = _CELL.tracer
                if tracer is None:
                    return fn(*args, **kwargs)
                with tracer.span(name):
                    out = fn(*args, **kwargs)
                if tasks is not None:
                    tracer.count(f"{name}.tasks", tasks(out))
                return out
            return wrapper
        return make

    _wrap(executor_mod, "build_program",
          traced("workloads.build", lambda program: program.task_count))
    _wrap(Scenario, "build_jobs",
          traced("workloads.build",
                 lambda jobs: sum(job.program.task_count for job in jobs)))
    _wrap(policies_mod, "build_system", traced("core.build_system"))

    def run(fn):
        def wrapper(self, *args, **kwargs):
            tracer = _CELL.tracer
            if tracer is None:
                return fn(self, *args, **kwargs)
            with tracer.span("runtime.run"):
                result = fn(self, *args, **kwargs)
            tracer.count("runtime.run.events", self.sim.events_fired)
            tracer.count("runtime.tdg.bl_edges", self.tdg.bl_edges_visited_total)
            tracer.count("runtime.tasks", result.tasks_executed)
            tracer.count("core.reconfigs", result.reconfig_count)
            tracer.count("core.freq_transitions", result.freq_transitions)
            tracer.count("core.cpufreq_writes", result.cpufreq_writes)
            return result
        return wrapper

    _wrap(RuntimeSystem, "run", run)


def _cell(spec: Any, machine_dict: Optional[dict[str, Any]], tracer: Tracer):
    from repro.harness.executor import simulate_cell
    from repro.sim.serialize import machine_from_dict

    _install_cell_wrappers()
    trace_id = None
    if tracer.record_spans:
        machine = machine_from_dict(machine_dict) if machine_dict is not None else None
        trace_id = spec.key(machine)
    _CELL.tracer = tracer
    try:
        with tracer.span("harness.executor.cell", trace_id=trace_id):
            result, seconds = simulate_cell(spec, machine_dict)
    finally:
        _CELL.tracer = None
    tracer.sample("harness.executor.cell_s", seconds)
    setattr(result, PAYLOAD_ATTR, tracer.state())
    return result, seconds


def traced_cell(spec: Any, machine_dict: Optional[dict[str, Any]] = None):
    """Drop-in executor ``cell_fn``: ``simulate_cell`` with layer spans.

    Module-level so it pickles into pool workers.  Returns
    ``(result, seconds)`` like ``simulate_cell``; the result carries the
    cell's spans and exact counters in :data:`PAYLOAD_ATTR`.
    """
    return _cell(spec, machine_dict, Tracer())


def counted_cell(spec: Any, machine_dict: Optional[dict[str, Any]] = None):
    """``simulate_cell`` with the exact work counters only (no spans).

    Untraced runs use it to read the counters ``RunResult`` does not carry
    (events fired, bottom-level edges visited); it adds a few attribute
    reads and counter updates per cell.
    """
    return _cell(spec, machine_dict, Tracer(record_spans=False))


def cell_counters(result: Any) -> dict[str, float]:
    """Exact counters a traced or counted cell attached to its result."""
    payload = getattr(result, PAYLOAD_ATTR, None)
    return dict(payload["counters"]) if payload is not None else {}


# ----------------------------------------------------------- installation
def _wrap(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, attr)
    wrapped = make(original)
    functools.update_wrapper(wrapped, original)
    setattr(owner, attr, wrapped)


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the imported ``repro`` package."""
    import repro.harness.cache as cache_mod
    import repro.harness.executor as executor_mod
    import repro.harness.figure4 as figure4_mod
    import repro.harness.journal as journal_mod
    import repro.harness.runner as runner_mod
    import repro.service.protocol as protocol_mod
    import repro.service.server as server_mod

    def serialize(name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    for mod in (cache_mod, protocol_mod, server_mod):
        _wrap(mod, "result_to_dict", serialize("sim.serialize.to_dict"))
    _wrap(cache_mod, "result_from_dict", serialize("sim.serialize.from_dict"))

    def cache_get(fn):
        def wrapper(self, key):
            with tracer.span("harness.cache.get"):
                result = fn(self, key)
            tracer.count("harness.cache.get.calls")
            if result is not None:
                tracer.count("harness.cache.get.hits")
                tracer.count("sim.serialize.bytes", _file_size(self._path(key)))
            return result
        return wrapper

    def cache_put(fn):
        def wrapper(self, key, result):
            payload = getattr(result, PAYLOAD_ATTR, None)
            if payload is not None:
                tracer.absorb(payload)
            with tracer.span("harness.cache.put"):
                fn(self, key, result)
            size = _file_size(self._path(key))
            tracer.count("harness.cache.put.calls")
            tracer.count("harness.cache.put.bytes", size)
            tracer.count("sim.serialize.bytes", size)
        return wrapper

    _wrap(cache_mod.ResultCache, "get", cache_get)
    _wrap(cache_mod.ResultCache, "put", cache_put)

    def journal_record(fn):
        def wrapper(self, key, label, seconds):
            with tracer.span("harness.journal.record"):
                fn(self, key, label, seconds)
            tracer.count("harness.journal.record.calls")
        return wrapper

    _wrap(journal_mod.SweepJournal, "record", journal_record)

    def run_cells(fn):
        def wrapper(self, specs):
            with tracer.span("harness.executor.run_cells"):
                t0 = time.perf_counter()
                results, batch = fn(self, specs)
                wall = time.perf_counter() - t0
            if batch.simulated:
                # Wall time not explained by cell compute spread over the
                # workers: dispatch, pickling, pool start and stragglers.
                busy = batch.sim_seconds / max(1, min(self.jobs, batch.simulated))
                tracer.count("harness.executor.dispatch_wait_s", max(0.0, wall - busy))
            tracer.count("harness.executor.retries", batch.retries)
            tracer.count("harness.executor.timeouts", batch.timeouts)
            tracer.count("harness.executor.pool_crashes", batch.pool_crashes)
            tracer.count("cells.simulated", batch.simulated)
            tracer.count("cells.cached", batch.cache_hits)
            tracer.count("cells.deduped", batch.deduped)
            return results, batch
        return wrapper

    _wrap(executor_mod.SweepExecutor, "run_cells", run_cells)

    def executor_init(fn):
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            if self.cell_fn is executor_mod.simulate_cell:
                self.cell_fn = traced_cell
        return wrapper

    _wrap(executor_mod.SweepExecutor, "__init__", executor_init)

    def run_grid(fn):
        def wrapper(self, *args, **kwargs):
            with tracer.span("harness.grid.run_grid"):
                return fn(self, *args, **kwargs)
        return wrapper

    _wrap(runner_mod.GridRunner, "run_grid", run_grid)

    def shape(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("analysis.validate.shape"):
                return fn(*args, **kwargs)
        return wrapper

    _wrap(figure4_mod, "check_figure4_shape", shape)
