"""Metric names, units and the per-layer breakdown of a traced run.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json``; every workload
prints every name (a layer a workload never reaches reads 0).
``REPORTED`` are the end-to-end latencies of ``service_openloop``,
printed by its untraced runs but left out of ``BENCHMARK.json``: on a
2-core host their spread across seeds exceeds the largest bound the
benchmark may set (see README).
"""

from __future__ import annotations

from typing import Any, Optional

from common import median, percentile

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MiB",
    "max_rate_jobs_per_s": "jobs/s",
    "cata_speedup_8": "ratio",
    "cata_norm_edp_8": "ratio",
}

REPORTED: dict[str, str] = {
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "latency_p99_high_s": "s",
}

PER_LAYER: dict[str, str] = {
    "workloads.build.calls": "count",
    "workloads.build.busy_s": "s",
    "workloads.build.tasks": "count",
    "core.build_system.calls": "count",
    "core.build_system.busy_s": "s",
    "runtime.run.busy_s": "s",
    "runtime.run.events": "count",
    "runtime.run.events_per_s": "1/s",
    "runtime.tasks": "count",
    "runtime.tdg.bl_edges": "count",
    "core.reconfigs": "count",
    "core.freq_transitions": "count",
    "core.cpufreq_writes": "count",
    "sim.serialize.to_dict.busy_s": "s",
    "sim.serialize.from_dict.busy_s": "s",
    "sim.serialize.bytes": "bytes",
    "harness.cache.get.calls": "count",
    "harness.cache.get.busy_s": "s",
    "harness.cache.hit_ratio": "ratio",
    "harness.cache.put.calls": "count",
    "harness.cache.put.busy_s": "s",
    "harness.cache.put.bytes": "bytes",
    "harness.journal.record.calls": "count",
    "harness.journal.record.busy_s": "s",
    "harness.executor.cell_s.p50": "s",
    "harness.executor.cell_s.p95": "s",
    "harness.executor.dispatch_wait_s": "s",
    "harness.executor.retries": "count",
    "harness.executor.timeouts": "count",
    "harness.executor.pool_crashes": "count",
    "harness.grid.normalize_shape.busy_s": "s",
    "startup.import_s": "s",
    "sim.kernels.load_s": "s",
    "sim.kernels.compile_s": "s",
    "service.submit.p50_s": "s",
    "service.submit.p99_s": "s",
    "service.status.p50_s": "s",
    "service.fetch.p50_s": "s",
    "service.fetch.p99_s": "s",
    "service.admitted": "count",
    "service.shed_low": "count",
    "service.shed_high": "count",
    "service.queue_depth.max": "count",
    "service.dedup_ratio": "ratio",
    "service.cache_hit_ratio": "ratio",
    "service.sim_s": "s",
    "service.send_lag_p99_s": "s",
    "cells.simulated": "count",
    "cells.cached": "count",
    "cells.deduped": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(
    state: dict[str, Any],
    probe_reports: list[dict[str, Any]],
    compile_s: float,
    overhead_frac: float,
    service: Optional[dict[str, float]] = None,
) -> dict[str, float]:
    """Per-layer numbers from a tracer's state (spans, counters, samples)."""
    from tracing import self_times, span_counts

    spans = state["spans"]
    own = self_times(spans)
    calls = span_counts(spans)
    c = state["counters"]
    s = state["samples"]

    def busy(name: str) -> float:
        return own.get(name, 0.0)

    run_busy = busy("runtime.run")
    events = c.get("runtime.run.events", 0.0)
    gets = c.get("harness.cache.get.calls", 0.0)
    cell_s = s.get("harness.executor.cell_s", [])
    m: dict[str, float] = {
        "workloads.build.calls": calls.get("workloads.build", 0),
        "workloads.build.busy_s": busy("workloads.build"),
        "workloads.build.tasks": c.get("workloads.build.tasks", 0.0),
        "core.build_system.calls": calls.get("core.build_system", 0),
        "core.build_system.busy_s": busy("core.build_system"),
        "runtime.run.busy_s": run_busy,
        "runtime.run.events": events,
        "runtime.run.events_per_s": events / run_busy if run_busy else 0.0,
        "runtime.tasks": c.get("runtime.tasks", 0.0),
        "runtime.tdg.bl_edges": c.get("runtime.tdg.bl_edges", 0.0),
        "core.reconfigs": c.get("core.reconfigs", 0.0),
        "core.freq_transitions": c.get("core.freq_transitions", 0.0),
        "core.cpufreq_writes": c.get("core.cpufreq_writes", 0.0),
        "sim.serialize.to_dict.busy_s": busy("sim.serialize.to_dict"),
        "sim.serialize.from_dict.busy_s": busy("sim.serialize.from_dict"),
        "sim.serialize.bytes": c.get("sim.serialize.bytes", 0.0),
        "harness.cache.get.calls": gets,
        "harness.cache.get.busy_s": busy("harness.cache.get"),
        "harness.cache.hit_ratio": (
            c.get("harness.cache.get.hits", 0.0) / gets if gets else 0.0
        ),
        "harness.cache.put.calls": c.get("harness.cache.put.calls", 0.0),
        "harness.cache.put.busy_s": busy("harness.cache.put"),
        "harness.cache.put.bytes": c.get("harness.cache.put.bytes", 0.0),
        "harness.journal.record.calls": c.get("harness.journal.record.calls", 0.0),
        "harness.journal.record.busy_s": busy("harness.journal.record"),
        "harness.executor.cell_s.p50": percentile(cell_s, 0.50),
        "harness.executor.cell_s.p95": percentile(cell_s, 0.95),
        "harness.executor.dispatch_wait_s": c.get(
            "harness.executor.dispatch_wait_s", 0.0
        ),
        "harness.executor.retries": c.get("harness.executor.retries", 0.0),
        "harness.executor.timeouts": c.get("harness.executor.timeouts", 0.0),
        "harness.executor.pool_crashes": c.get("harness.executor.pool_crashes", 0.0),
        "harness.grid.normalize_shape.busy_s": (
            busy("harness.grid.run_grid") + busy("analysis.validate.shape")
        ),
        "startup.import_s": median([r["import_s"] for r in probe_reports]),
        "sim.kernels.load_s": median([r["load_s"] for r in probe_reports]),
        "sim.kernels.compile_s": compile_s,
        "cells.simulated": c.get("cells.simulated", 0.0),
        "cells.cached": c.get("cells.cached", 0.0),
        "cells.deduped": c.get("cells.deduped", 0.0),
        "trace.spans": len(spans),
        "trace.overhead_frac": overhead_frac,
    }
    for name in PER_LAYER:
        if name.startswith("service."):
            m[name] = (service or {}).get(name, 0.0)
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {sorted(missing)}")
    return m
