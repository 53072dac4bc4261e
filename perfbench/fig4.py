"""``fig4_cold`` and ``fig4_warm``: the paper-scale Figure 4 grid.

One *pass* resolves the whole grid (6 workloads x 4 policies x 3 fast-core
counts x 3 seeds = 216 cells) through a fresh ``GridRunner`` at
``jobs=2`` — cold into an empty cache directory, or warm from the cache a
cold pass filled — then normalizes it and runs the 18 shape checks.

A cold pass runs in a fresh interpreter, as ``repro figure4`` does for a
user, so no pass inherits memos warmed by an earlier one:
``python3 perfbench/fig4.py --pass CACHE_DIR TRACE SEED...`` (with ``src``
on ``PYTHONPATH``) runs one pass and prints it as JSON.  Warm passes run
in the benchmark process, each through a fresh runner.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Optional

import common
from common import (
    DEFAULT_SEED,
    FIG4_FAST,
    FIG4_WORKLOADS,
    NPROC,
    RunDir,
    cell_seeds,
    digest_lines,
    log,
    median,
    run_probe,
)

GRID_CELLS = len(FIG4_WORKLOADS) * 4 * len(FIG4_FAST) * 3
#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 9


@dataclass
class Pass:
    wall_s: float
    cells: int
    simulated: int
    cache_hits: int
    deduped: int
    shape_checks: int
    shape_violations: list[str]
    csv: str
    #: SHA-256 over the sorted ``key fingerprint`` lines of all results.
    digest: str
    #: Exact work counters: summed over the results, plus events fired and
    #: bottom-level edges visited when the pass simulated its cells.
    counters: dict[str, int]
    #: Mean CATA speedup and normalized EDP over FIFO at 8 fast cores.
    cata: tuple[float, float]
    #: Peak RSS of the process that ran the pass plus its largest child
    #: (MiB); set by ``--pass`` processes.
    peak_rss_mb: float = 0.0


def grid_pass(cache_dir: str, seeds: tuple[int, ...]) -> Pass:
    """Resolve the grid once through a fresh runner; times the whole pass.

    Fingerprints and counters are computed after the timed region.
    """
    import tracing
    from repro.harness.executor import simulate_cell
    from repro.harness.figure4 import run_figure4
    from repro.harness.runner import GridRunner

    results: list[tuple[str, Any]] = []

    t0 = time.perf_counter()
    runner = GridRunner(scale=1.0, seeds=seeds, jobs=NPROC, cache_dir=cache_dir)
    executor = runner.executor
    if executor.cell_fn is simulate_cell:
        # Untraced: the same cell function plus the exact counters.
        executor.cell_fn = tracing.counted_cell
    executor.on_cell_complete = (
        lambda spec, key, result, seconds, cached: results.append((key, result))
    )
    fig = run_figure4(runner)
    wall = time.perf_counter() - t0
    executor.journal.close()
    assert fig.stats is not None and fig.grid is not None

    counters: dict[str, int] = {}
    for _, r in results:
        for name, value in tracing.cell_counters(r).items():
            if name in ("runtime.run.events", "runtime.tdg.bl_edges"):
                counters[name] = counters.get(name, 0) + int(value)
    counters.update({
        "runtime.tasks": sum(r.tasks_executed for _, r in results),
        "core.reconfigs": sum(r.reconfig_count for _, r in results),
        "core.freq_transitions": sum(r.freq_transitions for _, r in results),
        "core.cpufreq_writes": sum(r.cpufreq_writes for _, r in results),
        "cells.simulated": fig.stats.simulated,
        "cells.cached": fig.stats.cache_hits,
        "cells.deduped": fig.stats.deduped,
    })
    chosen = [x for x in fig.points if x.policy == "cata" and x.fast_cores == 8]
    return Pass(
        wall_s=wall,
        cells=len(results),
        simulated=fig.stats.simulated,
        cache_hits=fig.stats.cache_hits,
        deduped=fig.stats.deduped,
        shape_checks=fig.shape.checks,
        shape_violations=list(fig.shape.violations),
        csv=fig.grid.to_csv(),
        digest=digest_lines(f"{key} {_fingerprint(r)}" for key, r in results),
        counters=counters,
        cata=(
            sum(x.speedup for x in chosen) / len(chosen),
            sum(x.normalized_edp for x in chosen) / len(chosen),
        ),
    )


def _fingerprint(result: Any) -> str:
    """``repro.service.protocol.result_fingerprint``, computed through
    ``repro.sim.serialize`` itself so a traced run does not count the
    benchmark's own checking as serialization work."""
    from repro.sim.serialize import result_to_dict

    blob = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cold_pass(rundir: RunDir, cache_dir: str, seeds: tuple[int, ...],
              tracer: Any) -> Pass:
    """One pass in a fresh interpreter; its spans join ``tracer``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--pass", cache_dir,
           "1" if tracer is not None else "0", *map(str, seeds)]
    proc = subprocess.run(cmd, env=rundir.env(), cwd=common.ROOT,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"cold pass failed: {proc.stderr.strip()[-800:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    if tracer is not None:
        tracer.absorb(data["trace"])
    fields = data["pass"]
    fields["cata"] = tuple(fields["cata"])
    return Pass(**fields)


@dataclass
class Fig4Outcome:
    passes: list[Pass]
    setup_times: list[float]
    probe_reports: list[dict[str, Any]]
    failures: list[str]
    attempted: int
    failed: int
    #: fig4_warm: the cold pass of set-up that filled the cache.
    fill: Optional[Pass] = None
    untraced_unit_s: Optional[float] = None


def _check_shape(p: Pass, seed: int, failures: list[str], label: str) -> int:
    if seed == DEFAULT_SEED and p.shape_violations:
        failures.append(
            f"{label}: {len(p.shape_violations)}/{p.shape_checks} shape claims "
            f"failed at the default seed: {p.shape_violations}"
        )
        return len(p.shape_violations)
    return 0


def run(
    kind: str,
    seed: int,
    seconds: float,
    rundir: RunDir,
    tracer: Any = None,
) -> Fig4Outcome:
    seeds = cell_seeds(seed)
    failures: list[str] = []
    attempted = 0
    failed = 0
    out = Fig4Outcome([], [], [], failures, 0, 0)
    cold = kind == "fig4_cold"
    env = rundir.env()

    reference: Optional[Pass] = None
    warm_dir = rundir.sub("warm-cache")
    if not cold:
        # Set-up: a cold pass in its own process fills the cache the warm
        # passes read (so its memory is not the benchmark process's).
        fill = out.fill = reference = cold_pass(rundir, warm_dir, seeds, None)
        if fill.simulated != GRID_CELLS:
            failures.append(f"fill simulated {fill.simulated} != {GRID_CELLS}")
        failed += _check_shape(fill, seed, failures, "fill")
        log(f"set-up: cold fill {fill.wall_s:.2f}s, digest {fill.digest[:16]}")

    # Set-up time: fresh processes, kernels already compiled.
    for i in range(SETUP_PROBES):
        if cold:
            ready, report, _ = run_probe(["--pool", str(NPROC)], env)
        else:
            csv_path = rundir.sub(f"cli-{i}.csv")
            ready, report, proc = run_probe(
                ["--cli", "figure4", "--cache-dir", warm_dir, "--jobs", str(NPROC),
                 "--seeds", *map(str, seeds), "--csv", csv_path],
                env,
            )
            attempted += GRID_CELLS
            ok = proc.returncode in (0, 1) and "simulated: 0," in proc.stdout
            try:
                with open(csv_path, encoding="utf-8") as fh:
                    ok = ok and fh.read().rstrip("\n") == reference.csv
            except OSError:
                ok = False
            if not ok:
                failed += GRID_CELLS
                failures.append(
                    f"fresh `repro figure4 --cache-dir` process {i} disagreed with "
                    f"the in-process grid (exit {proc.returncode})"
                )
        out.setup_times.append(ready)
        out.probe_reports.append(report)

    def one_pass(traced: Any) -> Pass:
        if cold:
            cache_dir = rundir.sub("cold-cache")
            shutil.rmtree(cache_dir, ignore_errors=True)
            p = cold_pass(rundir, cache_dir, seeds, traced)
            shutil.rmtree(cache_dir, ignore_errors=True)
            return p
        return grid_pass(warm_dir, seeds)

    if tracer is not None:
        # Untraced twins of the traced passes (a quarter of the run, at
        # least one pass), for the tracing overhead.
        twins: list[float] = []
        start = time.perf_counter()
        while not twins or time.perf_counter() - start < seconds / 4:
            twins.append(one_pass(None).wall_s)
        out.untraced_unit_s = median(twins)
        if not cold:
            import tracing

            tracing.install(tracer)

    # Whole passes until ``seconds`` have passed (at least one).  A cold
    # pass is most of that run length, so this measures one or two passes:
    # two keep a short slow spell of the host from being the whole sample.
    start = time.perf_counter()
    while True:
        p = one_pass(tracer)
        out.passes.append(p)
        attempted += p.cells
        if reference is None:
            reference = p
        bad = []
        if cold and p.simulated != GRID_CELLS:
            bad.append(f"simulated {p.simulated} of {GRID_CELLS} cells")
        if not cold and (p.cache_hits != GRID_CELLS or p.simulated):
            bad.append(f"warm pass: {p.cache_hits} hits, {p.simulated} simulated")
        if p.digest != reference.digest:
            bad.append(f"results digest {p.digest[:16]} != {reference.digest[:16]}")
        if p.csv != reference.csv:
            bad.append("normalized points differ from the first pass")
        if bad:
            failed += p.cells
            failures.append(f"pass {len(out.passes)}: " + "; ".join(bad))
        failed += _check_shape(p, seed, failures, f"pass {len(out.passes)}")
        if time.perf_counter() - start >= seconds:
            break
    out.attempted = attempted
    out.failed = failed
    return out


def end_to_end(kind: str, o: Fig4Outcome) -> dict[str, float]:
    cold = kind == "fig4_cold"
    # Every pass resolves the whole grid (checked in ``run``); the median
    # pass keeps a slow spell of the host from setting the figure.
    pass_s = median([p.wall_s for p in o.passes])
    speed, edp = o.passes[0].cata
    return {
        "setup_s": median(o.setup_times),
        "cells_per_s": GRID_CELLS / pass_s,
        # Cold passes run in their own processes, warm passes in this one.
        "peak_rss_mb": (
            max(p.peak_rss_mb for p in o.passes) if cold
            else common.peak_rss_mb(children=False)
        ),
        "max_rate_jobs_per_s": 1.0 / pass_s,
        "cata_speedup_8": speed,
        "cata_norm_edp_8": edp,
    }


def counters(o: Fig4Outcome) -> dict[str, int]:
    """Exact work counters of one pass (identical on every pass).

    Warm passes simulate nothing, so events fired and edges visited come
    from the cold pass that filled their cache.
    """
    if o.fill is None:
        return dict(o.passes[0].counters)
    return {**o.fill.counters, **o.passes[0].counters}


def _pass_main(argv: list[str]) -> int:
    cache_dir, traced, seeds = argv[0], argv[1] == "1", tuple(map(int, argv[2:]))
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    p = grid_pass(cache_dir, seeds)
    common.reap_children()
    p.peak_rss_mb = common.peak_rss_mb(children=True)
    print(json.dumps({
        "pass": dataclasses.asdict(p),
        "trace": tracer.state() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] != ["--pass"] or len(sys.argv) < 5:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(_pass_main(sys.argv[2:]))
