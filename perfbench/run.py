"""Repository benchmark: paper-scale Figure 4 sweeps and the sweep service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig4_cold --seed 1 --seconds 15 --trace 0

Workloads: ``fig4_cold``, ``fig4_warm``, ``service_openloop`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the same work with spans around every layer boundary
and prints the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common
from common import DEFAULT_SEED, RunDir, log, metric, run_probe
from metrics import END_TO_END, PER_LAYER, REPORTED, layer_metrics

WORKLOADS = ("fig4_cold", "fig4_warm", "service_openloop")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_sources():
        print(
            f"perfbench: no program sources under {common.SRC}; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2

    trace = bool(args.trace)
    rundir = RunDir(args.workload, args.seed, trace)
    try:
        rundir.activate()
        # One-time kernel compile into the run's empty TMPDIR; every later
        # process of this run finds the .so warm.
        _, compiled, _ = run_probe(["--compile"], rundir.env())
        compile_s = compiled["compile_s"]
        from repro.sim.arrays import native_enabled

        native = native_enabled()
        log(
            f"set-up: workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace} "
            f"kernels={'native' if native else 'python'} compile {compile_s:.3f}s"
        )
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()
        if args.workload.startswith("fig4"):
            result = _run_fig4(args, rundir, compile_s, tracer)
        else:
            result = _run_service(args, rundir, compile_s, tracer)
    finally:
        common.reap_children()
        rundir.close()
    attempted, failed, values, failures, counters = result
    for name in sorted(counters):
        log(f"counter {name} {int(counters[name])}")
    if args.seed == DEFAULT_SEED:
        # The exact counters are deterministic: at the default seed they
        # must equal the record, or the program did different work.
        attempted += 1
        drift = common.counter_drift(args.workload, counters)
        if drift:
            failed += 1
            failures.append(
                "exact counters differ from perfbench/counters.json: "
                + "; ".join(drift)
                + " (if the program's work changed on purpose, re-record with "
                "`python3 perfbench/steadiness.py --record`)"
            )
        else:
            log("counters match perfbench/counters.json")
    correct = not failures
    units = PER_LAYER if trace else END_TO_END
    for name, unit in units.items():
        log(f"metric {name} = {values[name]:.6g} {unit}")
    if not trace and args.workload == "service_openloop":
        for name, unit in REPORTED.items():
            log(f"report {name} = {values[name]:.6g} {unit} (not gated)")
    log(
        f"failed_frac = {failed}/{attempted} = "
        f"{failed / attempted if attempted else 0.0:.4f}"
    )
    for failure in failures:
        log(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: metric(values[n], u) for n, u in units.items()},
            },
            sort_keys=True,
        ),
        flush=True,
    )
    return 0 if correct else 1


def _run_fig4(args, rundir, compile_s, tracer):
    import fig4

    o = fig4.run(args.workload, args.seed, args.seconds, rundir, tracer)
    values = fig4.end_to_end(args.workload, o)
    log(f"passes {len(o.passes)}, pass wall "
        + ", ".join(f"{p.wall_s:.3f}" for p in o.passes) + " s")
    p0 = o.passes[0]
    log(f"shape checks {p0.shape_checks - len(p0.shape_violations)}/{p0.shape_checks}")
    log(f"digest {p0.digest}")
    common.paper_lines(values["cata_speedup_8"], values["cata_norm_edp_8"],
                       "Figure 4 grid")
    if tracer is not None:
        state = tracer.state()
        traced = common.median([p.wall_s for p in o.passes])
        overhead = traced / o.untraced_unit_s - 1.0 if o.untraced_unit_s else 0.0
        log(
            f"tracing overhead: traced pass {traced:.3f}s vs untraced "
            f"{o.untraced_unit_s:.3f}s ({overhead * 100:+.1f}%)"
        )
        values = layer_metrics(state, o.probe_reports, compile_s, overhead)
        out = os.path.join(
            common.OUT_ROOT, f"spans-{args.workload}-s{args.seed}.jsonl"
        )
        tracer.dump(out)
        log(f"wrote {len(state['spans'])} spans to {os.path.relpath(out, common.ROOT)}")
    return (o.attempted, o.failed, values, o.failures, fig4.counters(o))


def _run_service(args, rundir, compile_s, tracer):
    import service

    return service.run_and_report(args, rundir, compile_s, tracer)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
