"""Steadiness check of the benchmark: spreads, drift and exact counters.

Runs ``perfbench/run.py`` once per (set, workload, seed) with the
``run_seconds`` of ``BENCHMARK.json`` and checks, per workload:

* the spread of every end-to-end metric over the seeds -- (Q3 - Q1) /
  median, quartiles from ``statistics.quantiles(values, n=4)`` -- against
  its bound (``setup_s`` is reported, not gated);
* with ``--sets 2``, that the second set's median is not worse than the
  first's by more than the bound;
* that every exact work counter (``counter NAME VALUE`` lines) repeats
  exactly for the same seed across sets, that ``fig4_cold`` and
  ``fig4_warm`` print the same results digest for the same seed, and that
  every run is correct.

``--record`` instead runs each workload at the default seed and writes
its exact counters into ``perfbench/counters.json``, which every run at
the default seed is checked against.

Usage::

    python3 perfbench/steadiness.py --workloads fig4_warm --seeds 1 2 3 4 5
    python3 perfbench/steadiness.py --sets 2 --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/steadiness.py --record

Exits 1 when any check fails.  A report is written to
``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any

import common

BENCHMARK = os.path.join(common.ROOT, "BENCHMARK.json")
REPORT = os.path.join(common.OUT_ROOT, "steadiness.json")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    cmd = [
        sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    counters = {}
    for line in lines:
        if line.startswith("counter "):
            _, name, value = line.split()
            counters[name] = int(value)
        elif line.startswith("digest "):
            result["digest"] = line.split()[1]
        elif line.startswith("report "):
            _, name, _, value, *_ = line.split()
            result.setdefault("reported", {})[name] = float(value)
    result["counters"] = counters
    result["lines"] = lines
    result["exit"] = proc.returncode
    if proc.returncode != 0:
        result["tail"] = proc.stdout[-2000:] + proc.stderr[-2000:]
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    if args.record:
        path = os.path.join(common.BENCH_DIR, "counters.json")
        try:
            with open(path, encoding="utf-8") as fh:
                recorded = json.load(fh)
        except OSError:
            recorded = {}
        for w in workloads:
            r = run_once(w, common.DEFAULT_SEED, seconds, 0)
            # Any failure but the comparison with the old record is real.
            if r["exit"] not in (0, 1) or any(
                line.startswith("FAILED: ")
                and not line.startswith("FAILED: exact counters differ")
                for line in r["lines"]
            ):
                print(f"{w}: run failed\n{r.get('tail', '')}")
                return 1
            recorded[w] = r["counters"]
            print(f"{w}: {r['counters']}", flush=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
        return 0

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    runs: dict[tuple[int, str, int], dict[str, Any]] = {}
    ok = True
    for s in range(args.sets):
        for w in workloads:
            for seed in args.seeds:
                r = run_once(w, seed, seconds, 0)
                runs[(s, w, seed)] = r
                vals = " ".join(
                    f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items())
                )
                print(f"set {s} {w} seed {seed}: correct={r.get('correct')} "
                      f"exit={r['exit']} {vals}", flush=True)
                if not r.get("correct") or r["exit"] != 0:
                    ok = False
                    print(r.get("tail", ""))
    report: dict[str, Any] = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for w in workloads:
        rows = {}
        medians: list[dict[str, float]] = []
        for s in range(args.sets):
            med = {}
            for name, spec in bounds.items():
                values = [runs[(s, w, seed)]["metrics"].get(name, {}).get("value")
                          for seed in args.seeds]
                if any(v is None for v in values):
                    ok = False
                    rows[f"{name}[{s}]"] = "missing"
                    continue
                sp = spread(values)
                med[name] = statistics.median(values)
                gated = name != "setup_s"
                status = "ok"
                if gated and sp > spec["bound"]:
                    status, ok = "SPREAD>bound", False
                elif gated and sp > spec["bound"] / 3:
                    status = "spread>bound/3"
                rows[f"{name}[{s}]"] = {
                    "median": med[name], "spread": sp, "bound": spec["bound"],
                    "status": status,
                }
                print(f"{w:18s} set {s} {name:22s} median {med[name]:.5g} "
                      f"spread {sp:.4f} bound {spec['bound']} {status}")
            medians.append(med)
            for name in sorted(runs[(s, w, args.seeds[0])].get("reported", {})):
                values = [runs[(s, w, seed)].get("reported", {}).get(name)
                          for seed in args.seeds]
                if None not in values:
                    rows[f"{name}[{s}]"] = {"median": statistics.median(values),
                                            "spread": spread(values), "gated": False}
                    print(f"{w:18s} set {s} {name:22s} median "
                          f"{statistics.median(values):.5g} spread "
                          f"{spread(values):.4f} (reported, not gated)")
        if args.sets > 1:
            for name, spec in bounds.items():
                if name not in medians[0] or name not in medians[-1]:
                    continue
                drift = worse_by(medians[0][name], medians[-1][name], spec["better"])
                status = "ok" if drift <= spec["bound"] else "DRIFT>bound"
                if status != "ok":
                    ok = False
                rows[f"{name}.drift"] = {"worse_by": drift, "status": status}
                print(f"{w:18s} drift {name:22s} {drift:+.4f} {status}")
            for seed in args.seeds:
                first = runs[(0, w, seed)]["counters"]
                for s in range(1, args.sets):
                    other = runs[(s, w, seed)]["counters"]
                    if first != other:
                        ok = False
                        rows[f"counters.seed{seed}"] = {"first": first, "other": other}
                        print(f"{w} seed {seed}: COUNTERS DIFFER {first} vs {other}")
        report["workloads"][w] = rows
    if {"fig4_cold", "fig4_warm"} <= set(workloads):
        for s in range(args.sets):
            for seed in args.seeds:
                cold = runs[(s, "fig4_cold", seed)].get("digest")
                warm = runs[(s, "fig4_warm", seed)].get("digest")
                if cold != warm:
                    ok = False
                    print(f"seed {seed}: fig4_cold digest {cold} != fig4_warm {warm}")
    report["ok"] = ok
    os.makedirs(common.OUT_ROOT, exist_ok=True)
    with open(REPORT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print("steadiness: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
