"""Shared plumbing of the repository benchmark: paths, seeds, statistics.

Everything here is stdlib-only and importable before ``repro`` is on the
path, so ``run.py`` can refuse to start (non-zero exit, no result line)
in a directory that does not hold the program's sources.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from typing import Any, Iterable, Optional, Sequence

#: Directory holding this file (the benchmark's own package).
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Checkout root: the benchmark is run from there and never leaves it.
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Per-run scratch (cache dirs, service state, the run's TMPDIR).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Spans of traced runs, kept after the run ends.
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: Load comes from one process with at most this many workers/connections.
NPROC = 2

#: Paper-scale Figure 4 grid.
FIG4_WORKLOADS = (
    "blackscholes", "swaptions", "fluidanimate", "bodytrack", "dedup", "ferret",
)
FIG4_POLICIES = ("fifo", "cats_bl", "cats_sa", "cata")
FIG4_FAST = (8, 16, 24)

#: The workload seed whose cell seeds are the CLI default (1, 2, 3); the
#: paper's 18 shape claims must all hold there.
DEFAULT_SEED = 1

#: Paper-quoted CATA averages (EXPERIMENTS.md, Figure 4 table), as
#: fractional changes over FIFO.
PAPER_CATA_SPEEDUP = (0.159, 0.184)
PAPER_CATA_EDP = (-0.301, -0.254)
#: Exact work counters recorded at the default seed (see steadiness.py).
COUNTERS_FILE = os.path.join(BENCH_DIR, "counters.json")


def have_sources() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def cell_seeds(seed: int, count: int = 3) -> tuple[int, ...]:
    """Simulation seeds the workload seed picks: seed 1 -> (1, 2, 3)."""
    base = (seed - 1) % 1_000_000
    return tuple(base * count + i + 1 for i in range(count))


def derived_seed(seed: int, label: str) -> int:
    """Independent sub-stream seed for one use of the workload seed."""
    digest = hashlib.sha256(f"{seed}|{label}".encode("utf-8")).hexdigest()
    return int(digest[:12], 16)


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default method).

    Interpolating between the two nearest order statistics keeps a tail
    percentile of a few dozen samples from being one raw sample.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, plus its largest waited-for child, MiB."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def reap_children(timeout_s: float = 10.0) -> None:
    """Wait for this process's multiprocessing children (pool workers)."""
    import multiprocessing

    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)


def digest_lines(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class RunDir:
    """One run's private scratch directory with its own ``TMPDIR``.

    The content-addressed kernel ``.so`` cache lives under ``TMPDIR``, so
    a fresh ``RunDir`` starts with a cold kernel cache; set-up compiles it
    once (timed separately) and every later process of the run finds it
    warm.
    """

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        tag = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.path = os.path.join(WORK_ROOT, tag)
        shutil.rmtree(self.path, ignore_errors=True)
        self.tmp = os.path.join(self.path, "tmp")
        os.makedirs(self.tmp)

    def sub(self, name: str) -> str:
        return os.path.join(self.path, name)

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["TMPDIR"] = self.tmp
        env.pop("REPRO_ARRAY_KERNELS", None)
        return env

    def activate(self) -> None:
        """Point this process (and children it forks) at the run's TMPDIR."""
        import tempfile

        os.environ["TMPDIR"] = self.tmp
        os.environ.pop("REPRO_ARRAY_KERNELS", None)
        tempfile.tempdir = None
        if SRC not in sys.path:
            sys.path.insert(0, SRC)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def run_probe(
    args: Sequence[str], env: dict[str, str], timeout_s: float = 120.0
) -> tuple[float, dict[str, Any], subprocess.CompletedProcess]:
    """Run ``startup.py`` in a fresh interpreter.

    Returns ``(seconds from spawn to its READY line, the probe's own
    report, the completed process)``.  The READY line is read as it is
    printed, so work the probe does after it (a whole CLI command) is not
    part of the set-up time.
    """
    cmd = [sys.executable, os.path.join(BENCH_DIR, "startup.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    ready_s: Optional[float] = None
    report: dict[str, Any] = {}
    lines: list[str] = []
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if ready_s is None and line.startswith("READY "):
                ready_s = time.perf_counter() - t0
                report = json.loads(line[len("READY "):])
                continue
            lines.append(line)
        proc.wait(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    output = "".join(lines)
    done = subprocess.CompletedProcess(cmd, proc.returncode, output, "")
    if ready_s is None:
        raise RuntimeError(
            f"start-up probe {' '.join(args)} never became ready "
            f"(exit {proc.returncode}): {output.strip()[-400:]}"
        )
    return ready_s, report, done


def paper_lines(speedup: float, norm_edp: float, source: str) -> None:
    """Print the measured CATA ratios next to the paper's quoted ranges."""
    for name, value, (lo, hi), what in (
        ("cata_speedup_8", speedup, PAPER_CATA_SPEEDUP, "speedup over FIFO"),
        ("cata_norm_edp_8", norm_edp, PAPER_CATA_EDP, "EDP vs FIFO"),
    ):
        delta = value - 1.0
        gap = max(lo - delta, delta - hi, 0.0)
        log(
            f"paper  {name}: measured {delta * 100:+.1f}% {what} ({source}); "
            f"paper quotes {lo * 100:+.1f}% to {hi * 100:+.1f}% (EXPERIMENTS.md); "
            f"gap {gap * 100:.1f} pp outside the range"
        )
    log(
        "paper  the model is checked against the paper's shape claims only; "
        "these gaps are not an accuracy figure"
    )


def counter_drift(workload: str, counters: dict[str, float]) -> list[str]:
    """Differences between exact counters and their record in counters.json."""
    try:
        with open(COUNTERS_FILE, encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload)
    except (OSError, ValueError):
        recorded = None
    if recorded is None:
        return [f"no record for {workload}"]
    measured = {k: int(v) for k, v in counters.items()}
    return [
        f"{k}: {recorded.get(k)} -> {measured.get(k)}"
        for k in sorted(set(recorded) | set(measured))
        if recorded.get(k) != measured.get(k)
    ]


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def log(msg: str) -> None:
    print(msg, flush=True)
