"""Start-up probe, run in a fresh interpreter by the benchmark.

Prints one ``READY {json}`` line the moment the process is ready for work;
the parent times spawn -> READY as ``setup_s``.  Modes:

``--compile``        load the kernels into an empty ``TMPDIR`` (compiles
                     the ``.so``) and report how long that took
``--pool N``         import ``repro.cli``, load the (already compiled)
                     kernels, start an N-worker process pool and wait until
                     every worker has answered
``--import``         import ``repro.cli`` and load the kernels
``--cli ARGS...``    import ``repro.cli``, load the kernels, print READY,
                     then run ``repro ARGS...`` in this process and exit
                     with its code

Usage: ``python3 perfbench/startup.py --pool 2`` (with ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import json
import os
import sys
import time


def _noop(_: int) -> int:
    return os.getpid()


def _ready(report: dict) -> None:
    print("READY " + json.dumps(report, sort_keys=True), flush=True)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    mode = argv[0]
    t0 = time.perf_counter()
    if mode == "--compile":
        from repro.sim.arrays import native_enabled

        native = native_enabled()
        _ready({"compile_s": time.perf_counter() - t0, "native": native})
        return 0
    import repro.cli

    t1 = time.perf_counter()
    from repro.sim.arrays import native_enabled

    native = native_enabled()
    t2 = time.perf_counter()
    report = {"import_s": t1 - t0, "load_s": t2 - t1, "native": native}
    if mode == "--pool":
        from concurrent.futures import ProcessPoolExecutor

        workers = int(argv[1])
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pids = set(pool.map(_noop, range(workers * 4)))
            report["pool_s"] = time.perf_counter() - t2
            report["pool_workers"] = len(pids)
            _ready(report)
        return 0
    if mode == "--import":
        _ready(report)
        return 0
    if mode == "--cli":
        _ready(report)
        return repro.cli.main(argv[1:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
