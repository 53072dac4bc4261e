"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/traced_serve.py OUT.json serve [serve flags]``
(with ``src`` on ``PYTHONPATH``).  The spans, counters and samples stay in
memory while the daemon serves and are written to ``OUT.json`` once it
has drained and returned.
"""

from __future__ import annotations

import json
import sys

import tracing


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import repro.cli

    code = repro.cli.main(cli_args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.state(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
