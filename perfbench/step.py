#!/usr/bin/env python3
"""Run one job step in this process, with or without spans.

    python3 perfbench/step.py --traced 0|1 --output FILE [--spans FILE] cli <argv...>
    python3 perfbench/step.py --traced 0|1 --output FILE [--spans FILE] audit <P...>

The step is the same call a fresh `python3 -m serp.cli <argv>` or
`python3 perfbench/audit_job.py <P...>` process makes, timed from the
call to its return, so the traced and untraced timings differ only by
the spans.  Writes the output to --output and prints one JSON object:
seconds, exit code, output digest, output bytes, span count and, when
traced, the per-span metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from time import perf_counter

import check
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--output", required=True, help="file for the step's output")
    parser.add_argument("--spans", help="file for the spans")
    parser.add_argument("kind", choices=("cli", "audit"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    import serp.cli
    import audit_job

    tracer = Tracer()
    if opts.traced:
        tracer.install()
    out = io.StringIO()
    start = perf_counter()
    if opts.kind == "cli":
        code = serp.cli.main(opts.args, out=out)
    else:
        code = audit_job.run([int(a) for a in opts.args], out)
    seconds = perf_counter() - start
    stdout = out.getvalue().encode()
    with open(opts.output, "wb") as f:
        f.write(stdout)
    if opts.spans:
        tracer.write_spans(opts.spans)
    json.dump({
        "seconds": seconds,
        "exit": code,
        "digest": check.digest(stdout),
        "out_bytes": len(stdout),
        "spans": len(tracer.spans),
        "metrics": tracer.metrics(),
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
