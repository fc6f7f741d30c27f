#!/usr/bin/env python3
"""Audit driver for the `audit` workload.

For each prime P given on the command line it enumerates every solution
with the brute-force oracle, runs the ED1 and ED2 engines with their
default bounds, and checks that every engine solution is in the oracle
set.  It then audits all six published tables.  One JSON line per
oracle solution, engine solution and table row goes to stdout.

Usage (with the package's src directory on PYTHONPATH):
    python3 perfbench/audit_job.py P [P ...]

Exit code 0, or 1 when an engine solution is missing from the oracle.
"""

from __future__ import annotations

import json
import sys

from serp.ed1 import default_gamma_max, ed1_reconstruct, ed1_search
from serp.ed2 import default_delta_max, ed2_reconstruct, ed2_search
from serp.oracle import enumerate_all_solutions
from serp.tables import TABLE_IDS, audit_table


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def run(primes: list[int], out) -> int:
    missing = 0
    for P in primes:
        oracle = enumerate_all_solutions(P)
        known = {s.triple() for s in oracle.solutions}
        for sol in oracle.solutions:
            out.write(_line({"source": "oracle", **sol.as_dict()}))
        engines = [("ed1", ed1_reconstruct(w)) for w in ed1_search(P, default_gamma_max(P))]
        engines += [("ed2", ed2_reconstruct(w)) for w in ed2_search(P, default_delta_max(P))]
        for source, sol in engines:
            contained = sol.triple() in known
            missing += not contained
            out.write(_line({"source": source, "in_oracle": contained, **sol.as_dict()}))
    for table_id in TABLE_IDS:
        for e in audit_table(table_id):
            out.write(_line({
                "table": e.table_id,
                "row": e.row,
                "status": e.status,
                "mismatched_columns": list(e.mismatched_columns),
                "xy_lemma_ok": e.xy_lemma_ok,
            }))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(run([int(a) for a in sys.argv[1:]], sys.stdout))
