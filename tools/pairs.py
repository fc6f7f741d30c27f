"""Alternating paired runs of the benchmark at two revisions.

    python tools/pairs.py PARENT CHANGE --workload W [--seed S] [--pairs N] [--seconds S]

`git archive`s each revision into its own temporary directory and runs
`perfbench/run.py --workload W --seed S --seconds S` there, N times per
side and one run at a time.  The parent runs first in the first pair,
the change in the second, and so on.  For each end-to-end metric of the
change's BENCHMARK.json it then prints each side's values, median and
quartiles, the change's wins (a pair whose values are equal counts for
neither side) and the change's median against the parent's interquartile
range; then each side's failed counts.  The directories are removed when
done.  Exit status 1 when a run of the benchmark fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[str]:
    """The report's lines for two sides' result records of perfbench/run.py,
    paired by position; metrics are BENCHMARK.json's end_to_end entries."""
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {"parent": [r["metrics"][name]["value"] for r in parent],
                 "change": [r["metrics"][name]["value"] for r in change]}
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better)")
        stats = {}
        for side, values in sides.items():
            stats[side] = q1, median, q3 = quartiles(values)
            shown = " ".join(f"{v:.3f}" for v in values)
            lines.append(f"  {side:6s} {shown}   median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}")
        pairs = list(zip(sides["parent"], sides["change"]))
        wins = sum(c < p if lower else c > p for p, c in pairs)
        ties = sum(c == p for p, c in pairs)
        (p1, p_median, p3), c_median = stats["parent"], stats["change"][1]
        lines.append(f"  change better in {wins} of {len(pairs)} pairs ({ties} tied); "
                     f"median {c_median - p_median:+.3f} ({c_median / p_median - 1:+.1%}) "
                     f"against the parent's interquartile range {p3 - p1:.3f}")
    for side, records in (("parent", parent), ("change", change)):
        failed = " ".join(f"{r['failed']}/{r['attempted']}" for r in records)
        lines.append(f"failed {side}: {failed}")
    return lines


def archive(rev: str, into: str) -> None:
    """Extract the files of revision rev into the directory into."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=tar, check=True)


def bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One run of perfbench/run.py in checkout: its result record."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: perfbench/run.py exited {done.returncode} in {checkout}:\n"
                         f"{done.stderr.strip()[-1000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="alternating paired benchmark runs")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    opts = parser.parse_args(argv)
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        dirs = {side: str(Path(tmp) / side) for side in results}
        for side, rev in (("parent", opts.parent), ("change", opts.change)):
            Path(dirs[side]).mkdir()
            archive(rev, dirs[side])
        with open(Path(dirs["change"]) / "BENCHMARK.json") as f:
            metrics = json.load(f)["end_to_end"]
        for i in range(opts.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                record = bench(dirs[side], opts.workload, opts.seed, opts.seconds)
                results[side].append(record)
                values = ", ".join(f"{k} {v['value']:.3f}" for k, v in record["metrics"].items())
                print(f"pair {i + 1}/{opts.pairs} {side}: {values}, failed {record['failed']}",
                      file=sys.stderr)
    print(f"{opts.workload} seed {opts.seed}, {opts.pairs} pairs of {opts.seconds:g} s: "
          f"parent {opts.parent}, change {opts.change}")
    print("\n".join(summarize(results["parent"], results["change"], metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
