#!/usr/bin/env python3
"""The serp benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; serp is imported from ./src.
One closed-loop client runs one child process at a time.

--trace 0 measures set-up (fresh `serp verify` processes), then cycles
through the seed's jobs for S seconds, each job at least MIN_ROUNDS
times and each step a fresh process.  It reports setup_s (median wall
seconds of the set-up processes, which also run before every job,
scaled to the host speed at which calibrate.py takes
CALIBRATE_NOMINAL_S), job_ref and peak_rss_mb (median over jobs of the
largest max RSS of a step).  job_ref is the mean CPU seconds of a job's
processes over the mean CPU seconds of calibrate.py (its numpy loop for
NUMPY_REF workloads), which also runs before every job.  job_s, the
median wall time of a job, job_cpu_s, the median CPU seconds, and the
unscaled set-up time go to stderr.

--trace 1 runs each step of each of the seed's jobs in-process twice,
in fresh processes: once plain and once with spans around every layer's
public functions.  It reports the per-layer metrics and the trace overhead
(traced minus untraced in-process seconds), and fails if a layer the
workload exercises records no calls.

Every output is checked by check.py.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  With
--workload all a table of every workload is printed instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_RUNS = 3  # before the first job; one more runs before every job
MIN_ROUNDS = 2
STEP_TIMEOUT_S = 120
SETUP_ARGV = ["verify", "11", "3", "9", "99"]
CALIBRATE = [sys.executable, "-S", os.path.join(HERE, "calibrate.py")]
CALIBRATE_NUMPY = [sys.executable, os.path.join(HERE, "calibrate.py"), "numpy"]
# Workloads whose jobs are mostly numpy work take the numpy yardstick.
NUMPY_REF = ("density",)
# CPU seconds of calibrate.py on the host where the benchmark was defined,
# averaged over its fast and slow periods; setup_s is scaled to it.
CALIBRATE_NOMINAL_S = 0.2
# Bound environment variables would change what a job computes.
DROP_ENV = ("SERP_GAMMA_MAX", "SERP_DELTA_MAX")

END_TO_END = {"setup_s": "s", "job_ref": "ref", "peak_rss_mb": "MB"}

# name -> unit, in the order of BENCHMARK.json's per_layer list.
PER_LAYER = {
    "ed2.search.calls": "count", "ed2.search.self_s": "s", "ed2.deltas": "count",
    "ed2.witnesses": "count", "ed2.yield": "witness/delta",
    "ed1.search.calls": "count", "ed1.search.self_s": "s", "ed1.witnesses": "count",
    "arith.factorize.calls": "count", "arith.factorize.self_s": "s",
    "arith.is_prime.calls": "count", "arith.is_prime.self_s": "s",
    "explicit.calls": "count", "explicit.self_s": "s",
    "solution.verify.calls": "count", "solution.verify.self_s": "s",
    "cli.self_s": "s", "cli.out_bytes": "bytes",
    "kernels.prime_mask.calls": "count", "kernels.prime_mask.self_s": "s",
    "kernels.prime_mask.bytes_computed": "bytes",
    "kernels.class_primes.calls": "count", "kernels.class_primes.self_s": "s",
    "kernels.class_primes.found": "count",
    "sieve.average_local_params.self_s": "s", "sieve.moduli": "count",
    "sieve.reconstruct.calls": "count",
    "oracle.enumerate.calls": "count", "oracle.enumerate.self_s": "s",
    "oracle.solutions": "count",
    "tables.audit.self_s": "s", "tables.mismatch_rows": "count",
    "bridge.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}

# Span names (tracer.TARGETS) each workload must reach; zero calls to
# one of them means the trace lost a layer, and the run fails.
EXERCISED = {
    "decompose-all": ("cli", "ed2.search", "ed1.search", "arith.factorize",
                      "arith.is_prime", "solution.verify"),
    "scan": ("cli", "arith.is_prime", "explicit", "ed2.search", "solution.verify"),
    "density": ("cli", "kernels.prime_mask", "kernels.class_primes",
                "sieve.average_local_params", "sieve.reconstruct"),
    "audit": ("oracle.enumerate", "ed1.search", "ed2.search", "tables.audit",
              "bridge", "solution.verify", "arith.is_prime"),
}


class BenchError(Exception):
    """The benchmark cannot run or cannot trust its own measurement."""


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "numba_importable": have_numba,
        "SERP_NUMBA": os.environ.get("SERP_NUMBA"),
    }


def step_command(kind: str, args: list[str]) -> list[str]:
    if kind == "cli":
        return [sys.executable, "-m", "serp.cli", *args]
    return [sys.executable, os.path.join(HERE, "audit_job.py"), *args]


class Spawner:
    """Runs children one at a time through spawner.py, so that their max
    RSS does not include this process's own peak."""

    def __init__(self, root: str):
        self.env = {k: v for k, v in os.environ.items() if k not in DROP_ENV}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # One pair of output files per benchmark process.
        self.out = os.path.join(OUT_DIR, f"child-{os.getpid()}.out")
        self.err = os.path.join(OUT_DIR, f"child-{os.getpid()}.err")
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        for path in (self.out, self.err):
            if os.path.exists(path):
                os.remove(path)

    def run(self, cmd: list[str]) -> dict:
        """Wall and CPU seconds, exit code, max RSS, stdout and stderr tail."""
        out, err = self.out, self.err
        request = {"cmd": cmd, "env": self.env, "stdout": out, "stderr": err,
                   "timeout": STEP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("spawner.py stopped")
        result = json.loads(reply)
        with open(out, "rb") as f:
            result["stdout"] = f.read()
        with open(err, "rb") as f:
            result["stderr"] = f.read()[-2000:].decode(errors="replace")
        return result


def check_job(workload: str, seed: int, job: int, outs: list[bytes]) -> list[list[str]]:
    """The independent checks of check.py for job number `job` of
    workloads.jobs(workload, seed), as errors per step."""
    try:
        if workload == "decompose-all":
            return [check.check_decompose(workloads.decompose_primes(seed)[job], outs[0])]
        if workload == "scan":
            return [check.check_scan(*workloads.scan_window(seed), outs[0])]
        if workload == "density":
            errs = check.check_density(workloads.DENSITY_X, workloads.DENSITY_RMAX,
                                       workloads.density_delta(seed), *outs)
            return [errs, []]  # one check covers stats and sieve together
        primes = workloads.audit_primes(seed)[2 * job : 2 * job + 2]
        return [check.check_audit(primes, outs[0])]
    except (ValueError, KeyError, TypeError) as exc:
        return [[f"unreadable output: {exc!r}"] for _ in outs]


def recorded_digests(workload: str, seed: int) -> list[list[str]] | None:
    """Output digests per job and step, recorded at the default seed."""
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)[workload]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def item(self, errors: list[str], label: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors[:5]:
                print(f"FAILED {label}: {e}", file=sys.stderr)


def _job_errors(workload: str, seed: int, job: int, results: list[dict],
                reference: list[str] | None, expected: list[str] | None) -> list[list[str]]:
    """Errors per step.  A job's first run is checked in full; its later
    runs must repeat those digests.  At the default seed the digests must
    also match the recorded ones."""
    digests = [check.digest(r["stdout"]) for r in results]
    if reference is None:
        errors = check_job(workload, seed, job, [r["stdout"] for r in results])
    else:
        errors = [[] if d == ref else ["output differs from this job's first run"]
                  for d, ref in zip(digests, reference)]
    for i, (r, d) in enumerate(zip(results, digests)):
        if r["exit"] != 0:
            errors[i].append(f"exit code {r['exit']}: {r['stderr'].strip()[-300:]}")
        if expected is not None and d != expected[i]:
            errors[i].append(f"digest {d[:12]} differs from the recorded {expected[i][:12]}")
    return errors


def timed_run(workload: str, seed: int, seconds: float, spawner: Spawner) -> tuple[dict, dict]:
    """The result line, and the ungated medians job_s (wall seconds of a
    job), job_cpu_s (CPU seconds of a job's processes) and wall_setup_s."""
    tally = Tally()
    refs: list[float] = []  # pure-Python yardstick, for setup_s and most jobs
    job_refs = refs if workload not in NUMPY_REF else []

    def calibrate() -> None:
        runs = [(CALIBRATE, refs)]
        if job_refs is not refs:
            runs.append((CALIBRATE_NUMPY, job_refs))
        for cmd, samples in runs:
            r = spawner.run(cmd)
            if r["exit"] != 0:
                raise BenchError(f"calibrate.py failed: {r['stderr']}")
            samples.append(r["cpu_s"])

    setups: list[float] = []

    def set_up() -> None:
        r = spawner.run(step_command("cli", SETUP_ARGV))
        setups.append(r["seconds"])
        tally.item(([] if r["exit"] == 0 else ["exit code"]) + check.check_verify(r["stdout"]),
                   "setup")

    # Set-up and calibration samples are spread over the run, so that each
    # median sees the same mix of fast and slow host periods as the jobs.
    spawner.run(step_command("cli", SETUP_ARGV))  # writes bytecode caches; not timed
    for _ in range(SETUP_RUNS):
        set_up()
        calibrate()

    jobs = workloads.jobs(workload, seed)
    expected = recorded_digests(workload, seed)
    reference: dict[int, list[str]] = {}
    job_s, job_cpu_s, rss = [], [], []
    start = perf_counter()
    while True:
        j = len(job_s) % len(jobs)
        set_up()
        calibrate()
        t0 = perf_counter()
        results = [spawner.run(step_command(kind, args)) for kind, args in jobs[j]]
        job_s.append(perf_counter() - t0)
        job_cpu_s.append(sum(r["cpu_s"] for r in results))
        rss.append(max(r["rss_mb"] for r in results))
        errors = _job_errors(workload, seed, j, results, reference.get(j),
                             expected[j] if expected else None)
        for i, errs in enumerate(errors):
            tally.item(errs, f"{workload} job {j} step {i}")
        reference.setdefault(j, [check.digest(r["stdout"]) for r in results])
        # Run every job at least MIN_ROUNDS times; past that, start a job
        # only if it should end within the budget.
        if (len(job_s) >= MIN_ROUNDS * len(jobs)
                and perf_counter() - start + job_s[-1] > seconds):
            break
    print(f"{workload} seed {seed}: {len(job_s)} jobs; wall setup_s {statistics.median(setups):.4f}; "
          f"job_s {_rounded(job_s)}; "
          f"job_cpu_s {_rounded(job_cpu_s)}; ref_s {_rounded(job_refs)}; setup_s {_rounded(setups)}",
          file=sys.stderr)
    speed = CALIBRATE_NOMINAL_S / statistics.mean(refs)
    metrics = {
        "setup_s": statistics.median(setups) * speed,
        # Means, not medians: the host switches between a fast and a slow
        # state, and only a ratio of means cancels the run's mix of the two.
        "job_ref": statistics.mean(job_cpu_s) / statistics.mean(job_refs),
        "peak_rss_mb": statistics.median(rss),
    }
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }, {"job_s": statistics.median(job_s), "job_cpu_s": statistics.median(job_cpu_s),
        "wall_setup_s": statistics.median(setups)}


def _rounded(values: list[float]) -> list[float]:
    return [round(v, 3) for v in values]


def _in_process(spawner: Spawner, kind: str, args: list[str], traced: bool,
                spans: str | None, output: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "step.py"), "--traced", str(int(traced)),
           "--output", output]
    if spans:
        cmd += ["--spans", spans]
    r = spawner.run(cmd + [kind, *args])
    if r["exit"] != 0:
        raise BenchError(f"step.py failed ({r['exit']}): {r['stderr'].strip()[-500:]}")
    return json.loads(r["stdout"])


def traced_run(workload: str, seed: int, spawner: Spawner) -> tuple[dict, dict, float]:
    """Per-layer metrics over the seed's jobs, the self seconds per module
    and the traced in-process seconds."""
    tally = Tally()
    expected = recorded_digests(workload, seed)
    totals: dict = {}
    plain_s = traced_s = 0.0
    spans = 0
    for j, job in enumerate(workloads.jobs(workload, seed)):
        outs, step_errors = [], []
        for i, (kind, args) in enumerate(job):
            name = os.path.join(OUT_DIR, f"{workload}-seed{seed}-job{j}-step{i}")
            plain = _in_process(spawner, kind, args, False, None, name + ".out")
            traced = _in_process(spawner, kind, args, True, name + ".spans.tsv",
                                 name + ".traced.out")
            with open(name + ".out", "rb") as f:
                outs.append(f.read())
            plain_s += plain["seconds"]
            traced_s += traced["seconds"]
            spans += traced["spans"]
            errs = [] if traced["exit"] == plain["exit"] == 0 else ["non-zero exit"]
            if traced["digest"] != plain["digest"]:
                errs.append("traced output differs from the untraced output")
            if expected is not None and traced["digest"] != expected[j][i]:
                errs.append("traced output differs from the recorded digest")
            step_errors.append(errs)
            for k, v in traced["metrics"].items():
                totals[k] = totals.get(k, 0) + v
            if kind == "cli":
                totals["cli.out_bytes"] = totals.get("cli.out_bytes", 0) + traced["out_bytes"]
        for i, errs in enumerate(check_job(workload, seed, j, outs)):
            tally.item(step_errors[i] + errs, f"{workload} traced job {j} step {i}")
    missing = [n for n in EXERCISED[workload] if not totals.get(f"{n}.calls")]
    if missing:
        raise BenchError(f"{workload}: no calls recorded for {missing}; a wrapper missed them")
    totals["ed2.yield"] = totals.get("ed2.witnesses", 0) / totals["ed2.deltas"] if totals.get("ed2.deltas") else 0
    totals["trace.overhead_s"] = traced_s - plain_s
    totals["trace.spans"] = spans
    by_module: dict = {}
    for k, v in totals.items():
        if k.endswith(".self_s"):
            module = k.split(".")[0]
            by_module[module] = by_module.get(module, 0) + v
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": totals.get(k, 0), "unit": u} for k, u in PER_LAYER.items()},
    }
    return result, by_module, traced_s


def report(seed: int, seconds: float, trace: bool, spawner: Spawner) -> None:
    """Every workload in one table."""
    env = environment()
    print("environment: " + json.dumps(env))
    if trace:
        print(f"seed {seed}; self seconds by module, largest first")
        for w in workloads.WORKLOADS:
            result, by_module, traced_s = traced_run(w, seed, spawner)
            ranked = sorted(by_module.items(), key=lambda kv: -kv[1])
            shares = ", ".join(f"{k} {v:.2f} ({v / traced_s:.0%})" for k, v in ranked if v > 0.005)
            overhead = result["metrics"]["trace.overhead_s"]["value"]
            print(f"{w:14s} traced {traced_s:.2f} s, overhead {overhead:+.2f} s, "
                  f"failed {result['failed']}/{result['attempted']}: {shares}")
        return
    print(f"seed {seed}, {seconds:g} s per workload")
    print(f"{'workload':14s} {'setup_s':>10s} {'wall setup':>10s} {'job_s':>10s} {'job_cpu_s':>10s} "
          f"{'job_ref':>11s} {'peak_rss_mb':>12s} {'failed_frac':>12s}")
    for w in workloads.WORKLOADS:
        result, extra = timed_run(w, seed, seconds, spawner)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        frac = result["failed"] / result["attempted"]
        print(f"{w:14s} {m['setup_s']:8.3f} s {extra['wall_setup_s']:8.3f} s "
              f"{extra['job_s']:8.3f} s {extra['job_cpu_s']:8.3f} s "
              f"{m['job_ref']:7.2f} ref {m['peak_rss_mb']:9.1f} MB {frac:12.3f}  "
              f"({result['failed']}/{result['attempted']} items)")


def main() -> int:
    parser = argparse.ArgumentParser(description="serp benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "serp", "cli.py")):
        print("error: run from the root of a serp checkout (src/serp is missing)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        with Spawner(root) as spawner:
            if opts.workload == "all":
                report(opts.seed, opts.seconds, bool(opts.trace), spawner)
                return 0
            print("environment: " + json.dumps(environment()), file=sys.stderr)
            if opts.trace:
                result, by_module, _ = traced_run(opts.workload, opts.seed, spawner)
                print(f"self seconds by module: {json.dumps(by_module)}", file=sys.stderr)
            else:
                result, _ = timed_run(opts.workload, opts.seed, opts.seconds, spawner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
