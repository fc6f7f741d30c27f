"""Tests of the benchmark's own parts: seeded inputs, the independent
checker and the tracer's alias patching."""

import json
import os
import subprocess
import sys

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        for seed in (0, 1, 7):
            assert workloads.jobs(w, seed) == workloads.jobs(w, seed)
        assert workloads.jobs(w, 0) != workloads.jobs(w, 1)
    assert len({workloads.density_delta(s) for s in range(20)}) == 3


def test_inputs_stay_in_their_ranges():
    for seed in range(10):
        for P in workloads.decompose_primes(seed):
            assert workloads.is_prime(P) and P % 5 == 1 and 10**6 <= P < 1_051_000
        lo, hi = workloads.scan_window(seed)
        assert 600_000 <= lo and hi < 10**6
        primes = workloads.audit_primes(seed)
        assert len(set(primes)) == 4
        for P in primes:
            assert workloads.is_prime(P) and P % 5 == 1 and 3000 <= P <= 6000
        for P1, P2 in zip(primes[::2], primes[1::2]):
            assert abs(P1 * P1 + P2 * P2 - workloads.AUDIT_SQ) < 0.02 * workloads.AUDIT_SQ


def test_divisor_enumeration_matches_known_counts():
    # Solution counts of the range-scan oracle at these primes.
    assert len(check.enumerate_solutions(3511)) == 49
    assert (8, 31, 248) in check.enumerate_solutions(31)


def test_check_triple_rejects_bad_records():
    good = {"P": 11, "A": 3, "B": 9, "C": 99, "class": "ED1"}
    assert check.check_triple(good) is None
    assert check.check_triple({**good, "C": 98})
    assert check.check_triple({**good, "class": "ED2"})
    assert check.check_triple({"P": 11, "A": 3, "B": 99, "C": 9, "class": "ED1"})


def test_traced_step_reaches_aliased_functions(tmp_path):
    # cli imports is_prime and verify_solution by name; both must be seen.
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "step.py"), "--traced", "1",
         "--output", str(tmp_path / "out"), "cli", "verify", "11", "3", "9", "99"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    result = json.loads(out.stdout)
    assert result["exit"] == 0
    assert check.check_verify((tmp_path / "out").read_bytes()) == []
    for name in ("cli", "arith.is_prime", "solution.verify"):
        assert result["metrics"][f"{name}.calls"] >= 1


def test_benchmark_json_names_the_reported_metrics():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
