"""Seeded workload inputs and the jobs built from them.

Every input is a pure function of (workload, seed).  A job is a list of
steps; each step is one fresh process:

  ("cli", argv)     python3 -m serp.cli <argv...>
  ("audit", primes) python3 perfbench/audit_job.py <primes...>

The inputs are drawn so that the cost of a job varies little from seed
to seed, because the benchmark compares medians taken over different
seeds.  The reasons are given next to each generator.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("decompose-all", "scan", "density", "audit")
DEFAULT_SEED = 0

DENSITY_X = 10**7
DENSITY_RMAX = 256
SCAN_WIDTH = 200_000


def is_prime(n: int) -> bool:
    """Trial division; the inputs here stay below 1.1e6."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for p in range(3, math.isqrt(n) + 1, 2):
        if n % p == 0:
            return False
    return True


def next_prime_1mod5(n: int) -> int:
    """Smallest prime P >= n with P = 1 (mod 5)."""
    n += (1 - n) % 5
    while not is_prime(n):
        n += 5
    return n


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def decompose_primes(seed: int) -> list[int]:
    """Two distinct primes = 1 (mod 5) in [1e6, 1.05e6).

    The ED2 scan, over 90% of the loop iterations, costs the same for
    every P of this size; the ED1 trial divisions vary by a few percent.
    """
    rng = _rng("decompose-all", seed)
    primes: list[int] = []
    while len(primes) < 2:
        P = next_prime_1mod5(rng.randrange(1_000_000, 1_050_000))
        if P not in primes:
            primes.append(P)
    return primes


def scan_window(seed: int) -> tuple[int, int]:
    """A window of SCAN_WIDTH integers starting in [6e5, 8e5).

    Prime density changes by about 4% across these windows, so the
    number of primes decomposed stays close to 15k.
    """
    start = _rng("scan", seed).randrange(600_000, 800_000)
    return start, start + SCAN_WIDTH


def density_delta(seed: int) -> int:
    """delta in {1, 5, 25}.

    Each has the same admissible moduli r <= 256 (gcd(r, 5*delta) = 1
    holds for every r = 4 (mod 5) when delta is a power of 5), so the
    sieve does the same amount of work, over different classes.
    """
    return _rng("density", seed).choice((1, 5, 25))


# Oracle cost grows like P^2; pairing P1 with P2 ~ sqrt(AUDIT_SQ - P1^2)
# keeps the summed cost of a pair the same for every seed.
AUDIT_SQ = 3000**2 + 6000**2


def audit_primes(seed: int) -> list[int]:
    """Two pairs of primes = 1 (mod 5) in [3000, 6000], as
    [P1, P2, P3, P4] with P1^2 + P2^2 ~ P3^2 + P4^2 ~ AUDIT_SQ."""
    rng = _rng("audit", seed)
    small = [p for p in range(3001, 4700, 5) if is_prime(p)]
    out: list[int] = []
    while len(out) < 4:
        P1 = rng.choice(small)
        target = math.isqrt(AUDIT_SQ - P1 * P1)
        P2 = min(next_prime_1mod5(target - 40), 5981)  # the largest such prime below 6000
        if P1 not in out and P2 not in out:
            out += [P1, P2]
    return out


def jobs(workload: str, seed: int) -> list[list[tuple[str, list[str]]]]:
    """The jobs a run cycles through, each a list of steps, each step a
    fresh process.  Every job of one workload costs about the same."""
    if workload == "decompose-all":
        return [[("cli", ["decompose", str(P), "--all"])] for P in decompose_primes(seed)]
    if workload == "scan":
        lo, hi = scan_window(seed)
        return [[("cli", ["scan", "--from", str(lo), "--to", str(hi)])]]
    if workload == "density":
        d = str(density_delta(seed))
        return [[
            ("cli", ["stats", "--x", str(DENSITY_X), "--rmax", str(DENSITY_RMAX), "--delta", d]),
            ("cli", ["sieve", "--delta", d, "--rmax", str(DENSITY_RMAX), "--xmax", str(DENSITY_X)]),
        ]]
    if workload == "audit":
        primes = [str(P) for P in audit_primes(seed)]
        return [[("audit", primes[i : i + 2])] for i in (0, 2)]
    raise ValueError(f"unknown workload {workload!r}")
