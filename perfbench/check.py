"""Independent checks of the program's output.

Nothing here imports serp: triples are re-verified with this module's
own Fraction arithmetic, primes come from this module's own sieve, and
the audit's oracle is compared against a separate divisor-based
enumeration.  Each check returns a list of error strings; empty means
the output is correct.  Output that does not parse raises ValueError,
KeyError or TypeError.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# Published-table verdicts as (row, status, mismatched columns).  The
# Mismatch rows are errata in the source tables: expected output.
EXPECTED_VERDICTS = {
    "31": [(1, "Match", []), (2, "Match", [])],
    "41": [(1, "Mismatch", ["delta", "A"])],
    "73": [(1, "Match", []), (2, "Match", []), (3, "Match", []), (4, "Match", [])],
    "97": [(1, "Match", [])],
    "2521": [
        (1, "Mismatch", []),
        (2, "Mismatch", ["alpha", "bprime", "cprime", "g", "b", "c", "delta", "X", "Y", "N", "A"]),
        (3, "Match", []),
        (4, "Match", []),
        (5, "Mismatch", ["alpha", "bprime", "cprime", "g", "c", "delta", "dprime"]),
    ],
    "3511": [(i, "Match", []) for i in range(1, 7)],
}


def digest(stdout: bytes) -> str:
    """SHA-256 of the output's lines, sorted."""
    lines = sorted(line for line in stdout.decode().splitlines() if line)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def prime_sieve(limit: int) -> bytearray:
    """sieve[n] == 1 iff n is prime, for 0 <= n <= limit."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return sieve


def primes_between(lo: int, hi: int) -> list[int]:
    sieve = prime_sieve(hi)
    return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]


def is_solution(P: int, A: int, B: int, C: int) -> bool:
    return min(A, B, C) >= 1 and Fraction(1, A) + Fraction(1, B) + Fraction(1, C) == Fraction(5, P)


def check_triple(rec: dict) -> str | None:
    """Exact equation, A < B < C, and P's multiplicity against the label:
    ED1 has one multiple of P, ED2 two, Explicit one or two, never A."""
    P, A, B, C = rec["P"], rec["A"], rec["B"], rec["C"]
    if not is_solution(P, A, B, C):
        return f"{(P, A, B, C)} is not a solution"
    if not A < B < C:
        return f"{(P, A, B, C)} is not strictly increasing"
    mult = (B % P == 0) + (C % P == 0)
    allowed = {"ED1": {1}, "ED2": {2}, "Explicit": {1, 2}}.get(rec["class"], set())
    if A % P == 0 or mult not in allowed:
        return f"{(P, A, B, C)} has {mult} multiples of P but class {rec['class']}"
    return None


def _records(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.decode().splitlines() if line]


def check_decompose(P: int, stdout: bytes) -> list[str]:
    recs = _records(stdout)
    errors = [e for e in map(check_triple, recs) if e]
    if not recs:
        errors.append(f"no solution for P = {P}")
    if any(r["P"] != P for r in recs):
        errors.append(f"a record for another prime than {P}")
    if len({(r["A"], r["B"], r["C"]) for r in recs}) != len(recs):
        errors.append("duplicate triples")
    return errors


def check_scan(lo: int, hi: int, stdout: bytes) -> list[str]:
    recs = _records(stdout)
    errors = [e for e in map(check_triple, recs) if e]
    want = [p for p in primes_between(lo, hi) if p != 5]
    if sorted(r["P"] for r in recs) != want:
        errors.append(f"scan output does not hold exactly one solution per prime in [{lo}, {hi}]")
    return errors


def _phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    return out - out // m if m > 1 else out


def _admissible(R: int, delta: int) -> list[int]:
    return [r for r in range(4, R + 1, 5) if math.gcd(r, 5 * delta) == 1]


def check_density(x: int, R: int, delta: int, stats_out: bytes, sieve_out: bytes) -> list[str]:
    """stats against an own sieve and exact sums; sieve rows against stats."""
    errors: list[str] = []
    sieve = prime_sieve(x)
    (stats,) = _records(stats_out)
    moduli = _admissible(R, delta)
    primes1 = [n for n in range(1, x + 1, 5) if sieve[n]]
    if stats["prime_count"] != len(primes1):
        errors.append(f"prime_count {stats['prime_count']} != {len(primes1)}")
    classes = stats["classes"]
    if [c["r"] for c in classes] != moduli:
        errors.append("stats classes are not the admissible moduli")
        return errors
    for c in classes:
        r, res, mod = c["r"], c["residue"], c["modulus"]
        if mod != 5 * r or res % 5 != 1 or (5 * delta * res + 1) % r:
            errors.append(f"class r = {r} has a wrong residue {res} (mod {mod})")
        elif c["primes_found"] != sieve[res::mod].count(1):
            errors.append(f"class r = {r}: primes_found {c['primes_found']} is wrong")
    n_of_p = {int(p): n for p, n in stats["n_of_p"].items()}
    if sorted(n_of_p) != primes1:
        errors.append("n_of_p is not keyed by the primes = 1 (mod 5) up to x")
    # Each prime in class r adds one to N(P), so the counts must agree in total.
    total = sum(c["primes_found"] for c in classes)
    if sum(n_of_p.values()) != total:
        errors.append("sum of N(P) differs from the summed class counts")
    elif primes1 and Fraction(stats["average"]) != Fraction(total, len(primes1)):
        errors.append(f"average {stats['average']} is wrong")
    for P in primes1[:: max(1, len(primes1) // 500)]:
        if n_of_p.get(P) != sum((5 * P * delta + 1) % r == 0 for r in moduli):
            errors.append(f"N({P}) is wrong")
            break
    if Fraction(stats["phi_sum"]) != sum(Fraction(1, _phi(5 * r)) for r in moduli):
        errors.append("phi_sum is wrong")
    if stats["exceptional"] != [c["r"] for c in classes if c["primes_found"] == 0]:
        errors.append("exceptional moduli are wrong")

    rows = _records(sieve_out)
    by_r = {c["r"]: c for c in classes}
    if [row["r"] for row in rows] != moduli:
        errors.append("sieve rows are not the admissible moduli")
        return errors
    for row in rows:
        c = by_r[row["r"]]
        if (row["residue"], row["modulus"], row["primes_found"]) != (
            c["residue"], c["modulus"], c["primes_found"]
        ):
            errors.append(f"sieve row r = {row['r']} disagrees with stats")
            continue
        first = next((n for n in range(c["residue"], x + 1, c["modulus"]) if sieve[n]), None)
        if row["first_prime"] != first:
            errors.append(f"sieve row r = {row['r']}: first_prime {row['first_prime']} != {first}")
        sol = row["first_solution"]
        if sol is not None:
            err = check_triple(sol)
            if err or sol["P"] != first or sol["class"] != "ED2":
                errors.append(f"sieve row r = {row['r']}: bad first_solution: {err}")
        elif delta == 1 and first is not None:
            errors.append(f"sieve row r = {row['r']}: delta = 1 always reconstructs")
    return errors


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def enumerate_solutions(P: int) -> set[tuple[int, int, int]]:
    """Every (A, B, C) with A < B < C and 5/P = 1/A + 1/B + 1/C.

    With n/d = 5/P - 1/A in lowest terms, 1/B + 1/C = n/d is the same as
    (nB - d)(nC - d) = d^2, so each solution is a divisor x <= d of d^2
    with x = -d (mod n).  This is a different method from the program's
    range-scan oracle, so the two can check each other.
    """
    out = set()
    for A in range(P // 5 + 1, (3 * P - 1) // 5 + 1):
        n, d = 5 * A - P, A * P
        g = math.gcd(n, d)
        n, d = n // g, d // g
        fact = _factor(A)
        fact[P] = fact.get(P, 0) + 1
        divs = [1]
        for p, e in fact.items():
            if d % p:
                continue
            k = 0
            while d % p ** (k + 1) == 0:
                k += 1
            divs = [v * p**i for v in divs for i in range(2 * k + 1)]
        for x in divs:
            if x >= d or (x + d) % n:
                continue
            y = d * d // x
            if (y + d) % n:
                continue
            B, C = (x + d) // n, (y + d) // n
            if A < B:
                out.add((A, B, C))
    return out


def check_audit(primes: list[int], stdout: bytes) -> list[str]:
    """Triples, engine containment, the oracle against
    enumerate_solutions, and the table verdicts."""
    errors: list[str] = []
    recs = _records(stdout)
    verdicts: dict[str, list] = {}
    oracle: dict[int, set] = {P: set() for P in primes}
    engines = []
    for rec in recs:
        if "table" in rec:
            verdicts.setdefault(rec["table"], []).append(
                (rec["row"], rec["status"], rec["mismatched_columns"])
            )
            continue
        err = check_triple(rec)
        if err:
            errors.append(err)
        if rec["P"] not in oracle:
            errors.append(f"record for unexpected prime {rec['P']}")
        elif rec["source"] == "oracle":
            oracle[rec["P"]].add((rec["A"], rec["B"], rec["C"]))
        else:
            engines.append(rec)
    for rec in engines:
        if (rec["A"], rec["B"], rec["C"]) not in oracle[rec["P"]] or not rec["in_oracle"]:
            errors.append(f"{rec['source']} solution {(rec['A'], rec['B'], rec['C'])} not in the oracle set")
    if not engines:
        errors.append("the engines returned nothing")
    for P in primes:
        if oracle[P] != enumerate_solutions(P):
            errors.append(f"oracle set for P = {P} differs from the divisor enumeration")
    if verdicts != EXPECTED_VERDICTS:
        errors.append("table verdicts differ from the expected errata report")
    return errors


def check_verify(stdout: bytes) -> list[str]:
    want = [{"A": 3, "B": 9, "C": 99, "P": 11, "valid": True,
             "multiplicity": {"count": 1, "positions": ["C"]}}]
    try:
        ok = _records(stdout) == want
    except ValueError:
        ok = False
    return [] if ok else [f"verify 11 3 9 99 printed {stdout[:200]!r}"]
