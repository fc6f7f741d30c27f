"""Conversions between the two witness shapes.

Forward (two-multiple -> one-multiple) builds no candidate.  Its
formulas gamma = (5c - 1)/P, u = gamma*A - c, v = gamma*B - c need
P >= 1 and P | 5c - 1, and:

* a kernel-valid two-multiple witness has (5b-1)(5c-1) = 5P*delta + 1
  = 1 (mod P), so P never divides 5c - 1;
* past that check, (v + c)/gamma = B = bP, so the one-multiple
  candidate keeps a multiple of P in place of A or B, which a
  one-multiple witness excludes.

So no input maps, and the result names the first check that fails.

Reverse (one-multiple -> two-multiple):

    A = (u + c)/gamma,   b = (v + c)/(gamma*P),   delta = b*c/A

maps only a pair (b, c) that passes every precondition, P >= 1 first,
and that pair_from_divisor rebuilds.  That witness meets each check of
ed2_reconstruct by construction (r*s = 5*P*delta + 1, r = 5b - 1,
s = 5c - 1, 1 <= b < c, A = b*c/delta, and the kernel is
5/P = 1/A + 1/bP + 1/cP), so ed2_reconstruct is a bug trap that raises.
Every other failure comes back as a value.
"""

from __future__ import annotations

from collections import namedtuple

from .ed2 import Ed2Witness, ed2_reconstruct, pair_from_divisor


class BridgeResult(namedtuple("BridgeResult", "witness reason", defaults=(None, None))):
    """Either a mapped Ed2Witness or, as reason, why none maps."""

    __slots__ = ()

    @property
    def mapped(self) -> bool:
        return self.witness is not None

    def as_dict(self) -> dict:
        return {"mapped": self.mapped, "reason": self.reason}


def convolve_ed2_to_ed1(w: Ed2Witness) -> BridgeResult:
    """Never mapped: the reason names the check that fails (see above)."""
    if w.P < 1:
        return BridgeResult(reason=f"need P >= 1, got {w.P}")
    s = 5 * w.c - 1
    if s % w.P:
        return BridgeResult(reason=f"{w.P} does not divide 5c - 1 = {s}")
    return BridgeResult(reason=f"B = bP = {w.B} is a multiple of {w.P}")


def anticonvolve_ed1_to_ed2(
    q: tuple[int, int, int, int], P: int
) -> BridgeResult:
    """The reverse formulas on (gamma, c, u, v), as described above."""
    gamma, c, u, v = q
    if gamma < 1 or c < 1 or P < 1:
        return BridgeResult(reason=f"need gamma, c, P >= 1, got ({gamma}, {c}, {P})")
    if (u + c) % gamma:
        return BridgeResult(reason=f"{gamma} does not divide u + c = {u + c}")
    A = (u + c) // gamma
    if (v + c) % gamma:
        return BridgeResult(reason=f"{gamma} does not divide v + c = {v + c}")
    if (v + c) % (gamma * P):
        return BridgeResult(reason=f"{P} does not divide (v + c)/gamma = {(v + c) // gamma}")
    b = (v + c) // (gamma * P)
    if A < 1 or b < 1:
        return BridgeResult(reason=f"non-positive A = {A} or b = {b}")
    if (b * c) % A:
        return BridgeResult(reason=f"A = {A} does not divide b*c = {b * c}")
    delta = b * c // A
    lo, hi = min(b, c), max(b, c)
    # pair_from_divisor rebuilds c from N // r, so it can return another
    # pair; only (lo, hi) itself maps.
    candidate = pair_from_divisor(P, delta, 5 * lo - 1)
    if candidate is None or (candidate.b, candidate.c) != (lo, hi):
        return BridgeResult(
            reason=f"(b, c) = ({lo}, {hi}) is not a kernel pair for delta = {delta}"
        )
    ed2_reconstruct(candidate)
    return BridgeResult(witness=candidate)
