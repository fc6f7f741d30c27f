"""Conversions between the two witness shapes.

Forward (two-multiple -> one-multiple) is decided by one check and
builds no candidate.  Its formulas gamma = (5c - 1)/P,
u = gamma*A - c, v = gamma*B - c need P | 5c - 1, and:

* a kernel-valid two-multiple witness has (5b-1)(5c-1) = 5P*delta + 1
  = 1 (mod P), so P never divides 5c - 1;
* past that check, (v + c)/gamma = B = bP, so the one-multiple
  candidate keeps a multiple of P in place of A or B, which a
  one-multiple witness excludes.

So no input maps, and the result only names which of the two holds.

Reverse (one-multiple -> two-multiple):

    A = (u + c)/gamma,   b = (v + c)/(gamma*P),   delta = b*c/A

applies the formulas only after checking every divisibility
precondition, then re-verifies the target kernel.  Failures come back
as values, never exceptions.
"""

from __future__ import annotations

from collections import namedtuple

from .ed2 import Ed2Witness, ed2_reconstruct, pair_from_divisor
from .errors import SerpError


class BridgeResult(namedtuple("BridgeResult", "witness reason", defaults=(None, None))):
    """Either a mapped Ed2Witness or, as reason, why none maps."""

    __slots__ = ()

    @property
    def mapped(self) -> bool:
        return self.witness is not None

    def as_dict(self) -> dict:
        return {"mapped": self.mapped, "reason": self.reason}


def convolve_ed2_to_ed1(w: Ed2Witness) -> BridgeResult:
    """Never mapped.  A kernel-valid witness fails P | 5c - 1, since
    (5b-1)(5c-1) = 1 (mod P); any other input would keep B = bP, a
    multiple of P, in the one-multiple candidate."""
    s = 5 * w.c - 1
    if s % w.P:
        return BridgeResult(reason=f"{w.P} does not divide 5c - 1 = {s}")
    return BridgeResult(reason=f"B = bP = {w.B} is a multiple of {w.P}")


def anticonvolve_ed1_to_ed2(
    q: tuple[int, int, int, int], P: int
) -> BridgeResult:
    """Apply the reverse formulas to a quadruple (gamma, c, u, v);
    Mapped only if a full two-multiple witness re-verifies."""
    gamma, c, u, v = q
    if gamma < 1 or c < 1:
        return BridgeResult(reason=f"need gamma, c >= 1, got ({gamma}, {c})")
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
    try:
        ed2_reconstruct(candidate)
    except SerpError as exc:
        return BridgeResult(reason=f"target kernel re-verification failed: {exc}")
    return BridgeResult(witness=candidate)
