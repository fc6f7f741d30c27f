"""Checked conversion formulas between the two witness shapes.

Forward (two-multiple -> one-multiple):

    gamma = (5c - 1)/P,   u = gamma*A - c,   v = gamma*B - c

Reverse (one-multiple -> two-multiple):

    A = (u + c)/gamma,   b = (v + c)/(gamma*P),   delta = b*c/A

Both directions apply the formulas only after checking every
divisibility precondition, then re-verify the target kernel; failures
come back as values, never exceptions.  For kernel-valid two-multiple
witnesses (5b-1)(5c-1) = 1 (mod P), so P never divides 5c - 1 and the
forward direction always fails its precondition; the tests pin that
down rather than hiding it.
"""

from __future__ import annotations

from collections import namedtuple

from .ed1 import Ed1Witness, ed1_reconstruct
from .ed2 import Ed2Witness, ed2_reconstruct, pair_from_divisor
from .errors import SerpError


class BridgeResult(namedtuple("BridgeResult", "witness reason", defaults=(None, None))):
    """Either a mapped witness (an Ed1Witness or Ed2Witness) or the
    first failed precondition, as reason."""

    __slots__ = ()

    @property
    def mapped(self) -> bool:
        return self.witness is not None

    def as_dict(self) -> dict:
        return {"mapped": self.mapped, "reason": self.reason}


def convolve_ed2_to_ed1(w: Ed2Witness) -> BridgeResult:
    """Apply the forward formulas; Mapped only if a full one-multiple
    witness re-verifies."""
    s = 5 * w.c - 1
    if s % w.P:
        return BridgeResult(reason=f"{w.P} does not divide 5c - 1 = {s}")
    gamma = s // w.P
    u = gamma * w.A - w.c
    v = gamma * w.B - w.c
    if u <= 0 or v <= 0:
        return BridgeResult(reason=f"non-positive pair u = {u}, v = {v}")
    if u > v:
        u, v = v, u
    candidate = Ed1Witness(w.P, gamma, w.c, u, v)
    try:
        ed1_reconstruct(candidate)
    except SerpError as exc:
        return BridgeResult(reason=f"target kernel re-verification failed: {exc}")
    return BridgeResult(witness=candidate)


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
