"""Canonical solution records for 5/P = 1/A + 1/B + 1/C, exact
verification and multiplicity classification.

Every serp record is an immutable named tuple: it unpacks and indexes
like a tuple, compares and hashes on its fields, and holds no __dict__.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import ClassificationViolation, InvalidSolution


class SolutionClass(str, Enum):
    """Which construction produced a solution (not its multiplicity)."""

    ED1 = "ED1"
    ED2 = "ED2"
    EXPLICIT = "Explicit"


class Solution(namedtuple("Solution", "P A B C cls strict")):
    """A verified triple with denominators stored in ascending order;
    cls is the SolutionClass and strict is A < B < C."""

    __slots__ = ()

    def triple(self) -> tuple[int, int, int]:
        return self.A, self.B, self.C

    def sort_key(self) -> tuple[int, int, int, int]:
        return self.P, self.A, self.B, self.C

    def as_dict(self) -> dict:
        return {
            "P": self.P,
            "A": self.A,
            "B": self.B,
            "C": self.C,
            "class": self.cls.value,
            "strict": self.strict,
        }


def verify_solution(P: int, A: int, B: int, C: int) -> bool:
    """Exact check of 1/A + 1/B + 1/C = 5/P; False for any non-solution.

    With every value positive the equation is P*(AB + AC + BC) = 5*ABC,
    so the check stays in integers.
    """
    if P < 1 or A < 1 or B < 1 or C < 1:
        return False
    return P * (A * B + A * C + B * C) == 5 * A * B * C


def make_solution(P: int, A: int, B: int, C: int, cls: SolutionClass) -> Solution:
    """Sort the denominators, verify exactly, and record strictness."""
    if not A <= B <= C:
        A, B, C = sorted((A, B, C))
    if not verify_solution(P, A, B, C):
        raise InvalidSolution(f"1/{A} + 1/{B} + 1/{C} != 5/{P}")
    return Solution(P, A, B, C, cls, A < B < C)  # positional: namedtuple's keyword path is slower


# How many of the denominators P divides, and where: positions is a
# subset of ("B", "C"), never "A".
MultiplicityClass = namedtuple("MultiplicityClass", "count positions")


def classify_solution(sol: Solution) -> MultiplicityClass:
    """Multiplicity pattern of a verified solution.

    Exactly one or two of the denominators are divisible by P, never the
    smallest; any other pattern is an arithmetic bug, reported as
    ClassificationViolation.  P in {2, 3, 5} is outside the scope of the
    classification and rejected.
    """
    P = sol.P
    if P in (2, 3, 5):
        raise InvalidSolution(f"classification applies to primes P > 5, got {P}")
    if not verify_solution(P, sol.A, sol.B, sol.C):
        raise InvalidSolution(f"{sol} does not verify")
    if sol.A % P == 0:
        raise ClassificationViolation(f"P = {P} divides the minimal denominator {sol.A}")
    positions = tuple(
        name for name, v in (("B", sol.B), ("C", sol.C)) if v % P == 0
    )
    if len(positions) not in (1, 2):
        raise ClassificationViolation(
            f"{len(positions)} multiples of P = {P} in {sol.triple()}"
        )
    return MultiplicityClass(len(positions), positions)

