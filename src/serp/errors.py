"""Exception hierarchy.

Usage-level errors (bad residue class, composite input, ...) subclass
``SerpError``; invariant violations that signal an internal arithmetic
bug subclass ``InvariantViolation`` so callers can map them to a
distinct exit code.
"""


class SerpError(Exception):
    """Base class for all errors raised by this package."""


class NotInvertible(SerpError):
    """Modular inverse requested for a non-coprime pair."""


class InconsistentCongruence(SerpError):
    """CRT combination of two residue classes with empty intersection."""


class NotPrime(SerpError):
    """An operation that requires a prime P received a composite."""


class WrongResidue(SerpError):
    """P lies outside what the requested method covers: a residue class
    mod 5 it has no construction for, or P = 5 or P = 2, which no method
    covers (5 divides 5, and no three distinct unit fractions sum to 5/2)."""


class ParityViolation(SerpError):
    """A quantity that must be even/odd has the wrong parity."""


class InvalidSolution(SerpError):
    """A triple that does not satisfy 1/A + 1/B + 1/C = 5/P exactly."""


class IrreparableCollision(SerpError):
    """Distinctness repair could not avoid an existing denominator."""


class BadResidue(SerpError):
    """Progression modulus r is not 4 (mod 5)."""


class NotCoprime(SerpError):
    """Progression modulus r shares a factor with 5*delta."""


class DeltaFilterFailed(SerpError):
    """Reconstruction reached a pair with delta not dividing b*c."""


class InvariantViolation(SerpError):
    """An internal identity that is provable for valid inputs failed."""


class KernelViolation(InvariantViolation):
    """A witness does not satisfy its defining kernel identity."""


class ClassificationViolation(InvariantViolation):
    """A verified solution shows an impossible multiplicity pattern."""
