"""Exception hierarchy shared by all modules.

Every domain error raised by the library derives from QdpError so the CLI
can map failures to exit codes uniformly.  BudgetError subclasses mark
answers that were cut off by a configured search bound rather than decided.
"""

from __future__ import annotations


class QdpError(Exception):
    """Base class for all library errors."""


class MalformedInput(QdpError):
    """Unparseable or schema-violating JSON input."""


class BudgetError(QdpError):
    """A configured degree/pole/search budget was exhausted."""


# group construction and lattice errors

class CompositeP(QdpError):
    pass


class SizeGuard(QdpError):
    pass


# character-theory errors

class NotPGroup(QdpError):
    pass


class IncompleteInduction(QdpError):
    pass


class NonIntegral(QdpError):
    pass


# dimension-function errors

class DomainMismatch(QdpError):
    pass


class NotMonotone(QdpError):
    pass


class NotBorelSmith(QdpError):
    pass


class EvenPrime(QdpError):
    pass


class ShapeMismatch(QdpError):
    pass


# graded-algebra errors

class PrimeMismatch(QdpError):
    pass


class NotUnimodular(QdpError):
    pass


class Inhomogeneous(QdpError):
    pass


class DegreeBudget(BudgetError):
    pass


# two-row module errors

class InvalidModel(QdpError):
    pass


class NoWitnessFound(QdpError):
    pass


class PoleBudget(BudgetError, NoWitnessFound):
    """The witness search needs more poles than the pole bound allows."""
