"""Exception hierarchy shared by all modules, and the integer checks every
JSON and string reader applies.

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
    """A configured degree budget was exhausted."""


# the degree budget when none is configured (the CLI's --budget default)
DEFAULT_DEGREE_BUDGET = 200


def json_int(value, field: str) -> int:
    """A JSON integer field as is.  A float, bool, string or anything else is
    malformed input: truncating 4.7 to 4 or reading true as 1 would certify
    a function the input never stated."""
    if type(value) is not int:
        raise MalformedInput(f"{field} must be an integer, got {value!r}")
    return value


def ascii_int(text: str, field: str) -> int:
    """An integer in a string the runtime reads: ASCII digits after at most
    one '-'.  int() would also take '+3', ' 3', '0_3' and '٣', which a
    report would then echo as its input."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise MalformedInput(f"{field} must be an integer, got {text!r}")
    return int(text)


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

