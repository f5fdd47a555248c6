"""The three exception classes of the library, one per failing exit code
of the CLI, and the integer checks every JSON and string reader applies.

  MalformedInput  exit 1: unparseable or schema-violating input, usage
                  errors included;
  BudgetError     exit 3: the answer was cut off by the degree budget
                  rather than decided;
  QdpError        exit 2: any other error, a domain error such as a
                  composite p, a group over the size guard or an input that
                  is well formed but not what the check needs.

MalformedInput and BudgetError derive from QdpError, so a caller can catch
every library error at once.  The message, which the CLI prints as its one
stderr line, says what went wrong; no code branches on a finer class.
"""

from __future__ import annotations


class QdpError(Exception):
    """A domain error (exit 2), and the base class of every library error."""


class MalformedInput(QdpError):
    """Unparseable or schema-violating input (exit 1)."""


class BudgetError(QdpError):
    """An answer cut off by the degree budget (exit 3)."""


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

