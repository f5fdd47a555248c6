"""The three exception classes of the library, one per failing exit code
of the CLI, the integer checks every JSON and string reader applies, and
the defaults and the primality test that the CLI and more than one layer
share.

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
The CLI's exit 2 also covers a report that stdout refuses (a closed pipe,
a full disk): that OSError is caught where the report is written, in
`cli`, and has no class here.

`is_prime` and DEFAULT_MAX_ORDER live here, not in `groups`, so that the
CLI and the certificates that do no group work (prop-zeta, steenrod-check,
fix-rank) never import `groups`; `groups` re-exports both.
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

# the largest group order built when none is configured (--max-order)
DEFAULT_MAX_ORDER = 5000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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

