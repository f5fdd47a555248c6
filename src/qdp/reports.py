"""The one machine-readable report shape.

Every command prints one VerificationReport: the statement it checked,
a status, the legs of the argument (empty outside the theorem drivers)
and a witness.  A Certificate is the report of a non-existence driver,
whose status follows from its legs, so a certificate with a refuted leg
can never claim `unsat-certificate`.  The CLI fills in `command` and
`timing_ms`.  Reports are deterministic given the same inputs and seed;
timing is metadata and is excluded from reproducibility comparisons.

`json_dumps` writes every report, in both formats (the text format
prints the witness through it): its text is what
`json.dumps(obj, sort_keys=True)` returns, byte for byte, without
importing `json`.  That package, with the `re` it pulls in, costs a
certificate about 1.7 ms of start-up on a 2-vCPU x86 VM, so the CLI
imports it only to word the error of an input file that is not JSON.
"""

from __future__ import annotations

VERIFIED = "verified"
ASSUMED = "assumed"
REFUTED = "refuted"
UNSAT = "unsat-certificate"


class Leg:
    def __init__(self, name: str, status: str, details: dict | None = None):
        self.name = name
        self.status = status
        self.details = {} if details is None else details

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "details": self.details}


class VerificationReport:
    def __init__(self, statement_name: str, claim: str, status: str,
                 witness: dict | None = None, legs: list[Leg] | None = None,
                 command: list[str] | None = None, timing_ms: float = 0.0):
        self.statement_name = statement_name
        self.claim = claim
        self.status = status
        self.witness = {} if witness is None else witness
        self.legs = [] if legs is None else legs
        self.command = [] if command is None else command
        self.timing_ms = timing_ms

    def to_json(self) -> dict:
        return {
            "schema": "2",
            "command": self.command,
            "statement": {"name": self.statement_name, "claim": self.claim},
            "status": self.status,
            "legs": [leg.to_json() for leg in self.legs],
            "witness": self.witness,
            "timing_ms": round(self.timing_ms, 3),
        }

    def to_text(self) -> str:
        lines = [
            f"statement : {self.statement_name}",
            f"claim     : {self.claim}",
            f"status    : {self.status}",
        ]
        lines += [f"leg       : {leg.status} {leg.name}" for leg in self.legs]
        lines.append(f"timing    : {self.timing_ms:.1f} ms")
        lines.append("witness   : " + json_dumps(self.witness))
        return "\n".join(lines)


class Certificate(VerificationReport):
    """Report of a non-existence driver: `unsat-certificate` when no leg is
    refuted and at least one is verified, `refuted` otherwise."""

    def __init__(self, statement_name: str, claim: str, legs: list[Leg],
                 witness: dict):
        statuses = {leg.status for leg in legs}
        status = UNSAT if VERIFIED in statuses and REFUTED not in statuses else REFUTED
        super().__init__(statement_name, claim, status, witness, legs)


def canonical_json(report_json: dict) -> str:
    """Serialization with timing stripped, for bit-for-bit comparisons."""
    stripped = {k: v for k, v in report_json.items() if k != "timing_ms"}
    return json_dumps(stripped)


_INF = float("inf")

# json.dumps's escapes: the two-character ones, then \u00XX for every other
# character outside the printable ASCII range ' ' .. '~'
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}
_ESCAPE_TABLE = {n: _ESCAPES.get(chr(n), f"\\u{n:04x}")
                 for n in (*range(32), 34, 92, 127)}


def _string(s: str) -> str:
    if s.isascii():
        if s.isprintable() and '"' not in s and "\\" not in s:
            return f'"{s}"'
        return f'"{s.translate(_ESCAPE_TABLE)}"'
    out = []
    for ch in s.translate(_ESCAPE_TABLE):
        n = ord(ch)
        if n < 128:
            out.append(ch)
        elif n < 0x10000:
            out.append(f"\\u{n:04x}")
        else:  # a surrogate pair, as ensure_ascii writes it
            n -= 0x10000
            out.append(f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}")
    return f'"{"".join(out)}"'


def _text(obj) -> str:
    """The JSON text of `obj`; `json_dumps` without its trace span, so that
    a traced run records one span per report, not one per nested value."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        parts = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(f"{_string(key)}: {_text(value)}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        # the repr of a list of plain ints is its JSON text
        if type(obj) is list and set(map(type, obj)) <= {int}:
            return repr(obj)
        return "[" + ", ".join(map(_text, obj)) + "]"
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == _INF:
            return "Infinity"
        if obj == -_INF:
            return "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True)` for a value built from dicts with
    str keys, lists, tuples, str, int, float, bool and None; any other type
    raises TypeError."""
    return _text(obj)
