"""The one machine-readable report shape.

Every command prints one VerificationReport: the statement it checked,
a status, the legs of the argument (empty outside the theorem drivers)
and a witness.  A Certificate is the report of a non-existence driver,
whose status follows from its legs, so a certificate with a refuted leg
can never claim `unsat-certificate`.  The CLI fills in `command` and
`timing_ms`.  Reports are deterministic given the same inputs and seed;
timing is metadata and is excluded from reproducibility comparisons.
"""

from __future__ import annotations

import json

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
        lines.append("witness   : " + json.dumps(self.witness, sort_keys=True))
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
    return json.dumps(stripped, sort_keys=True)
