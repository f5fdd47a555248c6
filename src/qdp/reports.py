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
from dataclasses import dataclass, field

VERIFIED = "verified"
ASSUMED = "assumed"
REFUTED = "refuted"
UNSAT = "unsat-certificate"


@dataclass
class Leg:
    name: str
    status: str
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "details": self.details}


@dataclass
class VerificationReport:
    statement_name: str
    claim: str
    status: str
    witness: dict = field(default_factory=dict)
    legs: list[Leg] = field(default_factory=list)
    command: list[str] = field(default_factory=list)
    timing_ms: float = 0.0

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
