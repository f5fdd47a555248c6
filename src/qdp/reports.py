"""Certificates and machine-readable verification reports.

A Certificate is the structured outcome of one of the non-existence
drivers: a list of legs, each independently checkable, with an overall
status.  A VerificationReport wraps any command outcome for the CLI.
Reports are deterministic given the same inputs and seed; timing is
carried as metadata and is excluded from reproducibility comparisons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

VERIFIED = "verified"
ASSUMED = "assumed"
REFUTED = "refuted"
UNSAT = "unsat-certificate"
BUDGET_LIMITED = "budget-limited"


@dataclass
class Leg:
    name: str
    status: str
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "details": self.details}


@dataclass
class Certificate:
    name: str
    claim: str
    status: str
    legs: list[Leg]
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "name": self.name,
            "statement": self.claim,
            "status": self.status,
            "legs": [leg.to_json() for leg in self.legs],
            "witness": self.witness,
        }


@dataclass
class VerificationReport:
    command: list[str]
    statement_name: str
    claim: str
    status: str
    witness: dict = field(default_factory=dict)
    timing_ms: float = 0.0
    budget_limited: bool = False

    def __post_init__(self):
        # a budget-limited computation can never claim full verification
        if self.budget_limited and self.status == VERIFIED:
            self.status = BUDGET_LIMITED

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "command": self.command,
            "statement": {"name": self.statement_name, "claim": self.claim},
            "status": self.status,
            "witness": self.witness,
            "budget_limited": self.budget_limited,
            "timing_ms": round(self.timing_ms, 3),
        }

    def to_text(self) -> str:
        lines = [
            f"statement : {self.statement_name}",
            f"claim     : {self.claim}",
            f"status    : {self.status}",
        ]
        if self.budget_limited:
            lines.append("note      : answer limited by a search budget")
        lines.append(f"timing    : {self.timing_ms:.1f} ms")
        lines.append("witness   : " + json.dumps(self.witness, sort_keys=True))
        return "\n".join(lines)


def canonical_json(report_json: dict) -> str:
    """Serialization with timing stripped, for bit-for-bit comparisons."""
    stripped = {k: v for k, v in report_json.items() if k != "timing_ms"}
    return json.dumps(stripped, sort_keys=True)
