"""Per-certificate answer checks.

A certificate fails when its exit code is not the expected one, when
stderr holds a traceback, or when the report does not carry the answer
known in advance for its input (see `check`).
"""

from __future__ import annotations

import json


def _legs(report: dict) -> list[dict]:
    """Legs of a theorem report.  Today they sit in the nested certificate
    under "witness"; a flattened report shape keeps them at the top."""
    for holder in (report, report.get("witness") or {}):
        legs = holder.get("legs")
        if isinstance(legs, list):
            return legs
    return []


def _leg(report: dict, name: str) -> dict:
    for leg in _legs(report):
        if leg.get("name") == name:
            return leg
    return {}


def check_report(op, report: dict) -> str:
    """Empty string when the report gives the answer `op` expects, else
    the reason it does not."""
    status = report.get("status")
    witness = report.get("witness") or {}
    kind = op.kind
    if kind == "theorem-b":
        if status != "unsat-certificate":
            return f"status {status}"
        details = _leg(report, "constraint-unsat").get("details", {})
        if details.get("agrees_with_witness_route") is not True:
            return "constraint leg does not agree with the witness route"
    elif kind == "theorem-c":
        if status != "unsat-certificate":
            return f"status {status}"
    elif kind == "prop-zeta":
        if status != "verified":
            return f"status {status}"
        if witness.get("exhaustive_subspaces") is not True:
            return "verified without an exhaustive subspace enumeration"
        if witness.get("survivors") != witness.get("predicted"):
            return "survivors differ from the report's prediction"
        if witness.get("survivors") != op.expect["survivors"]:
            return f"survivors {witness.get('survivors')} != {op.expect['survivors']}"
    elif kind == "steenrod-check":
        if status != "verified":
            return f"status {status}"
    elif kind == "borel-smith":
        if status != "verified":
            return f"status {status}"
    elif kind == "borel-smith-bad":
        if status != "refuted":
            return f"status {status}"
        conditions = {v.get("condition") for v in witness.get("violations", [])}
        if "ii" not in conditions:
            return f"violations {sorted(map(str, conditions))} miss condition ii"
    elif kind == "realize":
        if status != "verified":
            return f"status {status}"
        degree = {b["index"]: b["degree"] for b in witness.get("basis", [])}
        mult = witness.get("multiplicities", {})
        try:
            total = sum(int(c) * degree[int(i)] for i, c in mult.items())
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed multiplicities: {exc}"
        if any(int(c) < 0 for c in mult.values()):
            return "negative multiplicity"
        if total != op.expect["tau_trivial"]:
            return f"sum of multiplicity*degree {total} != tau(1) {op.expect['tau_trivial']}"
    elif kind == "fix-rank":
        if status != "verified":
            return f"status {status}"
        if witness.get("rank") != op.expect["rank"]:
            return f"rank {witness.get('rank')} != {op.expect['rank']}"
    else:
        return f"no oracle for {kind}"
    return ""


def check(op, returncode: int, stdout: str, stderr: str) -> tuple[str, dict | None]:
    """(reason, report): reason is empty when the certificate passed."""
    if "Traceback (most recent call last)" in stderr:
        return "traceback on stderr", None
    if returncode != op.expect_exit:
        return f"exit {returncode}, expected {op.expect_exit}: {stderr.strip()[-200:]}", None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not one JSON report: {exc}", None
    if not isinstance(report, dict):
        return "report is not a JSON object", None
    return check_report(op, report), report
