"""Checks on the benchmark itself, run on every benchmark run.

* The generator is deterministic per seed: the set-up repetitions of a run
  must produce identical inputs, and the next seed must produce others.
* The oracle rejects deliberately corrupted reports: a fix-rank rank off by
  one, and realize multiplicities that do not sum to tau(trivial subgroup).
  Corruptions are applied to real reports of the run where it has them,
  and always to minimal hand-made reports.
"""

from __future__ import annotations

import copy

import gen
import oracle


def generator_problems(workload: str, seed: int, fingerprints: list[str]) -> list[str]:
    problems = []
    if len(set(fingerprints)) != 1:
        problems.append(f"generator gave {len(set(fingerprints))} different "
                        f"inputs for seed {seed}")
    if gen.fingerprint(gen.generate(workload, seed + 1)) == fingerprints[0]:
        problems.append(f"seeds {seed} and {seed + 1} give the same inputs")
    return problems


def _corrupt_rank(report: dict) -> dict:
    bad = copy.deepcopy(report)
    bad["witness"]["rank"] += 1
    return bad


def _corrupt_multiplicities(report: dict) -> dict:
    bad = copy.deepcopy(report)
    mult = bad["witness"]["multiplicities"]  # never empty: tau(1) >= 1
    mult[next(iter(mult))] += 1
    return bad


def _synthetic() -> list[tuple[gen.Op, dict]]:
    rank_op = gen.Op("fix-rank", [], 0, {"rank": 3})
    rank_report = {"status": "verified", "witness": {"rank": 3}}
    real_op = gen.Op("realize", [], 0, {"tau_trivial": 7})
    real_report = {"status": "verified", "witness": {
        "multiplicities": {"0": 1, "2": 3},
        "basis": [{"index": 0, "degree": 1}, {"index": 1, "degree": 2},
                  {"index": 2, "degree": 2}]}}
    return [(rank_op, rank_report), (real_op, real_report)]


def oracle_problems(checked: list[tuple[gen.Op, dict]]) -> list[str]:
    """`checked` holds (op, report) pairs the oracle accepted in this run."""
    cases = _synthetic()
    for kind in ("fix-rank", "realize"):
        cases += [pair for pair in checked if pair[0].kind == kind][:1]
    problems = []
    for op, report in cases:
        if oracle.check_report(op, report):
            problems.append(f"oracle rejects a correct {op.kind} report")
        corrupt = _corrupt_rank if op.kind == "fix-rank" else _corrupt_multiplicities
        if not oracle.check_report(op, corrupt(report)):
            problems.append(f"oracle accepts a corrupted {op.kind} report")
    return problems
