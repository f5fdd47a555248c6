"""Record the certificate benchmark in BENCH_<LABEL>.json, and diff two records.

    python3 tools/bench_record.py LABEL [--against BENCH_OTHER.json]

Runs `perfbench/run.py --workload W --seed 7 --seconds 30 --trace 0` from
the repository root for each of fusion, zeta and corpus.  For each workload
it keeps the last line the run prints (`correct`, `attempted`, `failed`,
`metrics`) and, from its `info` line, the commit, the canonical digest and
the line count of src/qdp.  It writes them to BENCH_<LABEL>.json at the
root.  With --against, it prints each metric's change from that file.  The
differences are reported, not judged: nothing here gates on them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fusion", "zeta", "corpus")
SEED = 7
SECONDS = 30
INFO_KEYS = ("commit", "canonical_sha256", "src_qdp_lines")


def record_workload(workload: str) -> dict:
    """One benchmark run of `workload`: its result line and INFO_KEYS."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    return {**{key: info[key] for key in INFO_KEYS}, "result": json.loads(lines[-1])}


def diff(before: dict, after: dict) -> list[str]:
    """One line per metric of each workload in both records, with its
    relative change, and one per canonical digest that changed."""
    out = []
    for workload in WORKLOADS:
        old, new = before["workloads"].get(workload), after["workloads"].get(workload)
        if old is None or new is None:
            out.append(f"{workload:7s} not in both records")
            continue
        if old["canonical_sha256"] != new["canonical_sha256"]:
            out.append(f"{workload:7s} canonical_sha256 {old['canonical_sha256']} -> "
                       f"{new['canonical_sha256']}")
        old_m, new_m = old["result"]["metrics"], new["result"]["metrics"]
        for name in sorted(old_m.keys() & new_m.keys()):
            a, b = old_m[name]["value"], new_m[name]["value"]
            change = f"{(b - a) / a:+8.1%}" if a else "     n/a"
            out.append(f"{workload:7s} {name:12s} {a:12.6f} -> {b:12.6f} "
                       f"{new_m[name]['unit']:5s} {change}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("--against", type=Path, help="an earlier BENCH_*.json to diff with")
    args = ap.parse_args(argv)
    record = {"label": args.label, "seed": SEED, "seconds": SECONDS,
              "workloads": {w: record_workload(w) for w in WORKLOADS}}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    if args.against is not None:
        print(f"against {args.against.name}:")
        print("\n".join(diff(json.loads(args.against.read_text()), record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
