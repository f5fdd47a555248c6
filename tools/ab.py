"""Compare two commits on the certificate benchmark in alternated pairs.

    python3 tools/ab.py PARENT CHANGE [--workload W] [--seeds 7,11] [--pairs 10]

PARENT and CHANGE are anything `git archive` takes: a commit, a branch or
a tree id (`git write-tree` names the staged tree).  Each is exported with
`git archive` to a temporary directory, and BENCHMARK.json's command runs
there as `--workload W --seed S --seconds T --trace 0`, T its run_seconds,
one side after the other.  Pairs alternate which side runs first; the
parent runs first in pair 1.

For each seed and each end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles (`statistics.quantiles`, inclusive method), the
pairs the change won by the metric's direction (ties count for neither),
the gap between the medians and the parent's interquartile range, and
whether the gap is wider than that range.  Then it prints every pair's
figures.  The figures are reported, not judged: nothing here gates on them.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(treeish: str, directory: Path) -> None:
    """Write the files of `treeish` into `directory` (`git archive`)."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", treeish],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        try:
            archive.extractall(directory, filter="data")
        except TypeError:  # Python before 3.10.12 / 3.11.4: no extraction filters
            archive.extractall(directory)


def run_benchmark(command: list[str], directory: Path, workload: str, seed: int,
                  seconds: float) -> dict:
    """One benchmark run in an exported tree: its last line of stdout."""
    # the command starts with python3; this interpreter stands in for it
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=directory, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark exited {proc.returncode} in {directory}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """The statistics of one metric over (parent, change) pairs: each side's
    quartiles, the change's wins and losses (ties count for neither), the
    gap of the medians (change minus parent) and the parent's IQR, and
    whether the change's median is better by more than that IQR."""
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    gap = change[1] - parent[1]
    iqr = parent[2] - parent[0]
    return {"parent": parent, "change": change, "wins": wins, "losses": losses,
            "pairs": len(pairs), "gap": gap, "parent_iqr": iqr,
            "resolved": sign * gap > iqr}


def report(seed: int, metrics: list[dict], runs: list[tuple[dict, dict, str]]) -> list[str]:
    """The lines printed for one seed: a summary per metric, then the pairs."""
    lines = [f"seed {seed}: {len(runs)} pairs; median [q1, q3]; wins of the change; "
             "gap = change - parent median"]
    for metric in metrics:
        name = metric["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c, _ in runs]
        s = summarize(pairs, metric["better"])
        q1p, mp, q3p = s["parent"]
        q1c, mc, q3c = s["change"]
        lines.append(
            f"  {name:12s} parent {mp:.6g} [{q1p:.6g}, {q3p:.6g}]  "
            f"change {mc:.6g} [{q1c:.6g}, {q3c:.6g}]  wins {s['wins']}/{s['pairs']} "
            f"(losses {s['losses']})  gap {s['gap']:+.6g} vs parent IQR "
            f"{s['parent_iqr']:.6g}: {'wider' if s['resolved'] else 'not wider'}")
    for i, (p, c, first) in enumerate(runs, 1):
        figures = "  ".join(f"{m['name']} {p['metrics'][m['name']]['value']:.6g}/"
                            f"{c['metrics'][m['name']]['value']:.6g}" for m in metrics)
        failed = f"  failed {p['failed']}/{c['failed']}" if p["failed"] or c["failed"] else ""
        lines.append(f"  pair {i:2d} ({first} first) parent/change: {figures}{failed}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", default="corpus")
    ap.add_argument("--seeds", default="7", help="comma-separated seeds")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory(prefix="qdp-ab-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.parent, trees["parent"])
        export(args.change, trees["change"])
        print(f"{args.workload}: parent {args.parent}, change {args.change}, "
              f"{bench['run_seconds']} s runs")
        for seed in seeds:
            runs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                result = {side: run_benchmark(bench["command"], trees[side], args.workload,
                                              seed, bench["run_seconds"])
                          for side in order}
                runs.append((result["parent"], result["change"], order[0]))
            print("\n".join(report(seed, bench["end_to_end"], runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
