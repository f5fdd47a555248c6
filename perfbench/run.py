"""Certificate benchmark for qdp.

    python3 perfbench/run.py --workload fusion|zeta|corpus --seed N \
        --seconds S --trace 0|1

Each workload is a fixed list of `qdp` certificates generated from the
seed (see gen.py).  The benchmark is a closed loop with one client: it runs
one `python -m qdp.cli ... --format json` at a time, each in a fresh
interpreter, the way a user re-verifies a certificate, so no in-process
cache survives from one certificate to the next and import-time work
counts.  It repeats whole passes over the list for about S seconds (at
least the passes its tail percentile needs), checks every answer
(oracle.py), and prints the metrics; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run alternates untraced passes with passes whose certificates run under
trace_launch.py, and the metrics are the per-layer ones derived from the
recorded spans.

Times are normalized to a reference speed.  On a shared host the speed of
a core drifts by tens of percent within seconds, which moves every wall
time with it.  The benchmark therefore pins itself and its children to one
core and runs a fixed pure-Python reference loop between certificates;
each certificate's wall time is scaled by REF_NOMINAL_S over the mean of
the loop times just before and just after it.  The result reads as seconds
on a core where the loop takes REF_NOMINAL_S.  Raw wall times are printed
on the `info` line.

Set-up, repeated SETUP_REPS times and reported as the median, covers input
generation, writing the input files and the first bytecode compile of
src/qdp.  All files are written under .bench_build/ in the checkout and
removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import oracle  # noqa: E402
import selfcheck  # noqa: E402

SETUP_REPS = 7
CERT_TIMEOUT_S = 150
REF_NOMINAL_S = 0.015

# Tail percentile per workload, and the least number of passes that puts
# at least ten samples beyond it.  gen.py sizes the cost classes of each
# list so that this percentile and the median fall inside a class.
TAIL = {"fusion": (75, 3), "zeta": (90, 3), "corpus": (90, 4)}

# Layers each workload is meant to load (checked from the traced self time).
TARGET = {
    "fusion": ("groups", "dimfun.generation_by_order_p"),
    "zeta": ("steenrod",),
    "corpus": ("characters", "dimfun", "fixrank"),
}

LAYERS = ("groups", "characters", "dimfun", "steenrod", "fixrank", "reports", "cli")

# per-layer times: inclusive time of the named spans (nested calls of the
# same set are counted once), per certificate
SPAN_TIMES = {
    "groups.closure_s": {"groups.subgroup_closure"},
    "groups.sylow_s": {"groups.sylow_p_subgroup"},
    "groups.p_group_subgroups_s": {"groups.subgroups_of_p_group"},
    "groups.lattice_s": {"groups.p_subgroups"},
    "groups.orbit_s": {"groups.conjugacy_orbit", "groups.element_conjugacy_classes"},
    "groups.is_conjugate_s": {"groups.is_conjugate"},
    "groups.construct_s": {"groups.construct_qdp", "groups.group_from_json"},
    "dimfun.generation_s": {"dimfun.generation_by_order_p"},
    "dimfun.theorem_b_s": {"dimfun.qdp_obstruction_theorem_B"},
    "dimfun.borel_smith_s": {"dimfun.check_borel_smith"},
    "dimfun.monotone_s": {"dimfun.is_monotone"},
    "dimfun.realize_s": {"dimfun.realize_as_representation"},
    "characters.irreducible_s": {"characters.irreducible_characters"},
    "characters.real_basis_s": {"characters.real_representation_basis"},
    "steenrod.zeta_prop_s": {"steenrod.brute_force_zeta_proposition"},
    "steenrod.contains_s": {"steenrod.IdealHandle.contains"},
    "steenrod.power_s": {"steenrod.steenrod_power"},
    "steenrod.theorem_c_s": {"steenrod.theorem_C_driver"},
    "fixrank.fix_rank_s": {"fixrank.fix_rank"},
    "fixrank.module_power_s": {"fixrank.module_power"},
    "reports.serialize_s": {"reports.VerificationReport.to_json",
                            "reports.Certificate.to_json", "reports.json_dumps"},
}
# per-layer counts: calls of one span name, per certificate
SPAN_CALLS = {
    "characters.induced_calls": "characters.induced_values",
    "characters.fixed_dimension_calls": "characters.fixed_dimension",
    "steenrod.closure_tests": "steenrod.is_steenrod_closed",
    "steenrod.contains_calls": "steenrod.IdealHandle.contains",
    "steenrod.power_calls": "steenrod.steenrod_power",
    "steenrod.bockstein_calls": "steenrod.bockstein",
    "fixrank.module_power_calls": "fixrank.module_power",
}
# per-layer counts kept by the launcher's counters, per certificate
COUNTERS = ("groups.mul_calls", "groups.inv_calls", "steenrod.ideals_built")
# ratios of per-pass totals: (numerator, denominator)
RATIOS = {
    "groups.closure_mul_per_member": ("groups.closure_muls", "groups.closure_members"),
    "characters.induction_yield": ("characters.irreducibles",
                                   "calls:characters.induced_values"),
    "steenrod.survivor_ratio": ("steenrod.closed", "calls:steenrod.is_steenrod_closed"),
}


def reference_loop() -> float:
    """Seconds taken by a fixed amount of dict, tuple and integer work, the
    kind qdp does; about REF_NOMINAL_S on a 2-vCPU x86 cloud VM."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(60000):
        table[(i & 255, i % 7)] = acc
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Cert:
    op: int
    wall: float
    scale: float = 1.0  # REF_NOMINAL_S / reference-loop time around it
    reason: str = ""  # empty when the certificate passed
    canonical: str = "FAILED"
    timing_s: float | None = None  # the report's own timing_ms, in seconds
    spans_path: Path | None = None

    @property
    def norm(self) -> float:
        return self.wall * self.scale


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    certs: list[Cert] = field(default_factory=list)

    @property
    def norm(self) -> float:
        return sum(c.norm for c in self.certs)

    def digest(self) -> str:
        h = hashlib.sha256()
        for c in self.certs:
            h.update(c.canonical.encode())
            h.update(b"\n")
        return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONOPTIMIZE",
                "PYTHONHOME", "QDP_BUDGET"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(SRC)
    return env


def set_up(workload: str, seed: int, base: Path, env: dict):
    """One set-up: generate the inputs, write them, compile src/qdp afresh.
    Returns (normalized seconds, raw seconds, workload)."""
    before = reference_loop()
    t0 = time.perf_counter()
    wl = gen.generate(workload, seed)
    gen.write(wl, str(base))
    shutil.rmtree(SRC / "qdp" / "__pycache__", ignore_errors=True)
    subprocess.run([sys.executable, "-c",
                    "import qdp.cli, qdp.characters, qdp.dimfun, qdp.fixrank"],
                   env=env, check=True, capture_output=True, timeout=CERT_TIMEOUT_S)
    wall = time.perf_counter() - t0
    scale = REF_NOMINAL_S / ((before + reference_loop()) / 2)
    return wall * scale, wall, wl


def run_cert(i: int, op: gen.Op, wdir: Path, env: dict, canonical_json,
             spans_path: Path | None) -> Cert:
    cli_args = [*op.args, "--format", "json"]
    if spans_path is None:
        argv = [sys.executable, "-m", "qdp.cli", *cli_args]
    else:
        argv = [sys.executable, str(HERE / "trace_launch.py"), str(spans_path),
                str(i), *cli_args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=wdir, env=env, capture_output=True,
                              text=True, timeout=CERT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Cert(i, time.perf_counter() - t0, reason=f"timeout after {CERT_TIMEOUT_S} s")
    cert = Cert(i, time.perf_counter() - t0, spans_path=spans_path)
    cert.reason, report = oracle.check(op, proc.returncode, proc.stdout, proc.stderr)
    if not cert.reason:
        cert.canonical = canonical_json(report)
        timing = report.get("timing_ms")
        if isinstance(timing, (int, float)):
            cert.timing_s = timing / 1000.0
    return cert


def run_pass(wl: gen.Workload, wdir: Path, env: dict, canonical_json,
             traced: bool, spans_dir: Path, pass_no: int) -> Pass:
    p = Pass(traced)
    t0 = time.perf_counter()
    before = reference_loop()
    for i, op in enumerate(wl.ops):
        spans = spans_dir / f"pass{pass_no}_op{i}.json" if traced else None
        cert = run_cert(i, op, wdir, env, canonical_json, spans)
        after = reference_loop()
        cert.scale = REF_NOMINAL_S / ((before + after) / 2)
        before = after
        p.certs.append(cert)
    p.wall = time.perf_counter() - t0
    return p


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Linear-interpolated percentile q (0-100) and the number of samples
    strictly above its position."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs) - 1 - lo


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def cert_profile(path: Path) -> dict:
    """Self time per layer, inclusive time per SPAN_TIMES entry, calls per
    span name and the launcher's counters, for one traced certificate."""
    with open(path) as fh:
        data = json.load(fh)
    names = [data["names"][s[0]] for s in data["spans"]]
    parents = [s[3] for s in data["spans"]]
    durations = [s[2] - s[1] for s in data["spans"]]
    self_time = list(durations)
    for k, parent in enumerate(parents):
        if parent >= 0:
            self_time[parent] -= durations[k]
    out: dict[str, float] = {}
    for name, t in zip(names, self_time):
        key = f"self:{name.split('.', 1)[0]}"
        out[key] = out.get(key, 0.0) + t
        if name == "dimfun.generation_by_order_p":
            out[f"self:{name}"] = out.get(f"self:{name}", 0.0) + t
        out[f"calls:{name}"] = out.get(f"calls:{name}", 0) + 1
    for metric, wanted in SPAN_TIMES.items():
        total = 0.0
        for k, name in enumerate(names):
            if name not in wanted:
                continue
            anc = parents[k]
            while anc >= 0 and names[anc] not in wanted:
                anc = parents[anc]
            if anc < 0:
                total += durations[k]
        out[metric] = total
    out.update(data["counts"])
    out["cli.import_s"] = data["import_s"]
    return out


def layer_metrics(workload: str, passes: list[Pass]) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced passes of the per-certificate
    mean; times normalized like the end-to-end ones) and self-time shares."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = []
    for p in traced:
        totals: dict[str, float] = {}
        for c in p.certs:
            for key, v in cert_profile(c.spans_path).items():
                if key.startswith("self:") or key.endswith("_s"):
                    v *= c.scale
                totals[key] = totals.get(key, 0) + v
        per_pass.append((len(p.certs), totals))

    def med(fn) -> float:
        return statistics.median(fn(n, t) for n, t in per_pass)

    def mean_of(key):
        return med(lambda n, t: t.get(key, 0) / n)

    def share_of(keys):
        def share(n, t):
            total = sum(t.get(f"self:{layer}", 0.0) for layer in LAYERS)
            return sum(t.get(f"self:{k}", 0.0) for k in keys) / total if total else 0.0
        return med(share)

    m: dict[str, tuple[float, str]] = {}
    for layer in ("groups", "characters", "dimfun", "steenrod", "fixrank", "cli"):
        m[f"{layer}.self_s"] = (mean_of(f"self:{layer}"), "s")
    for metric in SPAN_TIMES:
        m[metric] = (mean_of(metric), "s")
    for metric, name in SPAN_CALLS.items():
        m[metric] = (mean_of(f"calls:{name}"), "count")
    for key in COUNTERS:
        m[key] = (mean_of(key), "count")
    for metric, (num, den) in RATIOS.items():
        m[metric] = (med(lambda n, t, a=num, b=den:
                         t.get(a, 0) / t[b] if t.get(b) else 0.0), "ratio")
    m["cli.import_s"] = (mean_of("cli.import_s"), "s")
    m["cli.overhead_s"] = (statistics.median(
        sum((c.wall - c.timing_s) * c.scale for c in p.certs if c.timing_s is not None)
        / len(p.certs) for p in plain), "s")
    m["trace.raised_calls"] = (med(lambda n, t: sum(
        t.get(f"{layer}.raised_calls", 0) for layer in LAYERS) / n), "count")
    m["trace.overhead_ratio"] = (statistics.median(p.norm for p in traced)
                                 / statistics.median(p.norm for p in plain), "ratio")
    m["trace.target_self_share"] = (share_of(TARGET[workload]), "ratio")
    return m, {layer: share_of((layer,)) for layer in LAYERS}


# ---------------------------------------------------------------------------

def run_metadata(workload: str, seed: int) -> dict:
    lines = 0
    digest = hashlib.sha256()
    for path in sorted((SRC / "qdp").rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
        if path.suffix == ".py":
            with open(path) as fh:
                lines += sum(1 for _ in fh)
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest(),
            "src_qdp_lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qdp" / "cli.py").is_file() or not (SRC / "qdp" / "reports.py").is_file():
        print(f"error: no qdp sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    # one core for the loop and every child, so the reference loop measures
    # the speed of the core the certificates run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    env = child_env()
    setup_norm, setup_wall, fingerprints = [], [], []
    for rep in range(SETUP_REPS):
        norm, wall, wl = set_up(args.workload, args.seed, work / f"inputs{rep}", env)
        setup_norm.append(norm)
        setup_wall.append(wall)
        fingerprints.append(gen.fingerprint(wl))
    wdir = work / f"inputs{SETUP_REPS - 1}"
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, str(SRC))
    from qdp.reports import canonical_json

    q, min_passes = TAIL[args.workload]
    passes: list[Pass] = []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(wl, wdir, env, canonical_json, traced, spans_dir,
                               len(passes)))
        elapsed = time.perf_counter() - t_start
        if args.trace:  # the next pass is of the other kind
            enough = len(passes) >= 2
            next_walls = [p.wall for p in passes if p.traced != traced]
        else:
            enough = len(passes) >= min_passes
            next_walls = [p.wall for p in passes]
        if enough and elapsed + statistics.median(next_walls) > args.seconds:
            break
    measured_s = time.perf_counter() - t_start

    certs = [c for p in passes for c in p.certs]
    failures = [(c, wl.ops[c.op]) for c in certs if c.reason]
    digests = {p.digest() for p in passes}
    problems = selfcheck.generator_problems(args.workload, args.seed, fingerprints)
    problems += selfcheck.oracle_problems(
        [(wl.ops[c.op], json.loads(c.canonical)) for c in passes[0].certs if not c.reason])
    if len(digests) != 1:
        problems.append(f"canonical digest differs between passes: {sorted(digests)}")

    plain = [p for p in passes if not p.traced]
    info = run_metadata(args.workload, args.seed)
    info.update({"passes": len(plain), "traced_passes": len(passes) - len(plain),
                 "certificates_per_pass": len(wl.ops), "measured_s": round(measured_s, 3),
                 "canonical_sha256": sorted(digests)[0] if len(digests) == 1 else None,
                 "failed_ratio": f"{len(failures)}/{len(certs)}",
                 "setup_wall_s": round(statistics.median(setup_wall), 4),
                 "reference_loop_s": round(statistics.median(
                     REF_NOMINAL_S / c.scale for c in certs), 5)})

    if args.trace:
        metrics, shares = layer_metrics(args.workload, passes)
        info["self_time_share"] = {k: round(v, 4) for k, v in shares.items()}
        info["target_layers"] = list(TARGET[args.workload])
    else:
        norms = [c.norm for p in plain for c in p.certs]
        tail, beyond = percentile(norms, q)
        if beyond < 10:
            problems.append(f"only {beyond} samples beyond p{q}")
        ranked = sorted((c.norm, wl.ops[c.op].size) for p in plain for c in p.certs)
        info.update({
            "tail_percentile": q, "samples": len(norms), "samples_beyond_tail": beyond,
            "batch_samples": len(plain), "setup_samples": SETUP_REPS,
            "p50_class": ranked[(len(ranked) - 1) // 2][1],
            "tail_class": ranked[len(ranked) - 1 - beyond][1],
            "batch_wall_s": round(statistics.median(p.wall for p in plain), 4),
            "cert_p50_wall_s": round(statistics.median(c.wall for p in plain for c in p.certs), 4),
        })
        by_class: dict[str, list[float]] = {}
        for norm, size in ranked:
            by_class.setdefault(size, []).append(norm)
        info["classes"] = {size: [len(xs), round(statistics.median(xs), 4)]
                           for size, xs in by_class.items()}
        metrics = {
            "batch_s": (statistics.median(p.norm for p in plain), "s"),
            "cert_p50_s": (statistics.median(norms), "s"),
            "cert_tail_s": (tail, "s"),
            "pass_ratio": ((len(certs) - len(failures)) / len(certs), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
                            "MB"),
            "setup_s": (statistics.median(setup_norm), "s"),
        }

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(passes) - len(plain)} traced passes of {len(wl.ops)} certificates, "
          f"{len(certs)} attempted, {len(failures)} failed")
    for c, op in failures[:20]:
        print(f"  FAILED {op.label()}: {c.reason}")
    for msg in problems:
        print(f"  SELF-CHECK FAILED {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(f"  canonical sha256 {info['canonical_sha256']}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": len(certs), "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
