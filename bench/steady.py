"""Repeat workloads and judge how steady their end-to-end metrics are.

    python3 bench/steady.py --workloads thin-divergent dense-closing query-mix cli-cold
    python3 bench/steady.py --runs 10 --first-seed 1
    python3 bench/steady.py --runs 10 --first-seed 101 --against .bench_out/steady.json

Runs bench/run.py once per (workload, seed), one child at a time, and
prints every end-to-end metric of every workload with its unit.  The
default workloads are those BENCHMARK.json lists.  With two
or more runs it reports the median and quartiles of each metric and its
spread: (Q3 - Q1) / median, with quartiles as statistics.quantiles gives
them.  A metric is steady when its spread is below a third of the bound in
BENCHMARK.json (set-up time excepted); the proposed bound is three times
the widest spread any workload shows, rounded up to 0.05 and capped at
0.25.  --against compares medians with an earlier summary and flags any
that got worse by more than the bound.  The summary is written to
.bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MAX_BOUND = 0.25


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    report = json.loads((OUT / f"report-{workload}-seed{seed}-trace0.json").read_text())
    result["all"] = report["end_to_end"]
    result["env"] = report["env"]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / abs(med) if med else math.inf


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--against", type=Path, help="an earlier steady.json to compare medians with")
    args = ap.parse_args()

    summary: dict = {"runs": args.runs, "first_seed": args.first_seed, "seconds": args.seconds,
                     "workloads": {}}
    ok = True
    widest: dict[str, float] = {}
    for wl in args.workloads:
        results = [run_once(wl, args.first_seed + i, args.seconds) for i in range(args.runs)]
        summary.setdefault("env", results[0]["env"])
        for r in results:
            if not r["correct"] or r["failed"]:
                ok = False
                print(f"{wl}: correct={r['correct']} failed={r['failed']}")
        rows = summary["workloads"][wl] = {}
        print(f"== {wl} ({args.runs} run(s), seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        for name, first in results[0]["all"].items():
            values = [r["all"][name]["value"] for r in results]
            row = rows[name] = {"unit": first["unit"], "values": values}
            if len(values) < 2:
                print(f"  {name:22s} {values[0]:.6g} {first['unit']}")
                continue
            med, q1, q3, sp = spread(values)
            row.update(median=med, q1=q1, q3=q3, spread=sp)
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                widest[name] = max(widest.get(name, 0.0), sp)
                steady = sp < bound / 3 or name == "setup_s"
                verdict = f"bound {bound:.2f} {'steady' if steady else 'NOT STEADY'}"
                if sp > bound and name != "setup_s":
                    ok = False
            print(f"  {name:22s} median {med:.6g} {first['unit']}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                  f"spread {sp:.4f}  {verdict}")
            if args.against and name in bounds:
                before = json.loads(args.against.read_text())["workloads"].get(wl, {}).get(name)
                if before and "median" in before:
                    change = (med - before["median"]) / before["median"]
                    worse = change if bounds[name]["better"] == "lower" else -change
                    flag = "WORSE THAN BOUND" if worse > bounds[name]["bound"] else "within bound"
                    ok &= worse <= bounds[name]["bound"]
                    print(f"  {'':22s} median moved {change:+.4f} against {args.against.name}: {flag}")
    if widest:
        proposed = {n: min(MAX_BOUND, math.ceil(3 * s * 20) / 20) for n, s in widest.items()}
        summary["proposed_bounds"] = proposed
        print("proposed bounds:", json.dumps(proposed))
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
