"""stephen-kit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload query-mix --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and puts src/ on the path itself.
Load is a closed loop with one client and no threads: each operation
starts when the previous one returns, and the CLI workload runs one child
process at a time.  Every verdict, exit code and returned graph is checked
against truth.py, which does not use the engine.

--trace 0 times the workload and reports the end-to-end metrics.
--trace 1 runs whole cycles of the workload untraced, then as many cycles
traced through spans.py, asserts identical verdicts and graphs, and
reports the per-layer metrics per cycle.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; a full report and, when traced,
the spans go to .bench_out/.  The exit code is 1 when a verdict or an
invariant is wrong and 2 when the checkout has no src/stephen_kit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import truth
import workloads
from setup_probe import prepare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 6
BARE_REPEATS = 5
WARMUP_S = 0.2
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
# The CLI reads its default round budget from here; runs must not inherit it.
ROUNDS_ENV = "STEPHEN_KIT_BUDGET_ROUNDS"


# -- child processes -------------------------------------------------------------


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    maxrss_kb: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop(ROUNDS_ENV, None)
    return env


def run_child(argv, env, cwd, stdin: bytes | None = None) -> Child:
    """Run one child to completion and reap it with its own resource usage."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=cwd,
    )
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = perf_counter() - start
    return Child(proc.returncode, out.decode(), err.decode(), wall, usage.ru_maxrss)


def bare_interpreter(env, cwd) -> Child:
    return run_child([sys.executable, "-c", "pass"], env, cwd)


# -- environment and set-up ----------------------------------------------------------


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int, bare_ms: float) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "bare_interpreter_ms": bare_ms,
    }


def setup_job(wl: workloads.Workload) -> dict:
    return {
        "presentations": {n: workloads.presentation_text(n) for n in wl.presentations},
        "words": wl.words(),
    }


class SetupSampler:
    """Set-up time in fresh interpreters, sampled at intervals through a run."""

    def __init__(self, job: dict, env, cwd, interval_s: float):
        self.payload = json.dumps(job).encode()
        self.env = env
        self.cwd = cwd
        self.interval_s = interval_s
        self.times: list[float] = []
        self.last = perf_counter()

    def sample(self) -> float:
        argv = [sys.executable, str(BENCH / "setup_probe.py")]
        child = run_child(argv, self.env, self.cwd, self.payload)
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed: {child.err.strip()}")
        self.last = perf_counter()
        return float(child.out.strip())

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= self.interval_s:
            self.times.append(self.sample())


# -- operations ------------------------------------------------------------------------


@dataclass
class Record:
    """What one operation returned, reduced to what the checks need."""

    latency_s: float
    outcome: str
    decided: bool
    wrong: list
    failed: str | None = None
    vertices: int = 0
    key: int | None = None
    index: int = 0


class Runner:
    """Executes operations in-process (or as CLI children) and checks them."""

    def __init__(self, wl, sk, presentations, words: dict, workdir: Path, env, keys: bool):
        self.wl = wl
        self.sk = sk
        self.pres = presentations
        self.words = words
        self.workdir = workdir
        self.env = env
        self.keys = keys
        self.oracles = workloads.oracles()
        self.bare: list[Child] = []
        self.cli_children: list[Child] = []
        self.in_process_cli = False
        self.tracer = None

    def word(self, pres: str, w: str):
        return self.words[(pres, w)]

    def execute(self, op) -> Record:
        try:
            if op.kind == "cli":
                return self._cli(op)
            if op.kind == "closure":
                return self._closure(op)
            return self._verdict(op)
        except Exception as exc:  # the loop must keep running; the failure is counted
            return Record(0.0, "exception", False, [], failed=f"{type(exc).__name__}: {exc}")

    def _closure(self, op) -> Record:
        sk = self.sk
        w = self.word(op.pres, op.words[0])
        budget = sk.Budget(*op.budget)
        start = perf_counter()
        result = sk.schutzenberger_automaton(w, self.pres[op.pres], budget)
        latency = perf_counter() - start
        g = result.graph
        status = result.status.value
        closed = status == "closed"
        _, relations = workloads.PRESENTATIONS[op.pres]
        wrong = truth.check_graph(
            g.edges, g.alpha, g.beta, truth.word(op.words[0]), relations,
            self.oracles[op.pres].image, closed,
        )
        if op.truth == "budget-exceeded" and closed:
            wrong.append("a divergent closure reported closed")
        if closed and op.vertices is not None and len(g.vertices) != op.vertices:
            wrong.append(f"closed with {len(g.vertices)} vertices, expected {op.vertices}")
        if not closed and len(g.vertices) <= op.budget[1] and result.rounds < op.budget[0]:
            wrong.append("budget-exceeded with neither limit reached")
        key = hash((status, result.rounds, g.canonical_key())) if self.keys else None
        return Record(latency, status, closed, wrong, vertices=len(g.vertices), key=key)

    def _verdict(self, op) -> Record:
        sk = self.sk
        p = self.pres[op.pres]
        words = [self.word(op.pres, w) for w in op.words]
        budget = sk.Budget(*op.budget)
        fn = {"eq": sk.decide_equal, "leq": sk.decide_natural_leq, "idem": sk.is_idempotent}[op.kind]
        start = perf_counter()
        verdict = fn(*words, p, budget)
        latency = perf_counter() - start
        answer = verdict.answer.value
        wrong = []
        if op.truth is not None and answer in (truth.YES, truth.NO) and answer != op.truth:
            wrong.append(f"{op.kind} answered {answer}, truth is {op.truth}")
        if answer == "unknown" and _all_closed(verdict.witness):
            wrong.append("unknown verdict with every closure closed")
        key = hash(json.dumps(verdict.to_json(), sort_keys=True)) if self.keys else None
        return Record(latency, answer, answer != "unknown", wrong, key=key)

    def _cli(self, op) -> Record:
        if self.in_process_cli:
            return self._cli_in_process(op)
        self.bare.append(bare_interpreter(self.env, self.workdir))
        child = run_child([sys.executable, "-m", "stephen_kit.cli", *op.argv], self.env, self.workdir)
        self.cli_children.append(child)
        return self._cli_record(op, child.code, child.out, child.wall_s)

    def _cli_in_process(self, op) -> Record:
        from stephen_kit import cli

        argv = list(op.argv)
        argv[1] = str(self.workdir / argv[1])
        sink = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        latency = perf_counter() - start
        return self._cli_record(op, code, sink.getvalue(), latency)

    def _cli_record(self, op, code: int, out: str, latency: float) -> Record:
        line = out.strip()
        expected_codes = _cli_expected_codes(op)
        key = hash((code, line)) if self.keys else None
        if code not in (0, 1, 3):
            return Record(latency, f"exit {code}", False, [], failed=f"exit {code}: {' '.join(op.argv)}", key=key)
        wrong = []
        if code not in expected_codes:
            wrong.append(f"{' '.join(op.argv)}: exit {code}, truth {op.truth}")
        if op.expect_line is not None and line != op.expect_line:
            wrong.append(f"{' '.join(op.argv)}: printed {line!r}")
        if op.argv[0] == "graph" and code == 0 and op.vertices is not None:
            if f"vertices={op.vertices};" not in line:
                wrong.append(f"{' '.join(op.argv)}: printed {line!r}, expected {op.vertices} vertices")
        if op.argv[0] in ("eq", "leq", "idem"):
            if line != {0: "yes", 1: "no", 3: "unknown"}[code]:
                wrong.append(f"{' '.join(op.argv)}: printed {line!r} with exit {code}")
        return Record(latency, str(code), code in (0, 1), wrong, key=key)


def _cli_expected_codes(op) -> set[int]:
    """Exit codes consistent with the truth: 0 yes/closed/ok, 1 no, 3 unknown."""
    return {
        "ok": {0},
        "closed": {0, 3},
        "budget-exceeded": {3},
        truth.YES: {0, 3},
        truth.NO: {1, 3},
    }[op.truth]


def _all_closed(witness: dict) -> bool:
    """True when every closure a verdict's witness reports is closed."""
    if "equality" in witness:
        return _all_closed(witness["equality"])
    statuses = [v["status"] for k, v in witness.items() if k.endswith("closure")]
    return bool(statuses) and all(s == "closed" for s in statuses)


def run_pass(runner: Runner, groups, seconds: float, limit: int | None = None, before=None):
    """Run whole groups in order, cycling, for `seconds` or `limit` groups.

    A new group starts only if the previous group's duration still fits,
    so a run of long groups ends near `seconds` instead of past it.  Each
    record notes its operation's index in the workload; under a tracer,
    spans carry "<cycle>:<index>" as their operation id.
    """
    offsets = [0]
    for g in groups:
        offsets.append(offsets[-1] + len(g))
    records = []
    start = perf_counter()
    last = 0.0
    done = 0
    while True:
        now = perf_counter()
        if limit is not None:
            if done >= limit:
                break
        elif done and now - start + last > seconds:
            break
        tracer = runner.tracer
        if before is not None:
            if tracer is not None:
                tracer.op = f"{done}:prepare"
            before()
        g = done % len(groups)
        for i, op in enumerate(groups[g]):
            index = offsets[g] + i
            if tracer is not None:
                tracer.op = f"{done}:{index}"
            record = runner.execute(op)
            record.index = index
            records.append(record)
        last = perf_counter() - now
        done += 1
    return records, done, perf_counter() - start


def best_times(records) -> dict[int, float]:
    """Each operation's best time over all its executions in the run.

    Host contention on a shared machine comes and goes in stretches of
    seconds and can slow everything by 1.5x or more while it lasts.  The
    executions of one operation are a whole cycle apart, spread over the
    run, so their best is the least disturbed reading.
    """
    best: dict[int, float] = {}
    for r in records:
        if r.failed is None:
            best[r.index] = min(best.get(r.index, math.inf), r.latency_s)
    return best


def warm_up(runner: Runner, ops) -> None:
    start = perf_counter()
    for op in ops:
        runner.execute(op)
        if perf_counter() - start >= WARMUP_S:
            break


# -- metrics ------------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it (max if none)."""
    data = sorted(latencies)
    n = len(data)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, data[rank - 1], n - rank
    return 100.0, data[-1], 0


def end_to_end(wl, records, runner: Runner, setup_times) -> tuple[dict, dict]:
    """Every end-to-end metric this workload has, and notes on how it was taken.

    Operation times are best_times(); verdict counts cover every execution.
    """
    best = best_times(records)
    lat = list(best.values())
    pct, tail_s, beyond = tail(lat)
    if wl.name == "cli-cold":
        rss_kb = max(c.maxrss_kb for c in runner.cli_children)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m = {
        "setup_s": (min(setup_times), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "decided_share": (sum(r.decided for r in records) / len(records), "share"),
        "wrong_verdicts": (sum(len(r.wrong) for r in records), "count"),
        "failed_share": (sum(r.failed is not None for r in records) / len(records), "share"),
    }
    notes = {
        "operations": len(lat),
        "executions": len(records),
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "all_executions_p50_ms": statistics.median(r.latency_s for r in records) * 1e3,
    }
    if wl.name == "thin-divergent":
        ops = wl.ops()
        by_cap = {ops[i].budget[1]: (t, i) for i, t in best.items()}
        top, half = workloads.THIN_BUDGETS[-1], workloads.THIN_BUDGETS[-2]
        vertices = max(r.vertices for r in records if r.index == by_cap[top][1])
        m["vertices_per_s"] = (vertices / by_cap[top][0], "1/s")
        m["scaling_exponent"] = (math.log2(by_cap[top][0] / by_cap[half][0]), "log2")
        notes["closure_best_s"] = {str(cap): t for cap, (t, _) in sorted(by_cap.items())}
    if wl.name == "cli-cold":
        # Each CLI run follows its own bare interpreter run, so their
        # difference cancels contention that lasts longer than both.
        diffs = [c.wall_s - b.wall_s for c, b in zip(runner.cli_children, runner.bare)]
        m["cli_overhead_ms"] = (statistics.median(diffs) * 1e3, "ms")
        notes["bare_interpreter_ms"] = statistics.median(b.wall_s for b in runner.bare) * 1e3
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, notes


def cli_layer(runner: Runner, records_untraced) -> dict:
    """Costs of the CLI entry point, from child processes and in-process main()."""
    env, cwd = runner.env, runner.workdir
    bare = [bare_interpreter(env, cwd).wall_s for _ in range(BARE_REPEATS)]
    imports = [
        run_child([sys.executable, "-c", "import stephen_kit.cli"], env, cwd).wall_s
        for _ in range(BARE_REPEATS)
    ]
    m = {
        "cli.interpreter_ms": statistics.median(bare) * 1e3,
        "cli.import_ms": (statistics.median(imports) - statistics.median(bare)) * 1e3,
    }
    if runner.wl.name == "cli-cold":
        m["cli.main_ms"] = statistics.median(r.latency_s for r in records_untraced) * 1e3
        m["cli.process_ms"] = statistics.median(c.wall_s for c in runner.cli_children) * 1e3
    return m


# -- the run ---------------------------------------------------------------------------------


def listed_metrics(section: str) -> list[str] | None:
    """Metric names BENCHMARK.json lists for the last output line, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return [m["name"] for m in json.loads(path.read_text())[section]]


def unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "share" in name:
        return "share"
    if name.endswith(("_yield", "_per_query")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "stephen_kit" / "__init__.py").is_file():
        print(f"error: no stephen_kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop(ROUNDS_ENV, None)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    wl = workloads.BUILDERS[args.workload](args.seed)
    for name in wl.presentations:
        (workdir / (name.lower() + ".pres")).write_text(workloads.presentation_text(name))
    env = child_env()
    bare = [bare_interpreter(env, workdir).wall_s for _ in range(BARE_REPEATS)]
    report = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed, statistics.median(bare) * 1e3),
    }
    job = setup_job(wl)

    import stephen_kit as sk

    presentations, parsed = prepare(sk, job["presentations"], job["words"])
    words = dict(zip(map(tuple, job["words"]), parsed))
    runner = Runner(wl, sk, presentations, words, workdir, env, keys=bool(args.trace))
    warm_up(runner, wl.ops())
    runner.bare.clear()
    runner.cli_children.clear()

    problems: list[str] = []
    if args.trace:
        records, metrics = traced_run(args, wl, sk, runner, job, problems)
        report["per_layer"] = metrics
        wanted = listed_metrics("per_layer")
    else:
        setup = SetupSampler(job, env, workdir, args.seconds / SETUP_SAMPLES)
        setup.sample()  # compiles bytecode; not counted
        setup.times.append(setup.sample())
        records, groups_run, wall = run_pass(runner, wl.groups, args.seconds, before=setup.maybe_sample)
        metrics, notes = end_to_end(wl, records, runner, setup.times)
        report.update(end_to_end=metrics, notes=notes, groups_run=groups_run, wall_s=wall,
                      setup_s_samples=setup.times)
        wanted = listed_metrics("end_to_end")
    failed = sum(r.failed is not None for r in records)
    wrong = [w for r in records for w in r.wrong]
    report["wrong"] = wrong[:50]
    report["failures"] = sorted({r.failed for r in records if r.failed})[:50]
    report["problems"] = problems
    correct = not wrong and not problems

    path = OUT / f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for key, entry in metrics.items():
        print(f"{key:34s} {entry['value']:.6g} {entry['unit']}")
    for line in wrong[:10] + problems:
        print("WRONG:", line)
    print(f"report: {path.relative_to(ROOT)}")
    shown = metrics if wanted is None else {k: metrics[k] for k in wanted}
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": shown}))
    return 0 if correct else 1


def traced_run(args, wl, sk, runner: Runner, job, problems: list):
    """Whole cycles untraced, then as many traced; returns per-layer metrics.

    A cycle parses the workload's inputs (except on cli-cold, where each
    command parses its own) and runs every operation once.  Per-layer
    times and counts are given per cycle, so with the same code and seed
    every count repeats exactly.
    """
    from spans import Tracer

    half = args.seconds / 2
    cycle = [wl.ops()]
    process_records = []
    if wl.name == "cli-cold":
        # Spans cannot be recorded inside child processes: time the
        # processes, then run the same commands through cli.main() here.
        process_records, cycles, _ = run_pass(runner, cycle, half)
        runner.in_process_cli = True
        warm_up(runner, wl.ops())
        untraced, _, untraced_wall = run_pass(runner, cycle, half, limit=cycles)
        if [r.key for r in process_records] != [r.key for r in untraced]:
            problems.append("CLI processes and in-process cli.main() disagree")
        parse = None
    else:

        def parse():
            prepare(sk, job["presentations"], job["words"])

        untraced, cycles, untraced_wall = run_pass(runner, cycle, half, before=parse)

    tracer = Tracer()
    tracer.install()
    try:
        runner.tracer = tracer
        traced, _, traced_wall = run_pass(runner, cycle, half, limit=cycles, before=parse)
    finally:
        runner.tracer = None
        tracer.uninstall()
    if [(r.outcome, r.key) for r in untraced] != [(r.outcome, r.key) for r in traced]:
        problems.append("traced and untraced runs gave different verdicts or graphs")

    layer = tracer.layer_metrics(traced_wall)
    layer["bench.trace_overhead_s"] = traced_wall - untraced_wall
    for name in layer:
        if unit(name) in ("s", "count"):
            layer[name] /= cycles
    layer["bench.trace_overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    layer["bench.cycles"] = cycles
    layer["bench.spans"] = len(tracer.spans)
    layer.update(cli_layer(runner, untraced))
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in layer.items()}
    return untraced + traced + process_records, metrics


if __name__ == "__main__":
    sys.exit(main())
