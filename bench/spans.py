"""Outside-in tracing: spans around the public callables of each layer.

Tracer.install() replaces each traced callable, wherever a stephen_kit
module has bound it, by a wrapper that records a span (name, start, end,
parent, operation id) and updates counters; uninstall() puts the
originals back.  Nothing under src/ is edited.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import stephen_kit
from stephen_kit import cli, decision, engine, presentation, word_graph

MODULES = (stephen_kit, presentation, word_graph, engine, decision, cli)
DECISION_KINDS = {"decide_equal": "eq", "decide_natural_leq": "leq", "is_idempotent": "idem"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.counts: Counter = Counter()
        self.decided: dict[str, Counter] = defaultdict(Counter)
        self.decision_depth = 0
        self._restore: list = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch_function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, after)
        for mod in MODULES:
            if getattr(mod, attr, None) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def _patch_method(self, cls, attr: str, name: str, after=None) -> None:
        raw = cls.__dict__[attr]
        self._restore.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, after)))
        else:
            setattr(cls, attr, self._wrap(name, raw, after))

    def _patch_decision(self, attr: str) -> None:
        original = getattr(decision, attr)
        kind = DECISION_KINDS[attr]
        inner = self._wrap("decision", original)

        def query(*args, **kwargs):
            self.decision_depth += 1
            try:
                verdict = inner(*args, **kwargs)
            finally:
                self.decision_depth -= 1
            if self.decision_depth == 0:
                self.counts["decision.queries"] += 1
                self.decided[kind][verdict.answer.value] += 1
            return verdict

        query.__wrapped__ = original
        for mod in MODULES:
            if getattr(mod, attr, None) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, query)

    def install(self) -> None:
        c = self.counts

        def parsed(args, kwargs, result):
            c["presentation.parse_calls"] += 1

        def frozen(args, kwargs, result):
            c["word_graph.freeze_calls"] += 1
            c["word_graph.freeze_vertices"] += len(args[0].vertices)

        def rebuilt(args, kwargs, result):
            c["word_graph.from_graph_vertices"] += len(args[1].vertices)

        def folded(args, kwargs, result):
            c["word_graph.fold_merges"] += result

        def accepted(args, kwargs, result):
            c["word_graph.accept_calls"] += 1

        def scanned(args, kwargs, result):
            c["engine.scan_vertices"] += len(args[0].vertices)
            c["engine.sites_found"] += len(result)

        def closed(args, kwargs, result):
            c["engine.closures"] += 1
            c["engine.rounds"] += result.rounds
            if self.decision_depth:
                c["decision.closures"] += 1
            budget = args[2] if len(args) > 2 else kwargs.get("budget", engine.Budget())
            over = len(result.graph.vertices) - budget.max_vertices
            if result.status is engine.Status.BUDGET_EXCEEDED and over > 0:
                c["engine.vertex_overshoot"] += over

        self._patch_function(presentation, "parse_presentation", "presentation.parse", parsed)
        self._patch_function(presentation, "parse_word", "presentation.parse", parsed)
        for attr in ("is_adian", "overlap_profile", "classify_finiteness"):
            self._patch_function(presentation, attr, "presentation.analyze")
        self._patch_method(word_graph.BirootedGraph, "__init__", "word_graph.freeze", frozen)
        self._patch_method(word_graph.GraphBuilder, "freeze", "word_graph.freeze")
        self._patch_method(word_graph.GraphBuilder, "from_graph", "word_graph.from_graph", rebuilt)
        self._patch_method(word_graph.GraphBuilder, "fold", "word_graph.fold", folded)
        self._patch_function(word_graph, "fold", "word_graph.fold")
        self._patch_method(word_graph.BirootedGraph, "accepts", "word_graph.accept", accepted)
        self._patch_function(engine, "find_expansions", "engine.site_scan", scanned)
        self._patch_function(engine, "close", "engine.close", closed)
        self._patch_function(engine, "schutzenberger_automaton", "engine.close")
        for attr in DECISION_KINDS:
            self._patch_decision(attr)
        self._patch_function(cli, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def layer_metrics(self, traced_wall_s: float) -> dict[str, float]:
        """Per-layer self times, counts and ratios of the traced pass."""
        st = self.self_times()
        c = self.counts
        m = {
            "presentation.parse_s": st.get("presentation.parse", 0.0),
            "presentation.parse_calls": c["presentation.parse_calls"],
            "presentation.analyze_s": st.get("presentation.analyze", 0.0),
            "word_graph.freeze_s": st.get("word_graph.freeze", 0.0),
            "word_graph.freeze_calls": c["word_graph.freeze_calls"],
            "word_graph.freeze_vertices": c["word_graph.freeze_vertices"],
            "word_graph.from_graph_s": st.get("word_graph.from_graph", 0.0),
            "word_graph.from_graph_vertices": c["word_graph.from_graph_vertices"],
            "word_graph.fold_s": st.get("word_graph.fold", 0.0),
            "word_graph.fold_merges": c["word_graph.fold_merges"],
            "word_graph.accept_s": st.get("word_graph.accept", 0.0),
            "word_graph.accept_calls": c["word_graph.accept_calls"],
            "engine.close_s": st.get("engine.close", 0.0),
            "engine.closures": c["engine.closures"],
            "engine.rounds": c["engine.rounds"],
            "engine.site_scan_s": st.get("engine.site_scan", 0.0),
            "engine.scan_vertices": c["engine.scan_vertices"],
            "engine.sites_found": c["engine.sites_found"],
            "engine.site_yield": c["engine.sites_found"] / max(1, c["engine.scan_vertices"]),
            "engine.vertex_overshoot": c["engine.vertex_overshoot"],
            "decision.queries": c["decision.queries"],
            "decision.closures_per_query": c["decision.closures"] / max(1, c["decision.queries"]),
            "decision.self_s": st.get("decision", 0.0),
            "cli.main_self_s": st.get("cli.main", 0.0),
            "bench.unattributed_s": traced_wall_s - self.root_time(),
        }
        for kind in ("eq", "leq", "idem"):
            answers = self.decided[kind]
            total = sum(answers.values())
            m[f"decision.decided_share.{kind}"] = (
                (answers["yes"] + answers["no"]) / total if total else 0.0
            )
        return m

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, operation id."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
