"""The benchmark's tracer (bench/spans.py) finds every name it wraps.

The tracer wraps package callables by name, so without this test a
renamed method or function would show only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import stephen_kit
from stephen_kit import Answer, engine, word_graph
from support import COMM, pos, w

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer():
    originals = (stephen_kit.fold, engine.close, word_graph.GraphBuilder.fold)
    tracer = load_spans().Tracer()
    c = tracer.counts
    tracer.install()
    try:
        # Calls go through the modules, where the tracer rebinds the names.
        result = stephen_kit.schutzenberger_automaton(pos("ab"), COMM)
        assert (c["engine.closures"], c["engine.rounds"]) == (1, result.rounds) == (1, 1)
        assert (c["word_graph.freeze_calls"], c["word_graph.freeze_vertices"]) == (1, 4)
        stephen_kit.fold(stephen_kit.linear_graph(w("aa^")))
        assert c["word_graph.fold_merges"] == result.fold_events + 1
        assert c["word_graph.from_graph_vertices"] == 3
        verdict = stephen_kit.decide_equal(pos("ab"), pos("ba"), COMM)
        assert verdict.answer is Answer.YES
        assert (c["decision.queries"], c["decision.closures"]) == (1, 2)
        assert tracer.decided["eq"]["yes"] == 1
        assert c["word_graph.accept_calls"] == 2
        sites = stephen_kit.find_expansions(stephen_kit.linear_graph(pos("ab")), COMM)
        assert (c["engine.sites_found"], c["engine.scan_vertices"]) == (len(sites), 3) == (1, 3)
    finally:
        tracer.uninstall()
    assert set(tracer.self_times()) == {
        "engine.close",
        "engine.site_scan",
        "decision",
        "word_graph.accept",
        "word_graph.fold",
        "word_graph.freeze",
        "word_graph.from_graph",
    }
    assert (stephen_kit.fold, engine.close, word_graph.GraphBuilder.fold) == originals
