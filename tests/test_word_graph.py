import json
from collections import defaultdict
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from stephen_kit import BirootedGraph, Word
from stephen_kit.word_graph import GraphBuilder, fold, linear_graph
from support import assert_builder_consistent, isomorphic, multigraphs, pos, reversed_ids, w


# Independent fold-to-fixpoint oracle: rebuild the full adjacency index on
# every pass and merge one clash at a time by edge substitution.
def naive_fold(g: BirootedGraph):
    edges = set(g.edges)
    alpha, beta = g.alpha, g.beta
    while True:
        by_out = defaultdict(set)
        by_in = defaultdict(set)
        for s, x, t in edges:
            by_out[(s, x)].add(t)
            by_in[(t, x)].add(s)
        clash = None
        for group in chain(by_out.values(), by_in.values()):
            if len(group) > 1:
                clash = sorted(group)[:2]
                break
        if clash is None:
            return BirootedGraph(alpha, beta, edges)
        keep, drop = clash
        edges = {
            (keep if s == drop else s, x, keep if t == drop else t)
            for s, x, t in edges
        }
        alpha = keep if alpha == drop else alpha
        beta = keep if beta == drop else beta


signed_letters = st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1)))
words = st.builds(lambda ls: Word(tuple(ls)), st.lists(signed_letters, max_size=12))


# --- linear graphs -----------------------------------------------------------


def test_linear_graph_positive():
    g = linear_graph(pos("ab"))
    assert len(g.vertices) == 3
    assert g.edges == frozenset({(0, "a", 1), (1, "b", 2)})
    assert g.alpha == 0 and g.beta == 2
    assert g.accepts(pos("ab"))


def test_linear_graph_inverse_letter():
    g = linear_graph(w("aa^"))
    assert len(g.vertices) == 3
    assert g.edges == frozenset({(0, "a", 1), (2, "a", 1)})


def test_linear_graph_empty_word():
    g = linear_graph(Word())
    assert len(g.vertices) == 1
    assert g.alpha == g.beta
    assert g.edges == frozenset()
    assert g.accepts(Word())


@given(words)
def test_linear_graph_size(word):
    g = linear_graph(word)
    assert len(g.vertices) == len(word) + 1
    assert len(g.edges) == len(word)


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError, match="not connected"):
        BirootedGraph(0, 1, [(2, "a", 3)])
    with pytest.raises(ValueError, match="not connected"):
        BirootedGraph(0, 1, [(0, "a", 1), (2, "b", 3)])


@pytest.mark.parametrize(
    "table",
    [
        {0: {("a", 1): {1}}, 1: {}},  # the edge is not listed at 1
        {0: {("a", 1): {1}}},  # 1 has no row
    ],
    ids=["lacking-back-edge", "dangling-target"],
)
def test_adjacency_table_refused(table):
    # A graph is built from edge triples or a folded builder only; a raw
    # table could name an edge at one end alone or a vertex it lacks.
    with pytest.raises(TypeError):
        BirootedGraph(0, 1, table)


def test_disconnected_builder_rejected_on_freeze():
    b = GraphBuilder.from_word(pos("ab"))
    b.link(b.new_vertex(), ("a", 1), b.new_vertex())
    with pytest.raises(ValueError, match="not connected"):
        b.freeze()


# --- folding -----------------------------------------------------------------


def test_fold_cancelling_pair():
    folded = fold(linear_graph(w("aa^")))
    assert len(folded.vertices) == 2
    assert folded.alpha == folded.beta
    assert len(folded.edges) == 1


def test_fold_deterministic_input_untouched():
    folded = fold(linear_graph(pos("ab")))
    assert len(folded.vertices) == 3
    assert isomorphic(folded, linear_graph(pos("ab")))


def test_fold_retrace():
    folded = fold(linear_graph(w("aa^a")))
    assert len(folded.vertices) == 2
    assert isomorphic(folded, linear_graph(pos("a")))


@given(words)
def test_fold_matches_naive_oracle(word):
    g = linear_graph(word)
    assert isomorphic(fold(g), naive_fold(g))


@given(multigraphs())
@settings(max_examples=300)
def test_fold_multigraph_matches_naive_oracle(g):
    folded = fold(g)
    assert isomorphic(folded, naive_fold(g))
    assert isomorphic(fold(reversed_ids(g)), folded)


@given(multigraphs())
def test_fold_keeps_builder_consistent(g):
    # The adjacency is the builder's only record, so after each merge the
    # roots, touched and every target must be live, and fold's count must
    # be the number of merges it made.
    b = GraphBuilder.from_graph(g)
    merges = []
    merge = b.merge

    def checked_merge(u, v):
        keep = merge(u, v)
        merges.append(keep)
        assert_builder_consistent(b)
        return keep

    b.merge = checked_merge
    assert b.fold() == len(merges) == len(g.vertices) - b.vertex_count()
    assert_builder_consistent(b)
    assert b.freeze().is_deterministic


@given(words)
def test_fold_idempotent(word):
    once = fold(linear_graph(word))
    assert isomorphic(fold(once), once)


@given(words)
def test_fold_result_accepts_own_word(word):
    assert fold(linear_graph(word)).accepts(word)


@given(words)
@settings(max_examples=60)
def test_fold_confluence(word):
    g = linear_graph(word)
    assert isomorphic(fold(g), fold(reversed_ids(g)))


# --- acceptance --------------------------------------------------------------


def test_accepts_rejects_wrong_word():
    g = fold(linear_graph(pos("ab")))
    assert g.accepts(pos("ab"))
    assert not g.accepts(pos("ba"))
    assert not g.accepts(pos("a"))


def test_accepts_requires_deterministic():
    g = linear_graph(w("aa^"))
    assert not g.is_deterministic
    with pytest.raises(ValueError, match="deterministic"):
        g.accepts(pos("a"))


def test_walk_from_interior_vertex():
    g = linear_graph(pos("ab"))
    assert g.walk(1, pos("b")) == 2
    assert g.walk(1, w("a^")) == 0
    assert g.walk(1, pos("a")) is None


# --- isomorphism -------------------------------------------------------------


def test_isomorphic_identity_and_labels():
    assert isomorphic(linear_graph(pos("ab")), linear_graph(pos("ab")))
    assert not isomorphic(linear_graph(pos("ab")), linear_graph(pos("ba")))


def test_isomorphic_respects_beta():
    chain2 = linear_graph(pos("aa"))
    looped = fold(linear_graph(w("aa^")))
    assert not isomorphic(chain2, looped)


def test_isomorphic_requires_deterministic():
    with pytest.raises(ValueError, match="deterministic"):
        isomorphic(linear_graph(w("aa^")), linear_graph(pos("a")))


@given(words)
@settings(max_examples=60)
def test_isomorphic_equivalence_relation(word):
    # Three independent routes to the same folded value.
    a = fold(linear_graph(word))
    b = fold(reversed_ids(linear_graph(word)))
    c = naive_fold(linear_graph(word))
    assert isomorphic(a, a)
    assert isomorphic(a, b) == isomorphic(b, a)
    assert isomorphic(a, b) and isomorphic(b, c) and isomorphic(a, c)


# --- serialization -----------------------------------------------------------


def test_to_json_schema_and_stability():
    g = fold(linear_graph(w("aa^b")))
    payload = g.to_json()
    assert set(payload) == {"alpha", "beta", "vertices", "edges"}
    assert payload["alpha"] == 0
    assert payload["vertices"] == list(range(len(g.vertices)))
    assert all(len(e) == 3 for e in payload["edges"])
    assert json.dumps(payload) == json.dumps(g.to_json())


def test_canonical_order_by_letter_then_positive_first():
    # Vertex 5 reaches 7 by a, 6 by a^-1 and 8 by b: letters in order, and
    # for each letter the positive orientation before the inverse.
    g = BirootedGraph(5, 8, [(5, "b", 8), (6, "a", 5), (5, "a", 7)])
    assert g.bfs_order() == (5, 7, 6, 8)
    assert g.to_json()["edges"] == [[0, "a", 1], [0, "b", 3], [2, "a", 0]]


def test_to_json_canonical_across_vertex_names():
    # Same shape with shuffled vertex ids serializes identically.
    g1 = BirootedGraph(0, 2, [(0, "a", 1), (1, "b", 2)])
    g2 = BirootedGraph(7, 3, [(7, "a", 5), (5, "b", 3)])
    assert g1.to_json() == g2.to_json()
    assert g1.to_dot() == g2.to_dot()


def test_to_dot_single_edge():
    dot = linear_graph(pos("a")).to_dot()
    assert dot.startswith("digraph birooted {")
    assert "0 [shape=square];" in dot
    assert "1 [shape=doublecircle];" in dot
    assert '0 -> 1 [label="a"];' in dot


def test_to_dot_empty_word_doubly_marked():
    dot = linear_graph(Word()).to_dot()
    assert "0 [shape=Msquare];" in dot
    assert "->" not in dot


def test_canonical_key_distinguishes_roots():
    g1 = fold(linear_graph(w("aa^")))   # alpha == beta
    g2 = linear_graph(pos("a"))               # alpha != beta
    assert g1.canonical_key() != g2.canonical_key()
