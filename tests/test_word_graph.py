import copy
import json
import random
from collections import defaultdict
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from stephen_kit import BirootedGraph, Word, schutzenberger_automaton
from stephen_kit.engine import close
from stephen_kit.word_graph import GraphBuilder, fold
from support import (
    FREE2,
    assert_builder_consistent,
    isomorphic,
    linear_graph,
    multigraphs,
    new_vertex,
    pos,
    random_signed_word,
    reversed_ids,
    spell,
    w,
)


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


def test_negative_vertex_id_refused():
    with pytest.raises(ValueError, match="negative vertex id -1"):
        BirootedGraph(0, 1, [(0, "a", 1), (1, "b", -1)])
    with pytest.raises(ValueError, match="negative vertex id -2"):
        BirootedGraph(-2, 0, [(-2, "a", 0)])


def test_gaps_in_vertex_ids_are_kept():
    # Rows run to the largest id; ids 0-4, 6 and 7 name no vertex.
    g = BirootedGraph(5, 8, [(5, "a", 8), (8, "b", 9)])
    assert g.vertices == {5, 8, 9}
    assert g.walk(5, pos("ab")) == 9 and g.walk(9, w("b^a^")) == 5
    assert g.walk(5, pos("b")) is None and g.accepts(pos("a"))
    assert g.to_json() == {
        "alpha": 0,
        "beta": 1,
        "vertices": [0, 1, 2],
        "edges": [[0, "a", 1], [1, "b", 2]],
    }
    assert g.canonical_key() == BirootedGraph(0, 1, [(0, "a", 1), (1, "b", 2)]).canonical_key()
    b = GraphBuilder.from_graph(g)
    assert b.vertex_count() == 3 and new_vertex(b) == 10
    folded = fold(BirootedGraph(5, 8, [(5, "a", 8), (9, "a", 8)]))
    assert folded.vertices == {5, 8} and folded.walk(5, pos("a")) == 8


def test_disconnected_builder_rejected_on_freeze():
    b = GraphBuilder.from_word(pos("ab"))
    b.link(new_vertex(b), b.codes["a"], new_vertex(b))
    with pytest.raises(ValueError, match="not connected"):
        b.freeze()


def test_unfolded_builder_freezes_every_linked_edge():
    # A link whose slot is taken is kept pending, and freeze lists it with
    # the placed edges, so the frozen graph is not deterministic.  aa^
    # spells 0 -a-> 1 and then 2 -a-> 1, whose slot at 1 holds 0.
    spelled = GraphBuilder.from_word(w("aa^"))
    g = spelled.freeze()
    assert not g.is_deterministic
    assert g.edges == {(0, "a", 1), (2, "a", 1)}
    assert spelled.fold() == 1 and spelled.vertex_count() == 2
    # Linking onto an existing edge's slot: 0 -a-> 1 is there, so 0 -a-> 2
    # is pending; linking 0 -a-> 1 again adds nothing.
    b = GraphBuilder.from_word(pos("ab"))
    b.link(0, b.codes["a"], 1)
    assert b.freeze().is_deterministic
    b.link(0, b.codes["a"], 2)
    g = b.freeze()
    assert not g.is_deterministic
    assert g.edges == {(0, "a", 1), (1, "b", 2), (0, "a", 2)}
    assert b.fold() == 1 and isomorphic(b.freeze(), fold(g))
    # With nothing pending, fold merges nothing and leaves the rows as
    # they are.
    b = GraphBuilder.from_word(pos("abb"))
    edges, roots = b.freeze().edges, (b.alpha, b.beta)
    assert b.fold() == 0
    assert b.freeze().edges == edges and (b.alpha, b.beta) == roots
    assert b.vertex_count() == 4
    assert_builder_consistent(b)


def _layout(b: GraphBuilder):
    return b._rows, b._pending, b.log, b.alpha, b.beta, b.letters


def test_from_word_keeps_the_spelled_layout():
    # from_word links its chain one step at a time; the reference spells
    # the same chain through the test-side speller, and the raw rows,
    # pending list and log must match, backtracking words included.
    def spelled(word, letters=None):
        b = GraphBuilder({x for x, _ in word.letters} if letters is None else letters)
        b.beta = spell(b, new_vertex(b), word.letters)
        return b

    rng = random.Random(22)
    words = [Word(), w("aa^"), w("a^ab"), w("ab^ba^a"), w("b^b^bb")]
    words += [random_signed_word(rng, "abc", 8) for _ in range(300)]
    for word in words:
        assert _layout(GraphBuilder.from_word(word)) == _layout(spelled(word))
        wider = ("a", "b", "c", "d")
        assert _layout(GraphBuilder.from_word(word, wider)) == _layout(spelled(word, wider))
    assert GraphBuilder.from_word(w("aa^")).log == [(0, 0, 1, None)]
    assert GraphBuilder.from_word(w("aa^"))._pending == [(1, 1, 2)]
    assert _layout(GraphBuilder.from_word(Word(), "b")) == ([[None, None]], [], [], 0, 0, ("b",))
    with pytest.raises(KeyError):
        GraphBuilder.from_word(pos("ab"), "a")


def test_link_places_pends_or_skips():
    b = GraphBuilder.from_word(pos("ab"))
    a, b_ = b.codes["a"], b.codes["b"]
    layout = copy.deepcopy(_layout(b))
    b.link(0, a, 1)  # already there: nothing is placed, pended or logged
    b.link(1, a ^ 1, 0)  # the same edge read backwards
    assert _layout(b) == layout
    b.link(0, a, 2)  # the slot at the source holds 1
    b.link(2, a, 1)  # the slot at the target holds 0
    b.link(2, b_ ^ 1, 0)  # an inverse step: the b^ slot at 2 holds 1
    assert b._pending == [(0, a, 2), (2, a, 1), (2, b_ ^ 1, 0)]
    assert b._rows == layout[0] and b.log == layout[2]
    b.link(2, a, 0)  # both slots free: placed and logged
    assert b._rows[2][a] == 0 and b._rows[0][a ^ 1] == 2
    assert b.log[-1] == (2, a, 0, None)


def test_handed_unfolded_builder_equals_its_freeze():
    # A builder is handed over folded or not: an unfolded one gives the
    # non-deterministic graph its freeze() gives, pending edges included,
    # and linear_graph hands its chain over that way.
    words = (w("aa^"), w("ab^ba^"), w("aa^a^a"))
    builders = [GraphBuilder.from_word(word) for word in words]
    # A link onto a taken slot, twice: the pending list holds it twice,
    # and the graph lists it once.
    b = GraphBuilder.from_word(pos("ab"))
    b.link(0, b.codes["a"], 2)
    b.link(0, b.codes["a"], 2)
    builders.append(b)
    for b in builders:
        frozen = b.freeze()
        handed = BirootedGraph(b.alpha, b.beta, b)
        assert not handed.is_deterministic and not frozen.is_deterministic
        assert handed.edges == frozen.edges
        assert handed.vertices == frozen.vertices
        assert handed.to_json() == frozen.to_json()
        assert handed.to_dot() == frozen.to_dot()
        assert handed.canonical_key() == frozen.canonical_key()
    assert handed.edges == {(0, "a", 1), (1, "b", 2), (0, "a", 2)}
    assert not any(linear_graph(word).is_deterministic for word in words)


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
    # The rows are the folded builder's only record, so after the fold the
    # roots and every target must be live, every log entry with live ends
    # must name an edge, and fold's count must be the number of vertices
    # it removed.
    b = GraphBuilder.from_graph(g)
    assert b.fold() == len(g.vertices) - b.vertex_count()
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


def test_walk_and_accepts_of_a_letter_the_graph_lacks():
    # A closure over FREE2 of a builder over a and b has a code for b but
    # no b edge; A(a) over FREE2 and a graph built from edge triples have
    # no code for b at all; z is in no alphabet.
    coded = close(GraphBuilder.from_word(pos("a"), FREE2.alphabet), FREE2).graph
    closed = schutzenberger_automaton(pos("a"), FREE2).graph
    triples = BirootedGraph(0, 1, [(0, "a", 1)])
    assert coded._letters == ("a", "b") and closed._letters == ("a",)
    for g in (coded, closed, triples):
        assert g.accepts(pos("a"))
        assert not g.accepts(pos("b"))
        assert not g.accepts(w("ab^"))
        assert not g.accepts(Word((("z", 1),)))
        assert g.walk(g.alpha, pos("b")) is None
        assert g.walk(g.beta, w("b^")) is None
        assert g.walk(g.beta, w("a^")) == g.alpha


def test_walk_from_interior_vertex():
    g = linear_graph(pos("ab"))
    assert g.walk(1, pos("b")) == 2
    assert g.walk(1, w("a^")) == 0
    assert g.walk(1, pos("a")) is None


def test_walk_from_an_id_that_is_no_vertex():
    # Rows sit in a list, so a negative id would index from its end, one
    # past the last would overrun it, a gap would read an empty row, and an
    # id that is no int could not index it.
    g = BirootedGraph(0, 1, [(0, "a", 1)])
    gap = BirootedGraph(0, 3, [(0, "a", 3)])
    for graph, start, word in [
        (g, -1, w("a^")),
        (g, -2, pos("a")),
        (g, 2, pos("a")),
        (g, 2, Word()),
        (gap, 1, pos("a")),
        (gap, 2, Word()),
        (g, "0", pos("a")),
    ]:
        with pytest.raises(ValueError, match=f"^vertex {start!r} is not in the graph$"):
            graph.walk(start, word)
    for graph, beta in ((g, 1), (gap, 3)):
        assert graph.walk(graph.alpha, pos("a")) == beta
        assert graph.walk(graph.beta, w("a^")) == 0
        assert graph.walk(graph.beta, Word()) == beta
        assert graph.accepts(pos("a")) and not graph.accepts(w("a^"))


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
