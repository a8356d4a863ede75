import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from stephen_kit import (
    BirootedGraph,
    Budget,
    Presentation,
    Status,
    Word,
    count_r_word_occurrences,
    decide_equal,
    schutzenberger_automaton,
)
from stephen_kit import engine, word_graph
from stephen_kit.engine import close, find_expansions
from stephen_kit.word_graph import GraphBuilder, fold, linear_graph
from support import (
    CASE1,
    CASE2,
    COMM,
    FACT1,
    SUBWORD,
    StaleSiteError,
    assert_builder_consistent,
    elementary_expansion,
    full_p_expansion,
    isomorphic,
    multigraphs,
    naive_close,
    pos,
    random_positive_word,
    random_signed_word,
    w,
)

AB, BA = pos("ab").letters, pos("ba").letters


positive_words = st.builds(
    lambda ls: Word(tuple((x, 1) for x in ls)),
    st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
)


# --- find_expansions ---------------------------------------------------------


def test_find_expansions_linear_ab():
    sites = find_expansions(linear_graph(pos("ab")), COMM)
    assert sites == [(0, 2, (AB, BA))]


def test_find_expansions_no_occurrence():
    assert find_expansions(linear_graph(pos("aa")), COMM) == []


def test_find_expansions_closed_graph_empty():
    result = schutzenberger_automaton(pos("ab"), COMM)
    assert result.status is Status.CLOSED
    assert find_expansions(result.graph, COMM) == []


def test_find_expansions_requires_deterministic():
    with pytest.raises(ValueError, match="deterministic"):
        find_expansions(linear_graph(w("aa^")), COMM)


def test_find_expansions_canonical_order():
    sites = find_expansions(linear_graph(pos("abab")), COMM)
    # ab readable at 0 and 2, ba readable at 1.
    assert sites == [(0, 2, (AB, BA)), (1, 3, (BA, AB)), (2, 4, (AB, BA))]


# --- elementary expansion ----------------------------------------------------


def test_elementary_expansion_sews_missing_side():
    g = linear_graph(pos("ab"))
    (site,) = find_expansions(g, COMM)
    expanded = elementary_expansion(g, site)
    assert len(expanded.vertices) == 4
    assert len(expanded.edges) == 4
    # New path carries ba from alpha to beta alongside the ab chain.
    assert expanded.is_deterministic
    assert expanded.accepts(pos("ba"))


def test_elementary_expansion_invalid_site():
    g = linear_graph(pos("a"))
    bogus = (0, 1, (AB, BA))
    with pytest.raises(ValueError, match="invalid site"):
        elementary_expansion(g, bogus)


def test_elementary_expansion_stale_site():
    # Both sides already join 0 to 2, so the site is stale.
    g = BirootedGraph(0, 2, [(0, "a", 1), (1, "b", 2), (0, "b", 3), (3, "a", 2)])
    with pytest.raises(StaleSiteError):
        elementary_expansion(g, (0, 2, (AB, BA)))


def test_elementary_expansion_does_not_fold():
    # Relation sides sharing a first letter: sewing duplicates the letter
    # at the start vertex, and the result must stay unfolded.
    from stephen_kit import Presentation

    p = Presentation(("a", "b"), ((pos("aa"), pos("ab")),))
    g = linear_graph(pos("aa"))
    (site,) = find_expansions(g, p)
    expanded = elementary_expansion(g, site)
    assert not expanded.is_deterministic
    assert len(expanded.vertices) == len(g.vertices) + 1


# --- full rounds -------------------------------------------------------------


def test_full_p_expansion_commutative_square():
    result = full_p_expansion(linear_graph(pos("ab")), COMM)
    assert len(result.vertices) == 4
    assert len(result.edges) == 4
    assert result.accepts(pos("ab")) and result.accepts(pos("ba"))


def test_full_p_expansion_without_sites():
    g = linear_graph(pos("aa"))
    result = full_p_expansion(g, COMM)
    assert isomorphic(result, g)


def test_full_p_expansion_single_round_aab():
    result = full_p_expansion(linear_graph(pos("aab")), COMM)
    assert len(result.vertices) == 5


def test_full_p_expansion_defers_new_sites():
    # Round one of aab sews only the site visible at round start; the site
    # it reveals is handled in round two.
    first = full_p_expansion(linear_graph(pos("aab")), COMM)
    assert find_expansions(first, COMM) != []
    second = full_p_expansion(first, COMM)
    assert find_expansions(second, COMM) == []


@given(positive_words)
@settings(max_examples=40)
def test_full_round_order_is_canonical_up_to_iso(word):
    # Sewing a round's sites in reverse order folds to the same graph.
    for p in (COMM, CASE1):
        g = fold(linear_graph(word))
        backward = GraphBuilder.from_graph(g)
        engine._sew_round(backward, find_expansions(g, p)[::-1])
        assert isomorphic(full_p_expansion(g, p), backward.freeze())


# --- closure -----------------------------------------------------------------


def test_close_commutative_golden():
    result = close(GraphBuilder.from_word(pos("ab")), COMM, Budget(10, 1000))
    assert result.status is Status.CLOSED
    assert result.rounds == 1
    assert len(result.graph.vertices) == 4
    assert result.vertex_history == (3, 4)
    assert result.fold_events == 0


def test_close_sews_whole_relation_side():
    result = close(GraphBuilder.from_word(pos("c")), CASE1, Budget(10, 1000))
    assert result.status is Status.CLOSED
    assert result.rounds == 1
    assert len(result.graph.vertices) == 4
    assert result.graph.accepts(pos("aba"))


def test_close_budget_exceeded():
    result = close(GraphBuilder.from_word(pos("ab")), SUBWORD, Budget(1, 1000))
    assert result.status is Status.BUDGET_EXCEEDED
    assert result.rounds == 1
    assert len(result.vertex_history) == 2


def test_close_vertex_budget():
    result = close(GraphBuilder.from_word(pos("ab")), SUBWORD, Budget(64, 10))
    assert result.status is Status.BUDGET_EXCEEDED
    assert len(result.graph.vertices) > 10


def test_close_round_that_closes_past_vertex_limit_is_closed():
    # Round 1 completes the automaton and takes it from 3 to 4 vertices,
    # past the limit; the scan after the round finds no site, so it closed.
    for result in (
        close(GraphBuilder.from_word(pos("ab")), COMM, Budget(64, 3)),
        schutzenberger_automaton(pos("ab"), COMM, Budget(64, 3)),
    ):
        assert result.status is Status.CLOSED
        assert result.rounds == 1
        assert result.vertex_history == (3, 4)


def test_closedness_is_stable():
    first = close(GraphBuilder.from_word(pos("ab")), COMM)
    again = close(GraphBuilder.from_graph(first.graph), COMM)
    assert again.status is Status.CLOSED
    assert again.rounds == 0
    assert isomorphic(again.graph, first.graph)


def test_budget_validation():
    with pytest.raises(ValueError, match="positive"):
        Budget(0, 100)
    with pytest.raises(ValueError, match="positive"):
        Budget(10, 0)


# --- schutzenberger_automaton -------------------------------------------------


def test_automaton_commutative():
    result = schutzenberger_automaton(pos("ab"), COMM, Budget(10, 1000))
    assert result.status is Status.CLOSED
    assert len(result.graph.vertices) == 4
    assert len(result.graph.edges) == 4
    # A word above ab in the natural order labels an alpha -> beta path.
    assert result.graph.accepts(w("abb^a^ba"))


def test_automaton_single_letter():
    result = schutzenberger_automaton(pos("a"), COMM, Budget(10, 1000))
    assert result.status is Status.CLOSED
    assert result.rounds == 0
    assert len(result.graph.vertices) == 2
    assert len(result.graph.edges) == 1


def test_automaton_folds_input_first():
    result = schutzenberger_automaton(w("aa^"), COMM)
    assert result.status is Status.CLOSED
    assert len(result.graph.vertices) == 2
    assert result.graph.alpha == result.graph.beta


def test_automaton_checks_alphabet():
    with pytest.raises(ValueError, match="not in the alphabet"):
        schutzenberger_automaton(pos("xyz"), COMM)


@given(positive_words)
@settings(max_examples=40)
def test_no_occurrence_closes_in_zero_rounds(word):
    for p in (CASE1, CASE2, FACT1):
        try:
            p.check_word(word)
        except ValueError:
            continue
        if count_r_word_occurrences(word, p) == 0:
            result = schutzenberger_automaton(word, p)
            assert result.rounds == 0
            assert result.status is Status.CLOSED
            assert isomorphic(result.graph, linear_graph(word))
            assert find_expansions(result.graph, p) == []


@given(positive_words)
@settings(max_examples=40)
def test_no_folding_over_adian_presentations(word):
    for p in (CASE1, CASE2):
        try:
            p.check_word(word)
        except ValueError:
            continue
        result = schutzenberger_automaton(word, p)
        assert result.status is Status.CLOSED
        assert result.fold_events == 0
        history = result.vertex_history
        assert all(a <= b for a, b in zip(history, history[1:]))


def test_subword_growth_is_strict():
    result = schutzenberger_automaton(pos("aba"), SUBWORD, Budget(6, 100000))
    assert result.status is Status.BUDGET_EXCEEDED
    history = result.vertex_history
    assert all(a < b for a, b in zip(history, history[1:]))


def test_instrumentation_json():
    result = schutzenberger_automaton(pos("ab"), COMM)
    payload = result.to_json()
    assert payload == {
        "status": "closed",
        "rounds": 1,
        "fold_events": 0,
        "vertex_history": [3, 4],
    }


def test_acceptance_grows_monotonically():
    rng = random.Random(7)
    g = fold(linear_graph(pos("aab")))
    rounds = [g]
    while find_expansions(rounds[-1], COMM):
        rounds.append(full_p_expansion(rounds[-1], COMM))
    assert len(rounds) >= 3
    probes = [
        Word(tuple((rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))))
        for _ in range(300)
    ]
    for earlier, later in zip(rounds, rounds[1:]):
        for word in probes:
            if earlier.accepts(word):
                assert later.accepts(word)


# --- incremental closure against the rebuild-every-round reference -----------


relation_sides = st.builds(
    lambda ls: Word(tuple((x, 1) for x in ls)),
    st.lists(st.sampled_from("ab"), min_size=1, max_size=4),
)
small_presentations = st.builds(
    lambda rels: Presentation(("a", "b"), tuple(rels)),
    st.lists(
        st.tuples(relation_sides, relation_sides).filter(lambda r: r[0] != r[1]),
        min_size=1,
        max_size=3,
    ),
)
signed_words = st.builds(
    lambda ls: Word(tuple(ls)),
    st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1))), max_size=12),
)
small_budgets = st.builds(Budget, st.integers(1, 12), st.integers(1, 200))


def assert_same_closure(result, reference):
    assert result.to_json() == reference.to_json()
    assert result.graph.canonical_key() == reference.graph.canonical_key()


@given(small_presentations, signed_words, small_budgets)
@example(COMM, pos("ab"), Budget(64, 3))  # closes in the round that crosses the limit
@example(SUBWORD, pos("ab"), Budget(64, 1))  # over the limit before round 1
@settings(max_examples=150)
def test_close_matches_rebuilding_reference(p, word, budget):
    g = fold(linear_graph(word))
    assert_same_closure(close(GraphBuilder.from_graph(g), p, budget), naive_close(g, p, budget))


@given(small_presentations, signed_words, small_budgets)
@example(COMM, Word(), Budget(1, 1))
@example(COMM, pos("aa"), Budget(1, 200))  # no site: closed at round 0
@example(COMM, w("aa^ab"), Budget(1, 1))  # folds, then stops after round 1
@example(SUBWORD, w("aa^a"), Budget(1, 200))
@example(SUBWORD, w("b^aa^bab"), Budget(2, 200))
@settings(max_examples=150)
def test_automaton_matches_close_of_folded_linear_graph(p, word, budget):
    # schutzenberger_automaton builds and folds the word on the closure's
    # builder; merges of that fold count in neither fold_events nor rounds.
    result = schutzenberger_automaton(word, p, budget)
    reference = close(GraphBuilder.from_graph(fold(linear_graph(word))), p, budget)
    assert_same_closure(result, reference)
    assert result.graph.to_json() == reference.graph.to_json()


def test_close_folds_a_handed_builder_first():
    # aa^ spells a chain with a clash at its middle vertex; close folds it
    # before round 0, and those merges count in neither fold_events nor rounds.
    result = close(GraphBuilder.from_word(w("aa^")), COMM)
    reference = schutzenberger_automaton(w("aa^"), COMM)
    assert result.to_json() == reference.to_json()
    assert result.graph.canonical_key() == reference.graph.canonical_key()


@given(small_presentations, signed_words, small_budgets)
@settings(max_examples=100)
def test_builder_consistent_after_every_round(p, word, budget):
    sew_round = engine._sew_round

    def checked(b, sites):
        merges = sew_round(b, sites)
        assert_builder_consistent(b)
        return merges

    with mock.patch.object(engine, "_sew_round", checked):
        schutzenberger_automaton(word, p, budget)


def test_close_sews_sites_that_earlier_sewing_made_readable():
    # Round 2 finds two sites reading a from vertex 1 to 0.  Sewing b there
    # makes aab readable from 1 to 0, yet the round still sews aab: its two
    # new vertices fold onto the path and count as merges (2 of the 4).
    p = Presentation(("a", "b"), ((pos("a"), pos("b")), (pos("a"), pos("aab"))))
    result = schutzenberger_automaton(pos("a"), p)
    assert result.to_json() == {
        "status": "closed", "rounds": 2, "fold_events": 4, "vertex_history": [2, 2, 2]
    }
    assert result.graph.canonical_key() == (
        2, 1, ((0, "a", 1), (0, "b", 1), (1, "a", 0), (1, "b", 0))
    )
    assert_same_closure(result, naive_close(linear_graph(pos("a")), p, Budget()))


def random_presentation(rng) -> Presentation:
    relations = []
    while len(relations) < rng.randint(1, 3):
        lhs, rhs = (random_positive_word(rng, "ab", 4) for _ in range(2))
        if lhs != rhs:
            relations.append((lhs, rhs))
    return Presentation(("a", "b"), tuple(relations))


def assert_same_as_rebuilt(g: BirootedGraph) -> None:
    # The triples' order is not read, and a repeated triple is one edge.
    edges = list(g.edges)
    for triples in (edges, edges[::-1] + edges[:1]):
        rebuilt = BirootedGraph(g.alpha, g.beta, triples)
        assert "edges" not in vars(rebuilt)
        assert rebuilt.edges == g.edges
        assert rebuilt.vertices == g.vertices
        assert rebuilt.is_deterministic == g.is_deterministic
        assert rebuilt.bfs_order() == g.bfs_order()
        assert rebuilt.canonical_key() == g.canonical_key()
        assert rebuilt.to_json() == g.to_json()
        assert rebuilt.to_dot() == g.to_dot()


def test_frozen_graphs_equal_graphs_rebuilt_from_their_edges():
    # A frozen graph copies its builder's adjacency, the public constructor
    # puts edge triples into a table of that form, and either lists its
    # edges only when they are read.
    rng = random.Random(11)
    nondeterministic = 0
    for _ in range(300):
        p = random_presentation(rng)
        word = random_signed_word(rng, "ab", 10)
        folded = fold(linear_graph(word))
        graphs = [linear_graph(word), folded]
        graphs.append(schutzenberger_automaton(word, p, Budget(rng.randint(1, 16), 200)).graph)
        sites = find_expansions(folded, p)
        if sites:
            graphs.append(elementary_expansion(folded, rng.choice(sites)))
        for g in graphs:
            assert_same_as_rebuilt(g)
            nondeterministic += not g.is_deterministic
    assert nondeterministic > 300


@given(multigraphs())
def test_folded_multigraphs_equal_graphs_rebuilt_from_their_edges(g):
    # The same check for fold(g), which hands its folded builder's table
    # over, on inputs with self-loops and parallel edges.
    assert_same_as_rebuilt(g)
    assert_same_as_rebuilt(fold(g))


def test_spent_builder_cannot_reach_its_graph(monkeypatch):
    # close and fold(g) hand their builder's table to the graph they
    # return.  Growing that builder afterwards must fail or leave the graph
    # as an untouched closure or fold gives it.
    builders = []
    from_graph = GraphBuilder.from_graph

    def kept(g):
        builders.append(from_graph(g))
        return builders[-1]

    monkeypatch.setattr(GraphBuilder, "from_graph", kept)

    def closed():
        b = GraphBuilder.from_word(pos("ab"))
        return b, close(b, COMM).graph

    def folded():
        g = fold(linear_graph(w("aa^b")))
        return builders[-1], g

    grow = (
        lambda b, g: b.link(g.alpha, ("b", 1), g.beta),
        lambda b, g: b.spell(g.beta, w("ab^a").letters),
        lambda b, g: b.spell(g.alpha, pos("bb").letters, g.beta),
    )
    for spend in (closed, folded):
        _, reference = spend()
        for attempt in grow:
            b, graph = spend()
            try:
                attempt(b, graph)
            except TypeError:  # a spent builder has no table
                pass
            assert graph.edges == reference.edges
            assert graph.vertices == reference.vertices
            assert graph.to_json() == reference.to_json()
            assert graph.canonical_key() == reference.canonical_key()


def test_round_site_order_does_not_change_closure():
    # Folding is confluent and a chain sewn beside a path with its label
    # folds onto that path, so a round may sew its sites in any order.
    sew_round = engine._sew_round
    rng = random.Random(5)
    reorders = (lambda sites: sites[::-1], lambda sites: rng.sample(sites, len(sites)))
    reordered_rounds = 0

    def reordered(reorder):
        def sew(b, sites):
            nonlocal reordered_rounds
            reordered_rounds += len(sites) > 1
            return sew_round(b, reorder(sites))

        return sew

    for _ in range(300):
        p = random_presentation(rng)
        word = random_signed_word(rng, "ab", 6)
        budget = Budget(rng.randint(1, 16), rng.randint(1, 300))
        result = schutzenberger_automaton(word, p, budget)
        for reorder in reorders:
            with mock.patch.object(engine, "_sew_round", reordered(reorder)):
                other = schutzenberger_automaton(word, p, budget)
            assert other.to_json() == result.to_json()
            assert other.graph.to_json() == result.graph.to_json()
            assert other.graph.canonical_key() == result.graph.canonical_key()
    assert reordered_rounds > 300


def test_frontier_scan_equals_full_scan_every_round():
    # Round 0 scans every vertex of the builder, later rounds the frontier;
    # both must find what find_expansions finds on the frozen graph.
    sites_from = engine._sites_from
    rounds = []
    closing = []  # the builder and presentation of the closure under way

    def checked(adj, starts, checks):
        sites = sites_from(adj, starts, checks)
        b, p = closing[-1]
        if adj is b._adj:  # a scan by close, not by find_expansions below
            # As lists with repeats: two relations can give one (read, sew).
            assert sorted(sites) == sorted(find_expansions(b.freeze(), p))
            rounds.append(len(sites))
        return sites

    def checked_close(g, p, budget=Budget()):
        b = GraphBuilder.from_graph(g)
        closing.append((b, p))
        return close(b, p, budget)

    rng = random.Random(2)
    bbb = Presentation(("a", "b"), ((pos("b"), pos("bbb")), (pos("bb"), pos("aaa"))))
    cascade = Presentation(("a", "b", "c"), ((pos("bc"), pos("bcc")),))
    with mock.patch.object(engine, "_sites_from", checked):
        # This round's fold cascades, and a site appears at a later merge
        # survivor that no sewn chain reaches.
        checked_close(fold(linear_graph(w("babaa^cb^a^cac^a^"))), cascade)
        for i in range(400):
            p = (SUBWORD, bbb)[i % 2] if i % 4 == 0 else random_presentation(rng)
            word = random_signed_word(rng, "ab", 12) if i % 3 else random_positive_word(rng, "ab", 8)
            checked_close(fold(linear_graph(word)), p, Budget(rng.randint(1, 12), 200))
    assert len(rounds) > 500


def test_round_changes_edges_only_at_touched_vertices():
    # The frontier scan rests on this: an edge of the graph after a round
    # with an end outside b.touched was an edge before it, under the same ids.
    sew_round = engine._sew_round
    checked_edges = 0

    def edge_set(b):
        return {
            (s, step, t) for s, table in b._adj.items() for step, ts in table.items() for t in ts
        }

    def checked(b, sites):
        nonlocal checked_edges
        before = edge_set(b)
        merges = sew_round(b, sites)
        for s, step, t in edge_set(b):
            if s not in b.touched or t not in b.touched:
                assert (s, step, t) in before
                checked_edges += 1
        return merges

    rng = random.Random(17)
    with mock.patch.object(engine, "_sew_round", checked):
        for _ in range(300):
            p = random_presentation(rng)
            word = random_signed_word(rng, "ab", 10)
            schutzenberger_automaton(word, p, Budget(rng.randint(1, 12), rng.randint(1, 200)))
    assert checked_edges > 1000


def test_divergent_closure_does_no_per_round_rebuild(monkeypatch):
    # Counts, not timings: a per-round rescan, refreeze or copy would make
    # the counts grow with the vertex budget.  The word is built and folded
    # on the closure's own builder, every scan runs on that builder, and
    # the graph is frozen once, at the end.  No closure or verdict reads the
    # canonical breadth-first order; exports compute it once, when first asked.
    scans, graphs, copies, orders = [], [], [], []
    scan, init, copy = engine.find_expansions, BirootedGraph.__init__, GraphBuilder.from_graph
    bfs = word_graph._bfs

    def counted_scan(g, p):
        scans.append(g)
        return scan(g, p)

    def counted_init(self, *args, **kwargs):
        graphs.append(self)
        init(self, *args, **kwargs)

    def counted_copy(g):
        copies.append(g)
        return copy(g)

    def counted_bfs(adj, alpha):
        orders.append(alpha)
        return bfs(adj, alpha)

    monkeypatch.setattr(engine, "find_expansions", counted_scan)
    monkeypatch.setattr(BirootedGraph, "__init__", counted_init)
    monkeypatch.setattr(GraphBuilder, "from_graph", counted_copy)
    monkeypatch.setattr(word_graph, "_bfs", counted_bfs)
    for max_vertices in (500, 2000):
        scans.clear()
        graphs.clear()
        copies.clear()
        orders.clear()
        budget = Budget(10_000, max_vertices)
        result = schutzenberger_automaton(pos("ab"), SUBWORD, budget)
        assert result.status is Status.BUDGET_EXCEEDED
        assert len(result.graph.vertices) > max_vertices
        assert (len(scans), len(graphs), len(copies)) == (0, 1, 0)
        assert graphs == [result.graph]
        decide_equal(pos("ab"), pos("b"), SUBWORD, budget)
        assert orders == []
        result.graph.to_json()
        result.graph.canonical_key()
        assert orders == [result.graph.alpha]
