import random
import tracemalloc
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
    parse_presentation,
    parse_word,
    schutzenberger_automaton,
)
from stephen_kit import engine, word_graph
from stephen_kit.engine import close, find_expansions
from stephen_kit.word_graph import GraphBuilder, fold
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
    graph,
    isomorphic,
    linear_graph,
    multigraphs,
    naive_close,
    new_vertex,
    pos,
    random_positive_word,
    random_signed_word,
    spell,
    vertex_count,
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
    g = graph(0, 2, [(0, "a", 1), (1, "b", 2), (0, "b", 3), (3, "a", 2)])
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
        backward = word_graph._linked(g.alpha, g.beta, g.edges, p.alphabet)
        for start, end, (_, sew) in find_expansions(g, p)[::-1]:
            spell(backward, start, sew, end)
        backward.fold()
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


@pytest.mark.parametrize(
    "word, p, budget, status, rounds, history",
    [
        # The start graph is over the vertex limit, yet round 1 still runs.
        ("aba", SUBWORD, Budget(64, 2), Status.BUDGET_EXCEEDED, 1, (4, 6)),
        ("ab", COMM, Budget(1, 1000), Status.CLOSED, 1, (3, 4)),
        ("ab", SUBWORD, Budget(3, 1000), Status.BUDGET_EXCEEDED, 3, (3, 5, 7, 9)),
    ],
)
def test_stop_rule_at_its_edges(word, p, budget, status, rounds, history):
    # One site scan before round 1 and one after every round.
    deduced, scans = engine._deduced, []

    def counted(rows, log, table):
        scans.append(None)
        return deduced(rows, log, table)

    with mock.patch.object(engine, "_deduced", counted):
        result = schutzenberger_automaton(pos(word), p, budget)
    assert (result.status, result.rounds, result.vertex_history) == (status, rounds, history)
    assert len(scans) == rounds + 1


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
    # A NaN round limit compares false with every round count, so a closure
    # under it would run 0 rounds and report budget-exceeded.
    for limits in ((2.5, 3), (True, 2), (float("nan"), 100), (64, 1e5)):
        with pytest.raises(TypeError, match="budget limits must be ints"):
            Budget(*limits)


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


def test_automaton_checks_each_word_once():
    # The compile refuses the letter; the message names the first outside
    # letter in sorted order.
    with pytest.raises(ValueError, match="^letter 'x' is not in the alphabet$"):
        schutzenberger_automaton(pos("ax"), COMM)
    with pytest.raises(ValueError, match="^letter 'y' is not in the alphabet$"):
        schutzenberger_automaton(pos("zy"), COMM)


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


@pytest.mark.parametrize(
    "declared, in_order, relation, words",
    [
        ("b a", "a b", "ab = ba", ["ab", "ba^b"]),
        ("c a b", "a b c", "aba = c", ["c", "cab^"]),
        ("x1 b a", "a b x1", "x1 a = b x1", ["x1 a", "b x1 a^ x1"]),
    ],
)
def test_alphabet_declaration_order_does_not_change_closures(declared, in_order, relation, words):
    # Step codes follow the sorted letters, not the declared order, so the
    # canonical numbering, and every export built on it, is the same.
    p, q = (parse_presentation(f"X: {x}\nR: {relation}\n") for x in (declared, in_order))
    assert p.alphabet != q.alphabet
    for text in words:
        one, two = (
            schutzenberger_automaton(parse_word(text, r.alphabet), r, Budget(8, 200)) for r in (p, q)
        )
        assert one.to_json() == two.to_json()
        assert one.graph.to_json() == two.graph.to_json()
        assert one.graph.to_dot() == two.graph.to_dot()
        assert one.graph.canonical_key() == two.graph.canonical_key()
        rebuilt = graph(one.graph.alpha, one.graph.beta, one.graph.edges)
        assert rebuilt.to_json() == one.graph.to_json()


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
    # close scans after round 0's fold and after every round.
    deduced = engine._deduced
    b = closing_builder(word, p)

    def checked(rows, log, table):
        assert rows is b._rows and log is b.log
        assert_builder_consistent(b)
        return deduced(rows, log, table)

    with mock.patch.object(engine, "_deduced", checked):
        close(b, p, budget)


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


def test_repeated_relation_sews_its_sites_twice():
    # A relation stated twice, as ab = ba and ba = ab, gives every check
    # twice: each site is listed and sewn once per copy, and the second
    # chain folds onto the first.  The automaton is the same; only the
    # site lists and fold_events show the repeat.
    once = COMM
    twice = Presentation(("a", "b"), ((pos("ab"), pos("ba")), (pos("ba"), pos("ab"))))
    word = pos("abab")
    assert len(find_expansions(linear_graph(word), once)) == 3
    assert len(find_expansions(linear_graph(word), twice)) == 6
    closed = [schutzenberger_automaton(word, p) for p in (once, twice)]
    assert [r.status for r in closed] == [Status.CLOSED, Status.CLOSED]
    assert [len(r.graph.vertices) for r in closed] == [9, 9]
    assert [r.fold_events for r in closed] == [0, 4]
    assert closed[0].rounds == closed[1].rounds
    assert closed[0].graph.canonical_key() == closed[1].graph.canonical_key()


def random_presentation(rng) -> Presentation:
    relations = []
    while len(relations) < rng.randint(1, 3):
        lhs, rhs = (random_positive_word(rng, "ab", 4) for _ in range(2))
        if lhs != rhs:
            relations.append((lhs, rhs))
    return Presentation(("a", "b"), tuple(relations))


def closing_builder(word, p: Presentation) -> GraphBuilder:
    """The builder that schutzenberger_automaton(word, p) closes: word's
    chain over the closure's letters, which close does not link again."""
    letters = engine._compile(p, tuple(sorted({x for x, _ in word.letters})))[0]
    return GraphBuilder.from_word(word, letters)


def assert_same_as_rebuilt(g: BirootedGraph) -> None:
    # The triples' order is not read, and a repeated triple is one edge.
    edges = list(g.edges)
    for triples in (edges, edges[::-1] + edges[:1]):
        rebuilt = graph(g.alpha, g.beta, triples)
        assert "edges" not in vars(rebuilt)
        assert rebuilt.edges == g.edges
        assert rebuilt.vertices == g.vertices
        assert rebuilt.is_deterministic == g.is_deterministic
        assert rebuilt.bfs_order() == g.bfs_order()
        assert rebuilt.canonical_key() == g.canonical_key()
        assert rebuilt.to_json() == g.to_json()
        assert rebuilt.to_dot() == g.to_dot()


def test_frozen_graphs_equal_graphs_rebuilt_from_their_edges():
    # A frozen graph copies its builder's adjacency, graph() links edge
    # triples into a builder of that form, and either lists its edges only
    # when they are read.
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
    # over, and for an unfolded builder of g handed over as it is, on
    # inputs with self-loops and parallel edges.
    assert_same_as_rebuilt(g)
    assert_same_as_rebuilt(fold(g))
    handed = BirootedGraph(GraphBuilder.from_graph(g))
    assert handed.edges == g.edges
    assert_same_as_rebuilt(handed)


def test_close_refuses_a_builder_letter_outside_the_alphabet():
    # As schutzenberger_automaton refuses such a word; the builder is
    # neither folded nor spent.
    b = GraphBuilder.from_word(w("aa^z"))
    edges = b.freeze().edges
    with pytest.raises(ValueError, match="letter 'z' is not in the alphabet"):
        close(b, COMM)
    assert vertex_count(b) == 4
    assert b.freeze().edges == edges and not b.freeze().is_deterministic


def test_close_links_a_builder_over_fewer_letters_again():
    # abb^ba uses a and b of CASE1's a, b, c, and folds to the chain aba:
    # close links it again over the alphabet and closes that builder,
    # which sews c; b itself is left unfolded and usable.
    word = w("abb^ba")
    b = GraphBuilder.from_word(word)
    edges = b.freeze().edges
    result = close(b, CASE1)
    reference = schutzenberger_automaton(word, CASE1)
    assert result.rounds == 1
    assert result.to_json() == reference.to_json()
    assert result.graph.canonical_key() == reference.graph.canonical_key()
    assert b.letters == ("a", "b")
    assert b.freeze().edges == edges


def test_closure_letters_grow_to_a_fixpoint():
    # A check joins once its read letters are all in, and its sewn letters
    # join with it; the checks that read another letter are left out, and
    # the compile is kept under the start letters and the closure's.
    # Closing over the whole alphabet gives the same closure.
    p = parse_presentation("X: a b c d e\nR: cd = e\nR: ab = c\n")
    cases = (("ab", "abc", 2), ("d", "d", 0), ("abd", "abcde", 4), ("e", "abcde", 4))
    for word, letters, checks in cases:
        result = schutzenberger_automaton(pos(word), p)
        assert result.graph._letters == tuple(letters)
        compiled = engine._compile(p, tuple(letters))
        assert compiled is engine._compile(p, tuple(sorted(word)))
        assert len({i for row in compiled[1] for i, *_ in row}) == checks
        wide = close(GraphBuilder.from_word(pos(word), p.alphabet), p)
        assert wide.to_json() == result.to_json()
        assert wide.graph.canonical_key() == result.graph.canonical_key()


def test_start_letters_that_reach_one_closure_share_its_compile():
    # ab and bc both reach the letters abc under aab = bcc, so closures
    # from either start read the one table compiled for abc.
    p = parse_presentation("X: a b c\nR: aab = bcc\n")
    compiled = engine._compile(p, ("a", "b"))
    assert compiled[0] == ("a", "b", "c")
    assert engine._compile(p, ("b", "c")) is compiled
    assert engine._compile(p, ("a", "b", "c")) is compiled


def test_closure_rows_span_only_the_closures_letters():
    # From x0 x1 under x0 x1 x0 = x1 no edge can carry another letter, so
    # over 300 letters the rows have 4 slots, and the traced peak of the
    # closure to 4,001 vertices stays near that over 2 letters.
    peaks = []
    for n in (2, 300):
        p = parse_presentation(f"X: {' '.join(f'x{i}' for i in range(n))}\nR: x0 x1 x0 = x1\n")
        word = parse_word("x0 x1", p.alphabet)
        schutzenberger_automaton(word, p, Budget(1, 1))  # compile before tracing
        tracemalloc.start()
        try:
            g = schutzenberger_automaton(word, p, Budget(10_000, 4000)).graph
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(g.vertices) == 4001 and len(g.edges) == 5999
        assert g._letters == ("x0", "x1")
        assert {len(row) for row in g._rows} == {4}
    assert peaks[1] < 1.5 * peaks[0]


def test_spent_builder_cannot_reach_its_graph(monkeypatch):
    # close and fold(g) hand their builder's table to the graph they
    # return, and close of a builder over fewer letters than the alphabet
    # hands over the builder it linked again.  Growing the builder
    # afterwards must fail or leave the graph as an untouched closure or
    # fold gives it.  A handed builder keeps no rows, pending list or log,
    # also one that is never closed.
    builders = []
    linked, from_word = word_graph._linked, GraphBuilder.from_word

    def kept(b):
        builders.append(b)
        return b

    monkeypatch.setattr(word_graph, "_linked", lambda *args: kept(linked(*args)))
    monkeypatch.setattr(engine, "_linked", lambda *args: kept(linked(*args)))
    monkeypatch.setattr(GraphBuilder, "from_word", lambda *args: kept(from_word(*args)))

    def spent(b):
        return b._rows is None and b._pending is None and b.log is None

    def closed():
        b = GraphBuilder.from_word(pos("ab"))
        g = close(b, COMM).graph
        assert spent(b)
        return b, g

    def folded():
        g = fold(linear_graph(w("aa^b")))
        assert len(builders) >= 2 and spent(builders[-2]) and spent(builders[-1])
        return builders[-1], g

    def relinked():
        b = GraphBuilder.from_word(pos("aba"))
        g = close(b, CASE1).graph
        assert builders[-1] is not b and spent(builders[-1]) and not spent(b)
        return b, g

    grow = (
        lambda b, g: b.link(g.alpha, b.codes["b"], g.beta),
        lambda b, g: spell(b, g.beta, w("ab^a").letters),
        lambda b, g: spell(b, g.alpha, pos("bb").letters, g.beta),
    )
    grown = 0
    for spend in (closed, folded, relinked):
        _, reference = spend()
        for attempt in grow:
            b, g = spend()
            try:
                attempt(b, g)
                grown += 1
            except TypeError:  # a spent builder has no rows
                pass
            assert g.edges == reference.edges
            assert g.vertices == reference.vertices
            assert g.to_json() == reference.to_json()
            assert g.canonical_key() == reference.canonical_key()
    assert grown == len(grow)  # only the builder linked again grows
    # linear_graph hands over the chain it spelled, and freeze a builder
    # of the triples it lists, while the frozen builder goes on.
    linear_graph(w("aa^b"))
    assert spent(builders[-1])
    b = GraphBuilder.from_word(w("aa^b"))
    b.freeze()
    assert builders[-1] is not b and spent(builders[-1])
    assert b.log and not spent(b)


def test_round_site_order_does_not_change_closure():
    # Folding is confluent and a chain sewn beside a path with its label
    # folds onto that path, so a round may sew its sites in any order.
    # Each scan's sites are the ones the next round sews, if one runs.
    deduced = engine._deduced
    rng = random.Random(5)
    reorders = (
        lambda sites: dict(reversed(sites.items())),
        lambda sites: dict(rng.sample(list(sites.items()), len(sites))),
    )
    reordered_rounds = 0

    def reordered(reorder, sizes):
        def scan(rows, log, table):
            sites = reorder(deduced(rows, log, table))
            sizes.append(len(sites))
            return sites

        return scan

    for _ in range(300):
        p = random_presentation(rng)
        word = random_signed_word(rng, "ab", 6)
        budget = Budget(rng.randint(1, 16), rng.randint(1, 300))
        result = schutzenberger_automaton(word, p, budget)
        for reorder in reorders:
            sizes = []
            with mock.patch.object(engine, "_deduced", reordered(reorder, sizes)):
                other = schutzenberger_automaton(word, p, budget)
            reordered_rounds += sum(n > 1 for n in sizes[: other.rounds])
            assert other.to_json() == result.to_json()
            assert other.graph.to_json() == result.graph.to_json()
            assert other.graph.canonical_key() == result.graph.canonical_key()
    assert reordered_rounds > 300


def _deduction_closures(closing: list) -> None:
    """Close the presentations and words that exercise the deduction scan,
    appending each closing builder and its presentation to closing first:
    400 random closures, merging ones where logged edges go stale inside a
    fold, a cascading fold, a relation stated twice, and unfolded builders
    whose first fold merges."""

    def checked_close(g, p, budget=Budget()):
        # A builder over the alphabet closes itself; close would link
        # one over fewer letters again, and scan that one.
        b = word_graph._linked(g.alpha, g.beta, g.edges, p.alphabet)
        closing.append((b, p))
        return close(b, p, budget)

    rng = random.Random(2)
    bbb = Presentation(("a", "b"), ((pos("b"), pos("bbb")), (pos("bb"), pos("aaa"))))
    comm3 = Presentation(
        ("a", "b", "c"), ((pos("ab"), pos("ba")), (pos("bc"), pos("cb")), (pos("ac"), pos("ca")))
    )
    twice = Presentation(("a", "b"), ((pos("ab"), pos("ba")), (pos("ba"), pos("ab"))))
    cascade = Presentation(("a", "b", "c"), ((pos("bc"), pos("bcc")),))

    def checked_unfolded(b, p):
        # The first fold merges, so round 0 reads a log that it rewrote.
        before = vertex_count(b)
        closing.append((b, p))
        assert close(b, p, Budget(8, 200)).vertex_history[0] < before

    # This round's fold cascades, and a site appears at a later merge
    # survivor that no sewn chain reaches.
    checked_close(fold(linear_graph(w("babaa^cb^a^cac^a^"))), cascade)
    # Merging closures, where logged edges go stale inside a fold.
    checked_close(linear_graph(pos("b")), bbb)
    checked_close(linear_graph(pos("aabbcc")), comm3)
    checked_close(linear_graph(w("ab^c^ba^c")), comm3)
    checked_close(linear_graph(pos("abab")), twice)
    for i in range(400):
        p = (SUBWORD, bbb)[i % 2] if i % 4 == 0 else random_presentation(rng)
        word = random_signed_word(rng, "ab", 12) if i % 3 else random_positive_word(rng, "ab", 8)
        checked_close(fold(linear_graph(word)), p, Budget(rng.randint(1, 12), 200))
    for word in ("aa^bab^", "ab^ba^ab", "bb^aab^ba^", "a^abb^a"):
        for p in (COMM, SUBWORD, bbb, twice):
            checked_unfolded(GraphBuilder.from_word(w(word), p.alphabet), p)
        checked_unfolded(GraphBuilder.from_word(w(word + "c"), comm3.alphabet), comm3)
    # A builder made by hand: a link onto a taken slot pends, and the
    # first fold merges its two targets and moves their b edge.
    b = GraphBuilder(("a", "b"))
    v0, v1, v2 = new_vertex(b), new_vertex(b), new_vertex(b)
    b.link(v0, b.codes["a"], v1)
    b.link(v1, b.codes["b"], v2)
    b.link(v0, b.codes["a"], v2)
    b.beta = v2
    checked_unfolded(b, COMM)


def dropping_live(dropped: list):
    """engine._live, appending to dropped each entry that it drops: the
    ones whose source is no vertex or whose slot no longer names the
    target."""
    live = engine._live

    def counted(rows, log, table):
        stale = [e for e in log if rows[e[0]] is None or rows[e[0]][e[1]] != e[2]]
        before = len(log)
        live(rows, log, table)
        assert len(log) == before - len(stale)
        dropped.extend(stale)

    return counted


def test_deduced_sites_equal_find_expansions_every_round():
    # Round 0 takes its sites from every edge the builder logged, the first
    # fold's moves included, and later rounds from the edges the last round
    # logged; each scan must find what find_expansions finds on the frozen
    # graph, each (start, check) once.  Each fold's stale entries are
    # dropped once, after it, so no scan reads one.
    deduced = engine._deduced
    rounds, stale, dropped = [], [], []
    closing = []  # the builder and presentation of the closure under way

    def compared(sites):
        b, p = closing[-1]

        def decoded(codes):
            return tuple((b.letters[c >> 1], -1 if c & 1 else 1) for c in codes)

        # A check is one tuple object per relation side, so a relation
        # stated twice gives two equal checks that are two sites.
        values = sites.values()
        assert len({(s, id(check)) for s, _, check in values}) == len(sites)
        found = [(s, e, (decoded(read), decoded(sew))) for s, e, (read, sew, *_) in values]
        assert sorted(found) == sorted(find_expansions(b.freeze(), p))
        return sites

    def checked_deduced(rows, log, table):
        stale.append(sum(rows[s] is None or rows[t] is None for s, _, t, _ in log))
        sites = compared(deduced(rows, log, table))
        rounds.append(len(sites))
        return sites

    with mock.patch.object(engine, "_deduced", checked_deduced):
        with mock.patch.object(engine, "_live", dropping_live(dropped)):
            _deduction_closures(closing)
    assert len(rounds) > 500
    assert sum(stale) == 0
    assert len(dropped) > 100


def test_deductions_a_sewn_edge_settles_hold():
    # The scan skips, for a live edge of a sewn chain, the entry of the
    # reverse check at the edge's position.  Walk each skipped entry by
    # hand: every step must land, and the check must hold, so the walk
    # could not have found a site.  A scan reads only live, forward
    # entries, every one that is no chain edge walking its whole table
    # list, and the stale chain edges were dropped after their fold.
    deduced = engine._deduced
    skipped, sewn_stale, dropped = 0, 0, []

    def checked_deduced(rows, log, table):
        nonlocal skipped, sewn_stale
        for s, c, t, walks in log:
            assert walks is not None
            if walks is table[c]:
                continue
            row = rows[s]
            if row is None or row[c] != t:
                sewn_stale += 1
                continue
            assert not c & 1
            missing = [entry for entry in table[c] if not any(e is entry for e in walks)]
            assert len(missing) == 1 and len(walks) == len(table[c]) - 1
            _, back, rest, sew, _ = missing[0]
            start = s
            for d in back:
                start = rows[start][d]
                assert start is not None
            end = t
            for d in rest:
                end = rows[end][d]
                assert end is not None
            v = start
            for d in sew:
                v = rows[v][d]
                assert v is not None
            assert v == end
            skipped += 1
        return deduced(rows, log, table)

    with mock.patch.object(engine, "_deduced", checked_deduced):
        with mock.patch.object(engine, "_live", dropping_live(dropped)):
            _deduction_closures([])
    assert skipped > 100_000
    assert sewn_stale == 0
    assert sum(walks is not None for *_, walks in dropped) > 1000


def test_live_keeps_live_entries_in_order_and_turns_the_rest_forward():
    # aba^ab logs its third step against its letter, and the first fold
    # merges the ends of its fourth and moves its fifth; the one round over
    # ab = ba then folds a sewn chain edge away and logs a moved edge
    # against its letter.  Each rebuild drops exactly the entries whose
    # source is no vertex or whose slot no longer names the target, keeps
    # the rest in log order, turns each entry logged with None to read
    # forward with its whole table list, and leaves each chain edge's
    # entry as it was.
    live = engine._live
    tallies = []

    def checked(rows, log, table):
        before = list(log)
        live(rows, log, table)
        kept = [e for e in before if rows[e[0]] is not None and rows[e[0]][e[1]] == e[2]]
        assert len(log) == len(kept)
        turned = chained = 0
        for (s, c, t, walks), entry in zip(kept, log):
            if walks is not None:
                assert entry == (s, c, t, walks) and entry[3] is walks
                chained += 1
            elif c & 1:
                assert entry == (t, c ^ 1, s, table[c ^ 1]) and entry[3] is table[c ^ 1]
                turned += 1
            else:
                assert entry == (s, c, t, table[c]) and entry[3] is table[c]
        tallies.append((len(before) - len(kept), turned, chained))

    with mock.patch.object(engine, "_live", checked):
        result = close(GraphBuilder.from_word(w("aba^ab"), COMM.alphabet), COMM)
    assert (result.status, result.rounds) == (Status.CLOSED, 1)
    assert result.fold_events > 0
    assert tallies == [(1, 1, 0), (1, 1, 2)]  # (dropped, turned, chain edges kept)


def chain_links(check):
    """The links (c, walks) of a compiled check's sewn side, in order."""
    _, _, head, last = check
    return [*head, last]


def counted_walks(p: Presentation, word: Word, budget: Budget):
    """The closure of word over p and the number of table entries its
    scans walked.  Each entry a scan walks is taken apart once, so entries
    that count their unpacking count the walks; they replace the entries
    both in the table and in every link's walk list, in the compile that
    the closure reads."""

    class Counted(tuple):
        walks = 0

        def __iter__(self):
            Counted.walks += 1
            return super().__iter__()

    _, table = engine._compile(p, tuple(sorted({x for x, _ in word.letters})))
    counted = {id(entry): Counted(entry) for row in table for entry in row}
    for row in table:
        row[:] = [counted[id(entry)] for entry in row]
    for check in {id(entry[4]): entry[4] for row in table for entry in row}.values():
        for _, walks in chain_links(check):
            walks[:] = [counted[id(entry)] for entry in walks]
    return schutzenberger_automaton(word, p, budget), Counted.walks


def test_sewn_edges_skip_the_walk_they_settle():
    # Counts, not timings.  Over the aba = b closure from ba to 1,000
    # vertices, every sewn edge skips the one walk it settles: without
    # the skip the scan walks 2,998.
    p = parse_presentation("X: a b\nR: aba = b\n")
    result, walks = counted_walks(p, parse_word("ba", p.alphabet), Budget(1000, 1000))
    assert (result.status, result.rounds, result.vertex_history[-1]) == (
        Status.BUDGET_EXCEEDED,
        499,
        1001,
    )
    assert walks == 1501


def test_walk_counts_are_pinned():
    # Counts, not timings: a closing closure with three relations, a
    # merging one whose sewn chains fold, and two closing closures of one
    # round, one of which sews a one-step side, each walk the entries they
    # did when a sewn edge first skipped the walk it settles.
    comm3 = Presentation(
        ("a", "b", "c"), ((pos("ab"), pos("ba")), (pos("bc"), pos("cb")), (pos("ac"), pos("ca")))
    )
    bbb = Presentation(("a", "b"), ((pos("b"), pos("bbb")), (pos("bb"), pos("aaa"))))
    result, walks = counted_walks(comm3, pos("aaaabbbbcccc"), Budget())
    assert (result.status, result.rounds, result.vertex_history[-1], walks) == (
        Status.CLOSED,
        11,
        125,
        976,
    )
    result, walks = counted_walks(bbb, pos("b"), Budget(max_vertices=2000))
    assert (result.status, result.rounds, result.vertex_history[-1], walks) == (
        Status.BUDGET_EXCEEDED,
        17,
        2042,
        13272,
    )
    for p, word, vertices, count in ((CASE1, "abacab" * 6, 49, 66), (CASE2, "aab" * 40, 201, 360)):
        result, walks = counted_walks(p, pos(word), Budget())
        assert (result.status, result.rounds, result.vertex_history[-1], walks) == (
            Status.CLOSED,
            1,
            vertices,
            count,
        )


def test_links_walk_all_but_the_entry_their_edge_settles():
    # The edge sewn at position k of check i's sewn side settles check
    # i ^ 1's entry at k, so the link there walks table[c] less exactly
    # that entry, in table order.  A one-step side has no head links.
    rng = random.Random(31)
    twice = Presentation(("a", "b"), ((pos("ab"), pos("ba")), (pos("ba"), pos("ab"))))
    one_step = parse_presentation("X: a b\nR: aba = b\n")
    one_step_sides = links = 0
    for p in (twice, one_step, *(random_presentation(rng) for _ in range(200))):
        _, table = engine._compile(p, ("a", "b"))
        entries = {}  # (i, k): check i's entry at read position k
        for row in table:
            for entry in row:
                entries[entry[0], len(entry[1])] = entry
        for (i, k), entry in entries.items():
            if k:
                continue
            check = entry[4]
            _, sew, head, _ = check
            assert len(head) == len(sew) - 1
            one_step_sides += not head
            assert [c for c, _ in chain_links(check)] == list(sew)
            for position, (c, walks) in enumerate(chain_links(check)):
                settled = entries[i ^ 1, position]
                others = [e for e in table[c] if e is not settled]
                assert len(others) == len(table[c]) - 1
                assert len(walks) == len(others)
                assert all(a is b for a, b in zip(walks, others))
                links += 1
    assert one_step_sides > 50 and links > 1000


def test_closed_rows_are_distinct_lists():
    # Every new row is a copy of one blank row, so no two live rows of a
    # closed graph may be one list.
    rng = random.Random(37)
    bbb = Presentation(("a", "b"), ((pos("b"), pos("bbb")), (pos("bb"), pos("aaa"))))
    thin = parse_presentation("X: a b\nR: aba = b\n")
    closures = [(thin, pos("ba"), Budget(1000, 1000)), (bbb, pos("b"), Budget(max_vertices=500))]
    for _ in range(100):
        word = random_signed_word(rng, "ab", 8)
        closures.append((random_presentation(rng), word, Budget(8, 300)))
    for p, word, budget in closures:
        rows = schutzenberger_automaton(word, p, budget).graph._rows
        live = [row for row in rows if row is not None]
        assert len({id(row) for row in live}) == len(live)


def test_rounds_sew_without_spell(monkeypatch):
    # Counts, not timings.  close sews each round's chains itself, so over
    # the aba = b closure from ba to 1,000 vertices the only links are
    # from_word's two for the start word's chain, 0 -b-> 1 -a-> 2; a call
    # per sewn edge would make 1,497 more.
    calls = []
    link = GraphBuilder.link

    def counted(self, *args):
        calls.append(args)
        return link(self, *args)

    monkeypatch.setattr(GraphBuilder, "link", counted)
    p = parse_presentation("X: a b\nR: aba = b\n")
    result = schutzenberger_automaton(parse_word("ba", p.alphabet), p, Budget(1000, 1000))
    assert (result.rounds, result.vertex_history[-1]) == (499, 1001)
    assert calls == [(0, 2, 1), (1, 0, 2)]


def test_close_sews_by_links_rule_id_for_id():
    # close sews every site through one loop.  A round loop that sews each
    # site with spell, so that every edge goes through GraphBuilder.link
    # and new_vertex, must make the same rows (ids and None gaps), roots
    # and log (s, c, t) entries, in order, at every scan, and the same
    # result; sites whose first or last step finds its slot taken are
    # where the two ways of placing an edge could part.
    deduced = engine._deduced
    first_taken = last_taken = budget_hit = 0

    def snapshot(b, rows, log):
        raw = [None if row is None else list(row) for row in rows]
        return raw, b.alpha, b.beta, [(s, c, t) for s, c, t, _ in log]

    def sewn_by_link(b, p, budget, scans):
        nonlocal first_taken, last_taken
        letters, table = engine._compile(p, b.letters)
        b.fold()
        history = [vertex_count(b)]
        rounds = fold_events = 0
        rows, log, pending = b._rows, b.log, b._pending
        engine._live(rows, log, table)
        scans.append(snapshot(b, rows, log))
        sites = deduced(rows, log, table)
        while sites and rounds < budget.max_rounds:
            log.clear()
            for s, t, (_, sew, *_) in sites.values():
                c = sew[-1]
                if len(sew) > 1:
                    first_taken += rows[s][sew[0]] is not None
                    last_taken += rows[t][c ^ 1] is not None
                else:
                    last_taken += rows[s][c] is not None or rows[t][c ^ 1] is not None
                spell(b, s, [(letters[d >> 1], 1) for d in sew], t)
            if pending:
                fold_events += b.fold()
            # link logs every edge with walks None, so the log is rebuilt
            # after every round, a round that folds nothing included.
            engine._live(rows, log, table)
            rounds += 1
            history.append(len(rows) - b._removed)
            scans.append(snapshot(b, rows, log))
            sites = deduced(rows, log, table)
            if history[-1] > budget.max_vertices:
                break
        status = Status.BUDGET_EXCEEDED if sites else Status.CLOSED
        return engine.ClosureResult(status, BirootedGraph(b), rounds, fold_events, tuple(history))

    rng = random.Random(5)
    for i in range(300):
        p = random_presentation(rng)
        word = random_signed_word(rng, "ab", 10) if i % 3 else random_positive_word(rng, "ab", 8)
        budget = Budget(rng.randint(1, 12), rng.randint(1, 200))
        scans, reference_scans = [], []
        b = closing_builder(word, p)

        def scan(rows, log, table, b=b, scans=scans):
            scans.append(snapshot(b, rows, log))
            return deduced(rows, log, table)

        with mock.patch.object(engine, "_deduced", scan):
            result = close(b, p, budget)
        reference = sewn_by_link(closing_builder(word, p), p, budget, reference_scans)
        assert scans == reference_scans
        assert result.to_json() == reference.to_json()
        assert result.graph.to_json() == reference.graph.to_json()
        budget_hit += result.status is Status.BUDGET_EXCEEDED
    assert budget_hit > 20
    assert first_taken > 600 and last_taken > 600


def test_placed_one_step_edge_pends_nothing(monkeypatch):
    # Counts, not timings.  A relation stated twice finds two sites at the
    # start of ab, each sewing the one step c from 0 to 2; the second finds
    # the edge the first placed and pends nothing, so GraphBuilder.fold
    # runs once, for close's first fold, and no round folds.
    calls = []
    builder_fold = GraphBuilder.fold

    def counted(self):
        calls.append(self)
        return builder_fold(self)

    monkeypatch.setattr(GraphBuilder, "fold", counted)
    p = parse_presentation("X: a b c\nR: ab = c\nR: ab = c\n")
    result = schutzenberger_automaton(parse_word("ab", p.alphabet), p)
    assert (result.status, result.rounds, result.fold_events) == (Status.CLOSED, 1, 0)
    assert result.vertex_history == (3, 3)
    assert len(calls) == 1


def test_last_vertex_count_is_the_graph_size():
    # The decision witnesses and the CLI read the vertex count from
    # vertex_history[-1] in place of building the graph's vertex set.
    rng = random.Random(23)
    budget_hit = relinked = first_fold_merged = 0
    for i in range(300):
        p = random_presentation(rng)
        word = random_signed_word(rng, "ab" if i % 3 else "a", 8)
        budget = Budget(rng.randint(1, 12), rng.randint(1, 200))
        for b in (GraphBuilder.from_word(word, p.alphabet), GraphBuilder.from_word(word)):
            before = vertex_count(b)
            result = close(b, p, budget)
            assert result.vertex_history[-1] == len(result.graph.vertices)
            budget_hit += result.status is Status.BUDGET_EXCEEDED
            relinked += b._rows is not None
            first_fold_merged += result.vertex_history[0] < before
    assert budget_hit > 50 and relinked > 50 and first_fold_merged > 200


def test_round_logs_every_edge_it_adds():
    # The deduction rests on this: an edge of the graph after a round that
    # was not an edge before it, under the same ids, is a live entry of
    # the builder's log, in either orientation.  close scans after round
    # 0's fold, when every edge must be logged, and after every round.
    deduced = engine._deduced
    checked_edges = 0

    def checked(b):
        before = None

        def scan(rows, log, table):
            nonlocal before, checked_edges
            assert rows is b._rows and log is b.log
            edges = b.freeze().edges
            logged = set()
            for s, c, t, _ in log:
                logged.add((t, b.letters[c >> 1], s) if c & 1 else (s, b.letters[c >> 1], t))
            for edge in edges - (before or frozenset()):
                assert edge in logged
                checked_edges += before is not None
            before = edges
            return deduced(rows, log, table)

        return scan

    rng = random.Random(17)
    for _ in range(300):
        p = random_presentation(rng)
        word = random_signed_word(rng, "ab", 10)
        b = closing_builder(word, p)
        with mock.patch.object(engine, "_deduced", checked(b)):
            close(b, p, Budget(rng.randint(1, 12), rng.randint(1, 200)))
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

    def counted_bfs(rows, pending, alpha):
        orders.append(alpha)
        return bfs(rows, pending, alpha)

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
