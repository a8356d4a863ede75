import random
import tracemalloc

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
    assert_graph_consistent,
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
        backward = full_p_expansion(g, p, find_expansions(g, p)[::-1])
        assert isomorphic(full_p_expansion(g, p), backward)


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
    # One site scan before round 1 and one after every round: each case's
    # scans walk the pinned number of table entries (keyed by its vertex
    # history), and a second scan in a pass would walk its log again.  The
    # walks are counted on a copy of p, whose compile counted_walks rewrites.
    walks = {(4, 6): 10, (3, 4): 6, (3, 5, 7, 9): 13}[history]
    result, walked = counted_walks(Presentation(p.alphabet, p.relations), pos(word), budget)
    assert (result.status, result.rounds, result.vertex_history) == (status, rounds, history)
    assert walked == walks


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
@example(SUBWORD, pos("ab"), Budget(64, 5))  # at the limit, not over it, after round 1
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
    # A round limit of k stops close after round k, and the graph it
    # returns takes over the builder's rows as that round left them: read
    # through its walk, it must be a consistent graph after every round.
    rounds = schutzenberger_automaton(word, p, budget).rounds
    for k in range(1, max(rounds, 1) + 1):
        g = schutzenberger_automaton(word, p, Budget(k, budget.max_vertices)).graph
        assert_graph_consistent(g, p.alphabet)


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
    # over 300 letters the rows have 4 slots: the traced peak of the
    # closure to 4,001 vertices (about 0.6 MB) stays near that over 2
    # letters, where rows of 600 slots would take about 19 MB.
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
        assert {x for _, x, _ in g.edges} == {"x0", "x1"}
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
    # folds onto that path, so a round may sew its sites in any order.  A
    # scan meets the sites that one log entry starts in the order of the
    # relations and of their sides, so reversing the relations, or
    # shuffling them and swapping the sides of some, sews such sites in
    # another order: the closure is the same, and where chains with new
    # vertices trade places, its raw vertex ids are not.  Closures over
    # ab = ba, bc = cb, ac = ca meet several sites at one entry most often.
    rng = random.Random(5)
    comm3 = Presentation(
        ("a", "b", "c"), ((pos("ab"), pos("ba")), (pos("bc"), pos("cb")), (pos("ac"), pos("ca")))
    )
    cases = [(random_presentation(rng), random_signed_word(rng, "ab", 6)) for _ in range(300)]
    cases += [(comm3, random_positive_word(rng, "abc", 8)) for _ in range(300)]
    renumbered = 0
    for p, word in cases:
        budget = Budget(rng.randint(1, 16), rng.randint(1, 300))
        result = schutzenberger_automaton(word, p, budget)
        shuffled = rng.sample(p.relations, len(p.relations))
        swapped = [(r, l) if rng.random() < 0.5 else (l, r) for l, r in shuffled]
        for relations in (p.relations[::-1], swapped):
            q = Presentation(p.alphabet, tuple(relations))
            other = schutzenberger_automaton(word, q, budget)
            assert other.to_json() == result.to_json()
            assert other.graph.to_json() == result.graph.to_json()
            assert other.graph.canonical_key() == result.graph.canonical_key()
            renumbered += other.graph.edges != result.graph.edges
    assert renumbered > 100


def _deduction_closures() -> list:
    """(make, p, budget) for each closure that exercises the deduction
    scan, make() a new builder for close: 400 random closures, merging
    ones where logged edges go stale inside a fold, a cascading fold, a
    relation stated twice, and unfolded builders whose first fold merges.
    A graph's builder links its rows in id order, so vertex ids, log order
    and every count over these closures are the same under every hash
    seed."""
    closures = []
    rng = random.Random(2)
    bbb = Presentation(("a", "b"), ((pos("b"), pos("bbb")), (pos("bb"), pos("aaa"))))
    comm3 = Presentation(
        ("a", "b", "c"), ((pos("ab"), pos("ba")), (pos("bc"), pos("cb")), (pos("ac"), pos("ca")))
    )
    twice = Presentation(("a", "b"), ((pos("ab"), pos("ba")), (pos("ba"), pos("ab"))))
    cascade = Presentation(("a", "b", "c"), ((pos("bc"), pos("bcc")),))

    def folded(g, p, budget=Budget()):
        closures.append((lambda: GraphBuilder.from_graph(g), p, budget))

    def unfolded(make, p):
        # The first fold merges, so round 0 reads a log that it rewrote.
        b = make()
        before = vertex_count(b)
        b.fold()
        assert vertex_count(b) < before
        closures.append((make, p, Budget(8, 200)))

    # This round's fold cascades, and a site appears at a later merge
    # survivor that no sewn chain reaches.
    folded(fold(linear_graph(w("babaa^cb^a^cac^a^"))), cascade)
    # Merging closures, where logged edges go stale inside a fold.
    folded(linear_graph(pos("b")), bbb)
    folded(linear_graph(pos("aabbcc")), comm3)
    folded(linear_graph(w("ab^c^ba^c")), comm3)
    folded(linear_graph(pos("abab")), twice)
    for i in range(400):
        p = (SUBWORD, bbb)[i % 2] if i % 4 == 0 else random_presentation(rng)
        word = random_signed_word(rng, "ab", 12) if i % 3 else random_positive_word(rng, "ab", 8)
        folded(fold(linear_graph(word)), p, Budget(rng.randint(1, 12), 200))
    for word in ("aa^bab^", "ab^ba^ab", "bb^aab^ba^", "a^abb^a"):
        for p in (COMM, SUBWORD, bbb, twice):
            unfolded(lambda word=word, p=p: GraphBuilder.from_word(w(word), p.alphabet), p)
        unfolded(lambda word=word: GraphBuilder.from_word(w(word + "c"), comm3.alphabet), comm3)

    def by_hand():
        # A link onto a taken slot pends, and the first fold merges its two
        # targets and moves their b edge.
        b = GraphBuilder(("a", "b"))
        v0, v1, v2 = new_vertex(b), new_vertex(b), new_vertex(b)
        b.link(v0, b.codes["a"], v1)
        b.link(v1, b.codes["b"], v2)
        b.link(v0, b.codes["a"], v2)
        b.beta = v2
        return b

    unfolded(by_hand, COMM)
    return closures


def test_close_matches_the_reference_round_by_round():
    # close under a round limit of k, for every k up to the rounds the
    # reference runs, gives what naive_close gives after round k: the
    # reference sews the sites find_expansions finds on the whole graph
    # every round, so each round of close must find every site and sew
    # each site's chain, by the taken-slot rules at its two ends, into
    # the same graph.  The closures are the deduction closures, which
    # merge inside rounds, so that a fold leaves stale log entries, and
    # closures of random words whose sites often find a slot taken at the
    # start or at the end of their chain.
    cases = _deduction_closures()
    deductions = len(cases)
    rng = random.Random(5)
    for i in range(300):
        p = random_presentation(rng)
        word = random_signed_word(rng, "ab", 10) if i % 3 else random_positive_word(rng, "ab", 8)
        budget = Budget(rng.randint(1, 12), rng.randint(1, 200))
        cases.append((lambda word=word, p=p: GraphBuilder.from_word(word, p.alphabet), p, budget))
    rounds = first_taken = last_taken = budget_hit = 0
    deduction_rounds = merges = merging = 0
    for n, (make, p, budget) in enumerate(cases):
        # The reference refreezes the whole graph every round, so no
        # closure here runs past 4,000 vertices (bbb from b would reach
        # 131,066 under its default budget).
        budget = Budget(budget.max_rounds, min(budget.max_vertices, 4000))
        b = make()
        b.fold()
        each_round = []
        reference = naive_close(BirootedGraph(b), p, budget, each_round)
        for k in range(1, reference.rounds + 1):
            result = close(make(), p, Budget(k, budget.max_vertices))
            assert_same_closure(result, each_round[k])
            assert result.graph.to_json() == each_round[k].graph.to_json()
        result = close(make(), p, budget)
        assert_same_closure(result, reference)
        assert result.graph.to_json() == reference.graph.to_json()
        rounds += reference.rounds
        budget_hit += reference.status is Status.BUDGET_EXCEEDED
        if n < deductions:
            deduction_rounds += reference.rounds
            merges += reference.fold_events
            merging += reference.fold_events > 0
        for before in each_round[: reference.rounds]:
            g = before.graph
            for start, end, (_, sew) in find_expansions(g, p):
                x, sign = sew[-1]
                last = g.walk(end, ((x, -sign),)) is not None
                if len(sew) > 1:
                    first_taken += g.walk(start, sew[:1]) is not None
                else:
                    last |= g.walk(start, sew) is not None
                last_taken += last
    assert rounds > 500
    assert budget_hit > 20
    assert first_taken > 600 and last_taken > 600
    # The 426 deduction closures run 1,143 rounds, and 269 of them merge
    # inside a round, 3,372 merges in all.
    assert deduction_rounds > 1000 and merges > 3000 and merging > 250


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
            edges = b.freeze().edges
            result = close(b, p, budget)
            assert result.vertex_history[-1] == len(result.graph.vertices)
            budget_hit += result.status is Status.BUDGET_EXCEEDED
            try:  # close leaves a builder it linked again as it was
                assert b.freeze().edges == edges
                relinked += 1
            except TypeError:  # close spent b: it has no rows
                pass
            first_fold_merged += result.vertex_history[0] < before
    assert budget_hit > 50 and relinked > 50 and first_fold_merged > 200


def test_round_logs_every_edge_it_adds():
    # The deduction rests on this: an edge that a round adds is an entry
    # of the log the next round's scan reads, so that scan finds every site
    # through it.  A builder linked from a graph logs every edge, so a
    # closure resumed from the graph that a round limit of k leaves must
    # make what round k + 1 makes: the same graph, merges and vertex count.
    checked_edges = 0
    rng = random.Random(17)
    for _ in range(300):
        p = random_presentation(rng)
        word = random_signed_word(rng, "ab", 10)
        budget = Budget(rng.randint(1, 12), rng.randint(1, 200))
        before, merges = fold(linear_graph(word)), 0  # round 0's graph, as close folds it
        for k in range(1, schutzenberger_automaton(word, p, budget).rounds + 1):
            after = schutzenberger_automaton(word, p, Budget(k, budget.max_vertices))
            resumed = close(GraphBuilder.from_graph(before), p, Budget(1, budget.max_vertices))
            assert resumed.status is after.status
            assert resumed.rounds == 1 and resumed.vertex_history == after.vertex_history[-2:]
            assert resumed.fold_events == after.fold_events - merges
            assert resumed.graph.to_json() == after.graph.to_json()
            checked_edges += len(after.graph.edges - before.edges)
            before, merges = after.graph, after.fold_events
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
