import itertools
import random

from collections import Counter, defaultdict
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from stephen_kit import (
    Answer,
    Budget,
    Presentation,
    Status,
    Word,
    decide_equal,
    schutzenberger_automaton,
)
from stephen_kit.word_graph import fold
from oracle import (
    _flat_adjacency,
    _flat_find_site,
    _flat_walk,
    brute_force_accepts,
    brute_force_closure,
    brute_force_equal,
    munn_tree,
)
from support import CASE1, COMM, graph, isomorphic, linear_graph, pos, w


signed_words = st.builds(
    lambda ls: Word(tuple(ls)),
    st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), max_size=10),
)


# --- munn_tree ----------------------------------------------------------------


def test_munn_tree_cancelling_pair():
    tree = munn_tree(w("aa^"))
    assert len(tree.vertices) == 2
    assert tree.alpha == tree.beta


def test_munn_tree_chain():
    tree = munn_tree(pos("ab"))
    assert len(tree.vertices) == 3
    assert tree.accepts(pos("ab"))


def test_munn_tree_star():
    tree = munn_tree(w("aa^bb^"))
    assert len(tree.vertices) == 3
    assert len(tree.edges) == 2
    assert tree.alpha == tree.beta


@given(signed_words)
def test_munn_tree_is_tree(word):
    tree = munn_tree(word)
    assert len(tree.edges) == len(tree.vertices) - 1


@given(signed_words)
def test_munn_tree_matches_folded_linear_graph(word):
    # Two independent routes to the free-case normal form.
    assert isomorphic(munn_tree(word), fold(linear_graph(word)))


@given(signed_words)
def test_munn_tree_accepts_own_word(word):
    assert munn_tree(word).accepts(word)


# --- brute-force engine ---------------------------------------------------------


def test_brute_force_defining_relation():
    assert brute_force_equal(pos("ab"), pos("ba"), COMM, 10) is Answer.YES


def test_brute_force_distinct_words():
    assert brute_force_equal(pos("a"), pos("aa"), COMM, 10) is Answer.NO


def test_brute_force_derived_pair():
    assert brute_force_equal(pos("aab"), pos("aba"), COMM, 20) is Answer.YES


def test_brute_force_depth_exhaustion():
    # Depth 0 leaves any word containing a relation side unclosed.
    assert brute_force_equal(pos("ab"), pos("ba"), COMM, 0) is Answer.UNKNOWN


def test_brute_force_closure_accepts():
    closure = brute_force_closure(pos("ab"), COMM, 10)
    assert closure.closed
    assert brute_force_accepts(closure, pos("ba"))
    assert brute_force_accepts(closure, w("abb^a^ba"))
    assert not brute_force_accepts(closure, pos("a"))


def test_brute_force_agrees_with_engine_sampled():
    rng = random.Random(5)
    words = [pos("".join(c)) for n in (1, 2, 3) for c in itertools.product("ab", repeat=n)]
    for _ in range(60):
        u, v = rng.choice(words), rng.choice(words)
        for p in (COMM, CASE1):
            expected = brute_force_equal(u, v, p, 100)
            assert expected is not Answer.UNKNOWN
            assert decide_equal(u, v, p).answer is expected


# --- engine against the brute-force closure on random presentations ----------


@st.composite
def presentations_and_words(draw):
    """1-3 relations on 2-3 letters, and two signed words up to length 6."""
    alphabet = "abc"[: draw(st.integers(2, 3))]
    side = st.lists(st.sampled_from(alphabet), min_size=1, max_size=3).map(
        lambda ls: Word(tuple((x, 1) for x in ls))
    )
    relations = draw(
        st.lists(st.tuples(side, side).filter(lambda r: r[0] != r[1]), min_size=1, max_size=3)
    )
    word = st.lists(
        st.tuples(st.sampled_from(alphabet), st.sampled_from((1, -1))), max_size=6
    ).map(lambda ls: Word(tuple(ls)))
    return Presentation(tuple(alphabet), tuple(relations)), draw(word), draw(word)


DIFF_BUDGET = Budget(16, 200)
DIFF_DEPTH = 40


def assert_closed_graph_invariants(edges, alpha, beta, p, word):
    """A closed result checked with the oracle's own code, not the engine's."""
    assert not [k for k, n in Counter((s, x) for s, x, _ in edges).items() if n > 1]
    assert not [k for k, n in Counter((t, x) for _, x, t in edges).items() if n > 1]
    assert _flat_find_site(edges, alpha, beta, p) is None
    assert _flat_walk(_flat_adjacency(edges), alpha, word) == beta


@given(presentations_and_words())
@settings(max_examples=150)
def test_engine_matches_brute_force_on_random_presentations(case):
    p, u, v = case
    closed = True
    for word in (u, v):
        result = schutzenberger_automaton(word, p, DIFF_BUDGET)
        brute = brute_force_closure(word, p, DIFF_DEPTH)
        g = result.graph
        if result.status is Status.CLOSED:
            assert_closed_graph_invariants(g.edges, g.alpha, g.beta, p, word)
        if brute.closed:
            assert_closed_graph_invariants(brute.edges, brute.alpha, brute.beta, p, word)
        if result.status is Status.CLOSED and brute.closed:
            reference = graph(brute.alpha, brute.beta, brute.edges)
            assert g.canonical_key() == reference.canonical_key()
        else:
            closed = False
    engine = decide_equal(u, v, p, DIFF_BUDGET).answer
    brute = brute_force_equal(u, v, p, DIFF_DEPTH)
    if closed:
        assert Answer.UNKNOWN not in (engine, brute)
    if Answer.UNKNOWN not in (engine, brute):
        assert engine is brute


# --- the abelian image: Z^X / span(lhs - rhs) --------------------------------


def _reduce(vector, basis):
    """vector less its part in the span of basis, rows with a unit pivot
    and zeros at the pivots of the rows before them."""
    for pivot, row in basis:
        factor = vector[pivot]
        if factor:
            vector = [a - factor * b for a, b in zip(vector, row)]
    return vector


def assert_abelian_image(g, p, word):
    """Every cycle of g counts its letters, with sign, as a rational
    combination of the vectors lhs - rhs, and so does the difference of an
    alpha -> beta path and word: sewing closes cycles lhs - rhs and folding
    merges vertices at equal letter counts."""
    index = {x: i for i, x in enumerate(p.alphabet)}

    def count(letters):
        vector = [0] * len(index)
        for x, sign in letters:
            vector[index[x]] += sign
        return vector

    basis = []
    for lhs, rhs in p.relations:
        vector = _reduce([a - b for a, b in zip(count(lhs), count(rhs))], basis)
        pivot = next((i for i, a in enumerate(vector) if a), None)
        if pivot is not None:
            basis.append((pivot, [Fraction(a, vector[pivot]) for a in vector]))
    steps = defaultdict(list)
    for s, x, t in g.edges:
        steps[s].append((x, 1, t))
        steps[t].append((x, -1, s))
    counts = {g.alpha: [0] * len(index)}  # of a path from alpha to each vertex
    queue = [g.alpha]
    for v in queue:
        for x, sign, t in steps[v]:
            if t not in counts:
                counts[t] = counts[v][:]
                counts[t][index[x]] += sign
                queue.append(t)
    for s, x, t in g.edges:
        cycle = [a - b for a, b in zip(counts[s], counts[t])]
        cycle[index[x]] += 1
        assert not any(_reduce(cycle, basis))
    path = [a - b for a, b in zip(counts[g.beta], count(word))]
    assert not any(_reduce(path, basis))


@given(presentations_and_words(), st.integers(1, 16), st.integers(1, 200))
@settings(max_examples=300)
def test_closures_respect_the_abelian_image(case, rounds, vertices):
    p, u, v = case
    for word in (u, v):
        result = schutzenberger_automaton(word, p, Budget(rounds, vertices))
        assert_abelian_image(result.graph, p, word)
