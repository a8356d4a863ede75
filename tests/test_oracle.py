import itertools
import random

from hypothesis import given, strategies as st

from stephen_kit import Answer, Word, decide_equal, fold, linear_graph
from oracle import brute_force_accepts, brute_force_closure, brute_force_equal, munn_tree
from support import CASE1, COMM, isomorphic, pos, w


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
    assert isomorphic(munn_tree(word), fold(linear_graph(word)).final)


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
