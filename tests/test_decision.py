import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from stephen_kit import (
    Answer,
    BirootedGraph,
    Budget,
    Presentation,
    Word,
    decide_equal,
    decide_natural_leq,
    is_idempotent,
)
from stephen_kit import engine
from oracle import munn_tree
from support import CASE1, COMM, FACT1, FREE2, SUBWORD, all_signed_words, isomorphic, pos, w


small_positive = st.builds(
    lambda ls: Word(tuple((x, 1) for x in ls)),
    st.lists(st.sampled_from("ab"), min_size=1, max_size=4),
)


# --- decide_equal ------------------------------------------------------------


def test_equal_defining_relation():
    assert decide_equal(pos("ab"), pos("ba"), COMM).answer is Answer.YES


def test_equal_distinct_generators():
    verdict = decide_equal(pos("a"), pos("b"), COMM)
    assert verdict.answer is Answer.NO
    assert verdict.witness["u_closure"]["status"] == "closed"


def test_equal_derived_pair():
    assert decide_equal(pos("aab"), pos("aba"), COMM).answer is Answer.YES


def test_equal_checks_alphabet():
    with pytest.raises(ValueError, match="not in the alphabet"):
        decide_equal(pos("a"), pos("z"), COMM)


def test_equal_refuses_v_before_closing_u():
    def fail(*args, **kwargs):
        raise AssertionError("close called before v was checked")

    with mock.patch.object(engine, "close", fail):
        with pytest.raises(ValueError, match="^letter 'z' is not in the alphabet$"):
            decide_equal(pos("a"), pos("z"), COMM)


def test_equal_unknown_under_tiny_budget():
    # Over the divergent presentation nothing closes, and neither side
    # accepts the other within one round, so the verdict stays open.
    verdict = decide_equal(pos("ab"), pos("ba"), SUBWORD, Budget(1, 100000))
    assert verdict.answer is Answer.UNKNOWN
    assert verdict.witness["u_closure"]["status"] == "budget-exceeded"


def test_equal_yes_from_partial_acceptance():
    # The defining relation of the divergent presentation is still provable:
    # each side's first approximation already accepts the other side.
    verdict = decide_equal(pos("aba"), pos("b"), SUBWORD, Budget(2, 100000))
    assert verdict.answer is Answer.YES
    assert verdict.witness["u_closure"]["status"] == "budget-exceeded"


def test_equal_never_builds_the_vertex_set(monkeypatch):
    # A closure witness counts its vertices from vertex_history[-1]; the
    # graph's vertex set is a frozenset of every vertex id, built on first read.
    cases = (
        (pos("ab"), pos("ba"), COMM, Budget()),
        (pos("a"), pos("b"), COMM, Budget()),
        (pos("ab"), pos("ba"), SUBWORD, Budget(1, 100000)),
        (pos("ab"), pos("b"), SUBWORD, Budget(64, 300)),
        (w("aa^b"), w("bb^a"), CASE1, Budget()),
    )
    sizes = [
        [len(engine.schutzenberger_automaton(x, p, budget).graph.vertices) for x in (u, v)]
        for u, v, p, budget in cases
    ]

    def refused(self):
        raise AssertionError("BirootedGraph.vertices was built")

    monkeypatch.setattr(BirootedGraph, "vertices", property(refused))
    for (u, v, p, budget), size in zip(cases, sizes):
        witness = decide_equal(u, v, p, budget).witness
        assert [witness["u_closure"]["vertices"], witness["v_closure"]["vertices"]] == size


@given(small_positive)
@settings(max_examples=30)
def test_equal_reflexive(word):
    assert decide_equal(word, word, COMM).answer is Answer.YES


@given(small_positive, small_positive)
@settings(max_examples=30)
def test_equal_symmetric(u, v):
    assert decide_equal(u, v, COMM).answer is decide_equal(v, u, COMM).answer


def test_equal_transitive_on_sampled_triples():
    words = [pos("".join(c)) for n in (1, 2, 3) for c in itertools.product("ab", repeat=n)]
    verdicts = {
        (u, v): decide_equal(u, v, COMM).answer for u, v in itertools.product(words, words)
    }
    for u, v, t in itertools.product(words, repeat=3):
        if verdicts[(u, v)] is Answer.YES and verdicts[(v, t)] is Answer.YES:
            assert verdicts[(u, t)] is Answer.YES


@given(small_positive)
@settings(max_examples=20)
def test_inverse_monoid_law(word):
    for p in (CASE1, FACT1):
        assert decide_equal(word, word + word.inverse() + word, p).answer is Answer.YES


def test_free_case_agrees_with_munn_trees():
    words = list(all_signed_words("ab", 3))
    for u, v in itertools.combinations(words, 2):
        equal = decide_equal(u, v, FREE2).answer is Answer.YES
        assert equal == isomorphic(munn_tree(u), munn_tree(v))


# --- decide_natural_leq --------------------------------------------------------


def test_leq_expanded_word():
    assert decide_natural_leq(pos("ab"), w("abb^a^ba"), COMM).answer is Answer.YES


def test_leq_reflexive():
    for word in (pos("ab"), w("aa^"), Word()):
        assert decide_natural_leq(word, word, COMM).answer is Answer.YES


def test_leq_shorter_word_not_above():
    assert decide_natural_leq(pos("ab"), pos("a"), COMM).answer is Answer.NO


def test_leq_unknown_when_not_closed():
    verdict = decide_natural_leq(pos("ab"), pos("ba"), SUBWORD, Budget(1, 100000))
    assert verdict.answer is Answer.UNKNOWN
    assert verdict.witness["closure"]["status"] == "budget-exceeded"


def test_order_antisymmetry_on_finite_cases():
    words = [pos("".join(c)) for n in (1, 2, 3) for c in itertools.product("ab", repeat=n)]
    for u, v in itertools.combinations(words, 2):
        down = decide_natural_leq(u, v, COMM).answer
        up = decide_natural_leq(v, u, COMM).answer
        if down is Answer.YES and up is Answer.YES:
            assert decide_equal(u, v, COMM).answer is Answer.YES


# --- is_idempotent --------------------------------------------------------------


def test_idempotent_examples():
    assert is_idempotent(w("aa^"), COMM).answer is Answer.YES
    assert is_idempotent(pos("a"), COMM).answer is Answer.NO
    assert is_idempotent(Word(), COMM).answer is Answer.YES


def test_idempotent_witness_names_word():
    verdict = is_idempotent(w("aa^"), COMM)
    assert verdict.witness["word"] == "aa^"
    assert set(verdict.witness) == {"word", "accepted", "closure", "budget"}


def test_uu_inverse_always_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        word = Word(
            tuple((rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(0, 5)))
        )
        e = word + word.inverse()
        assert is_idempotent(e, COMM, Budget(8, 100000)).answer is Answer.YES


_random_presentations = st.lists(
    st.tuples(st.text("ab", min_size=1, max_size=4), st.text("ab", min_size=1, max_size=4)).filter(
        lambda r: r[0] != r[1]
    ),
    min_size=1,
    max_size=3,
).map(lambda rels: Presentation(("a", "b"), tuple((pos(u), pos(v)) for u, v in rels)))

_BBB = Presentation(("a", "b"), ((pos("b"), pos("bbb")), (pos("bb"), pos("aaa"))))


@st.composite
def _idempotency_queries(draw):
    p = draw(st.one_of(st.sampled_from((COMM, CASE1, SUBWORD, _BBB)), _random_presentations))
    letters = st.tuples(st.sampled_from(p.alphabet), st.sampled_from((1, -1)))

    def word(max_size):
        return Word(tuple(draw(st.lists(letters, max_size=max_size))))

    shape = draw(st.sampled_from(("any", "any", "uu^", "uu^vv^")))
    if shape == "any":
        query = word(8)
    elif shape == "uu^":
        u = word(4)
        query = u + u.inverse()
    else:
        u, v = word(2), word(2)
        query = u + u.inverse() + v + v.inverse()
    budget = Budget(draw(st.integers(1, 10)), draw(st.integers(20, 200)))
    return query, p, budget


@given(_idempotency_queries())
@settings(max_examples=300)
def test_idempotent_agrees_with_equality_to_w_w_inverse(query):
    # One automaton A(w) gives the verdict that w = w w^-1 gives from two,
    # at every budget.
    word, p, budget = query
    expected = decide_equal(word, word + word.inverse(), p, budget).answer
    assert is_idempotent(word, p, budget).answer is expected, (str(word), str(p), budget)


# --- verdict JSON ----------------------------------------------------------------


def test_verdict_json_shape():
    payload = decide_equal(pos("ab"), pos("ba"), COMM).to_json()
    assert payload["answer"] == "yes"
    assert set(payload["witness"]) == {
        "u",
        "v",
        "u_in_v",
        "v_in_u",
        "u_closure",
        "v_closure",
        "budget",
    }
    assert payload["witness"]["budget"] == {"max_rounds": 64, "max_vertices": 100000}
