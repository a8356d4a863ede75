"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Expected values marked as derived were computed with
the independent oracles in this repository (naive fold, Munn trees, the
brute-force closure, and a generic cycle detector) before being frozen
here.
"""

import json
import random
import time

import networkx as nx

from stephen_kit import (
    Answer,
    Budget,
    Presentation,
    Status,
    Word,
    decide_equal,
    decide_natural_leq,
    is_adian,
    is_idempotent,
    schutzenberger_automaton,
)
from stephen_kit.cli import main
from stephen_kit.engine import find_expansions
from stephen_kit.presentation import side_graphs
from stephen_kit.word_graph import fold
from oracle import brute_force_accepts, brute_force_closure, brute_force_equal, munn_tree
from support import (
    CASE1,
    CASE2,
    COMM,
    FACT1,
    FREE2,
    SUBWORD,
    all_positive_words,
    all_signed_words,
    full_p_expansion,
    isomorphic,
    linear_graph,
    pos,
    random_positive_word,
    reversed_ids,
)


def _report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_commutative_closure_golden():
    word = pos("ab")
    result = schutzenberger_automaton(word, COMM)
    assert result.status is Status.CLOSED
    assert len(result.graph.vertices) == 4
    assert len(result.graph.edges) == 4
    assert result.rounds == 1
    assert result.fold_events == 0
    best = min(
        _timed(lambda: schutzenberger_automaton(word, COMM)) for _ in range(5)
    )
    assert best < 0.001, f"closure took {best * 1e6:.0f} us"
    _report(1, f"closure of ab is the 4-vertex square, built in {best * 1e6:.0f} us")


def _timed(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_02_free_monoid_oracle_exhaustive():
    # Every pair of words of length <= 6 over {a, b} and inverses.  Closures
    # and Munn trees are computed once per word; the pair loop then walks
    # each word over the other's automaton, which is exactly the mutual
    # acceptance decide_equal performs on closed automata.  A random sample
    # re-checks pairs through decide_equal verbatim.
    words = list(all_signed_words("ab", 6))
    assert len(words) == 5461
    signed = [(x, s) for x in "ab" for s in (1, -1)]
    code = {key: k for k, key in enumerate(signed)}

    flats = []
    seqs = []
    keys = []
    for word in words:
        result = schutzenberger_automaton(word, FREE2)
        assert result.status is Status.CLOSED and result.rounds == 0
        tree = munn_tree(word)
        assert isomorphic(result.graph, tree)
        adj = {}
        for s, x, t in result.graph.edges:
            adj[s * 4 + code[(x, 1)]] = t
            adj[t * 4 + code[(x, -1)]] = s
        flats.append((adj, result.graph.alpha, result.graph.beta))
        seqs.append(tuple(code[key] for key in word.letters))
        keys.append(tree.canonical_key())

    disagreements = 0
    n = len(words)
    for i in range(n):
        adj_i, alpha_i, beta_i = flats[i]
        seq_i = seqs[i]
        key_i = keys[i]
        for j in range(i, n):
            adj_j, alpha_j, beta_j = flats[j]
            v = alpha_j
            for c in seq_i:
                v = adj_j.get(v * 4 + c)
                if v is None:
                    break
            equal = v == beta_j
            if equal:
                v = alpha_i
                for c in seqs[j]:
                    v = adj_i.get(v * 4 + c)
                    if v is None:
                        break
                equal = v == beta_i
            if equal != (key_i == keys[j]):
                disagreements += 1
    assert disagreements == 0

    rng = random.Random(20260810)
    for _ in range(2000):
        i, j = rng.randrange(n), rng.randrange(n)
        verdict = decide_equal(words[i], words[j], FREE2)
        assert verdict.answer is not Answer.UNKNOWN
        assert (verdict.answer is Answer.YES) == (keys[i] == keys[j])
    _report(2, f"{n * (n + 1) // 2} free-case pairs agree with Munn-tree isomorphism")


def test_criterion_03_engine_oracle_agreement():
    checked = 0
    for p, alphabet, depth in ((COMM, "ab", 200), (CASE1, "abc", 200)):
        words = list(all_positive_words(alphabet, 5))
        brute = {}
        for word in words:
            closure = brute_force_closure(word, p, depth)
            assert closure.closed
            brute[word] = closure
        for i, u in enumerate(words):
            for v in words[i:]:
                engine = decide_equal(u, v, p).answer
                assert engine is not Answer.UNKNOWN
                oracle_equal = brute_force_accepts(brute[v], u) and brute_force_accepts(
                    brute[u], v
                )
                assert (engine is Answer.YES) == oracle_equal, (str(u), str(v), p)
                checked += 1
        rng = random.Random(404)
        for _ in range(150):
            u, v = rng.choice(words), rng.choice(words)
            assert brute_force_equal(u, v, p, depth) is decide_equal(u, v, p).answer
    _report(3, f"{checked} pairs agree between engine and brute-force oracle")


def test_criterion_04_no_folding_for_positive_words():
    rng = random.Random(41)
    for p, alphabet in ((CASE1, "abc"), (CASE2, "abc"), (FACT1, "abcd")):
        for _ in range(500):
            word = random_positive_word(rng, alphabet, 10)
            result = schutzenberger_automaton(word, p)
            assert result.fold_events == 0, (str(word), p)
            history = result.vertex_history
            assert all(a <= b for a, b in zip(history, history[1:]))
    _report(4, "fold_events = 0 over 1500 random positive words, three presentations")


def test_criterion_05_certified_finite_classes_close():
    rng = random.Random(52)
    budget = Budget(64, 100_000)
    for p, alphabet in ((CASE1, "abc"), (CASE2, "abc"), (FACT1, "abcd")):
        for _ in range(500):
            word = random_positive_word(rng, alphabet, 12)
            result = schutzenberger_automaton(word, p, budget)
            assert result.status is Status.CLOSED, (str(word), p)
    _report(5, "1500 random closures over certified presentations all closed")


def test_criterion_06_folding_confluence():
    # The copy with vertex v renamed top - v is folded in another merge
    # order.  The older vertex survives each merge, so mapped back to the
    # original ids the two folds keep different vertices wherever they merge.
    rng = random.Random(63)
    merged = reordered = 0
    for _ in range(100):
        word = Word(
            tuple(
                (rng.choice("abc"), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 12))
            )
        )
        g = linear_graph(word)
        top = max(g.vertices)
        first = fold(g)
        second = fold(reversed_ids(g))
        assert isomorphic(first, second)
        assert len(first.vertices) == len(second.vertices)
        merged += len(first.vertices) < len(g.vertices)
        reordered += first.vertices != {top - v for v in second.vertices}
    assert reordered > 0
    _report(
        6,
        f"100 random words fold identically under two merge orders, "
        f"which keep different vertex ids on {reordered} of the {merged} words that merge",
    )


def test_criterion_07_acceptance_monotonicity():
    stages = [fold(linear_graph(pos("aab")))]
    while find_expansions(stages[-1], COMM):
        stages.append(full_p_expansion(stages[-1], COMM))
        assert len(stages) < 20
    assert len(stages) >= 3
    probes = list(all_signed_words("ab", 6))
    accepted = [{word for word in probes if g.accepts(word)} for g in stages]
    for earlier, later in zip(accepted, accepted[1:]):
        assert earlier <= later
    assert pos("aab") in accepted[0]
    _report(7, f"acceptance grew monotonically across {len(stages)} approximations")


def test_criterion_08_theorem_sanity():
    presentations = (COMM, CASE1, CASE2, FACT1, SUBWORD)
    for p in presentations:
        u, v = p.relations[0]
        assert decide_equal(u, v, p).answer is Answer.YES, p

    rng = random.Random(85)
    budget = Budget(8, 100_000)
    for p in presentations:
        alphabet = "".join(p.alphabet)
        for _ in range(10):
            word = Word(
                tuple(
                    (rng.choice(alphabet), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 6))
                )
            )
            assert decide_natural_leq(word, word, p, budget).answer is Answer.YES

    for index in range(100):
        p = (COMM, CASE1)[index % 2]
        alphabet = "".join(p.alphabet)
        word = Word(
            tuple(
                (rng.choice(alphabet), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 5))
            )
        )
        e = word + word.inverse()
        assert is_idempotent(e, p, budget).answer is Answer.YES, str(word)
    _report(8, "defining relations equal, order reflexive, ww^-1 idempotent")


def _multigraph_cycle_free(vertices, edges):
    g = nx.MultiGraph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    # A multigraph is a forest iff |E| = |V| - (number of components).
    return g.number_of_edges() == g.number_of_nodes() - nx.number_connected_components(g)


def test_criterion_09_adian_checker():
    assert is_adian(COMM) is True
    assert is_adian(Presentation(("a",), ((pos("aa"), pos("a")),))) is False
    parallel = Presentation(("a", "b"), ((pos("ab"), pos("bb")), (pos("ba"), pos("aa"))))
    assert is_adian(parallel) is False

    rng = random.Random(96)
    for _ in range(200):
        size = rng.randint(1, 5)
        alphabet = "abcde"[:size]
        relations = []
        for _ in range(rng.randint(1, 4)):
            while True:
                lhs = random_positive_word(rng, alphabet, 4)
                rhs = random_positive_word(rng, alphabet, 4)
                if lhs != rhs:
                    break
            relations.append((lhs, rhs))
        p = Presentation(tuple(alphabet), tuple(relations))
        expected = all(_multigraph_cycle_free(p.alphabet, edges) for edges in side_graphs(p))
        assert is_adian(p) == expected, p
    _report(9, "200 random presentations agree with the generic cycle detector")


def test_criterion_10_subword_divergence_signal(tmp_path, capsys):
    pres_path = tmp_path / "sub.pres"
    pres_path.write_text("X: a b\nR: aba = b\n", encoding="utf-8")
    json_path = tmp_path / "out.json"
    exit_code = main(
        ["graph", str(pres_path), "ab", "--max-rounds", "6", "--json", str(json_path)]
    )
    out = capsys.readouterr().out
    assert exit_code == 3
    assert out.startswith("budget-exceeded;")
    payload = json.loads(json_path.read_text())
    assert payload["status"] == "budget-exceeded"
    history = payload["vertex_history"]
    assert len(history) == payload["rounds"] + 1
    assert all(a < b for a, b in zip(history, history[1:]))
    _report(10, f"divergent input grew strictly: {history}")
