"""Shared builders and fixture presentations for the test suite."""

import copy
import itertools
from collections import deque

from hypothesis import strategies as st

from stephen_kit import BirootedGraph, Budget, ClosureResult, Presentation, Status, Word
from stephen_kit.engine import find_expansions
from stephen_kit.word_graph import GraphBuilder, _linked


def pos(text: str) -> Word:
    """Positive word from single-character letters."""
    return Word(tuple((ch, 1) for ch in text))


def w(text: str) -> Word:
    """Signed word from single-character letters; '^' inverts, spaces ignored."""
    letters = []
    for ch in text:
        if ch == "^":
            letters[-1] = (letters[-1][0], -1)
        elif ch == " ":
            continue
        else:
            letters.append((ch, 1))
    return Word(tuple(letters))


COMM = Presentation(("a", "b"), ((pos("ab"), pos("ba")),))
CASE1 = Presentation(("a", "b", "c"), ((pos("aba"), pos("c")),))
CASE2 = Presentation(("a", "b", "c"), ((pos("aab"), pos("bcc")),))
FACT1 = Presentation(("a", "b", "c", "d"), ((pos("ab"), pos("cd")),))
SUBWORD = Presentation(("a", "b"), ((pos("aba"), pos("b")),))
FREE2 = Presentation(("a", "b"), ())


def graph(alpha: int, beta: int, edges) -> BirootedGraph:
    """The graph of the (s, x, t) triples with roots alpha and beta, under
    their own vertex ids and over the sorted letters they use; a repeated
    triple is one edge.

    A negative id, which would index the rows from their end, and a vertex
    that alpha does not reach are refused with ValueError.
    """
    edges = list(edges)
    low = min({alpha, beta}.union(*[(s, t) for s, _, t in edges]))
    if low < 0:
        raise ValueError(f"negative vertex id {low}")
    g = BirootedGraph(_linked(alpha, beta, edges))
    if len(g.bfs_order()) != len(g.vertices):
        raise ValueError("graph is not connected from alpha")
    return g


def linear_graph(word: Word) -> BirootedGraph:
    """The chain-shaped graph spelling word from alpha to beta, unfolded.

    A negative letter contributes the positive orientation reversed.  The
    empty word yields the single-vertex graph with alpha = beta.
    """
    return BirootedGraph(GraphBuilder.from_word(word))


def new_vertex(b: GraphBuilder) -> int:
    """Append an empty row to b and return its id."""
    v = len(b._rows)
    b._rows.append([None] * (2 * len(b.letters)))
    return v


def vertex_count(b: GraphBuilder) -> int:
    """The number of vertices b holds: its rows less those folds removed."""
    return len(b._rows) - b._removed


def spell(b: GraphBuilder, start: int, letters, end: int | None = None) -> int:
    """Link a chain labeled by signed letters from start through fresh
    vertices; returns the chain's last vertex.

    The last step lands on end if one is given, else on a fresh vertex
    too.  Each fresh vertex is appended before its edge is linked, so this
    is the reference for the layout GraphBuilder.from_word makes.
    """
    steps = [b.codes[x] + (sign < 0) for x, sign in letters]
    last = len(steps) - (end is not None)
    for i, step in enumerate(steps):
        t = end if i == last else new_vertex(b)
        b.link(start, step, t)
        start = t
    return start


def reversed_ids(g: BirootedGraph) -> BirootedGraph:
    """The same graph with vertex v renamed max - v.

    Folding it visits clashes in another order, so comparing the two folds
    checks confluence over two merge sequences.
    """
    top = max(g.vertices)
    edges = [(top - s, x, top - t) for s, x, t in g.edges]
    return graph(top - g.alpha, top - g.beta, edges)


@st.composite
def multigraphs(draw):
    """Connected graphs on up to six vertices, self-loops and parallel edges allowed."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edges = []
    for v in range(1, n):
        u, x = draw(st.integers(0, v - 1)), draw(st.sampled_from("ab"))
        edges.append((u, x, v) if draw(st.booleans()) else (v, x, u))
    edges += draw(st.lists(st.tuples(vertex, st.sampled_from("ab"), vertex), max_size=8))
    return graph(0, draw(vertex), edges)


def random_positive_word(rng, alphabet: str, max_len: int, min_len: int = 1) -> Word:
    n = rng.randint(min_len, max_len)
    return Word(tuple((rng.choice(alphabet), 1) for _ in range(n)))


def random_signed_word(rng, alphabet: str, max_len: int, min_len: int = 0) -> Word:
    n = rng.randint(min_len, max_len)
    return Word(tuple((rng.choice(alphabet), rng.choice((1, -1))) for _ in range(n)))


def all_signed_words(alphabet: str, max_len: int):
    signed = [(x, s) for x in alphabet for s in (1, -1)]
    for n in range(max_len + 1):
        for combo in itertools.product(signed, repeat=n):
            yield Word(combo)


def all_positive_words(alphabet: str, max_len: int, min_len: int = 1):
    for n in range(min_len, max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield Word(tuple((x, 1) for x in combo))


def naive_close(
    g: BirootedGraph, p: Presentation, budget: Budget, each_round: list | None = None
) -> ClosureResult:
    """Reference closure that rebuilds, rescans and refreezes every round.

    Each round sews the missing side of every site of the frozen graph,
    folds the whole graph and freezes it again.  each_round, when given,
    gets after round k, at index k (the start graph at index 0), the
    result that a round limit of k would stop with: the graph, vertex
    history and merges so far, closed when no site is left.
    """
    history = [len(g.vertices)]
    rounds = fold_events = 0
    while True:
        sites = find_expansions(g, p)
        status = Status.BUDGET_EXCEEDED if sites else Status.CLOSED
        if each_round is not None:
            each_round.append(ClosureResult(status, g, rounds, fold_events, tuple(history)))
        # The vertex limit applies from the end of round 1 on.
        over = rounds and len(g.vertices) > budget.max_vertices
        if not sites or rounds >= budget.max_rounds or over:
            break
        b = _linked(g.alpha, g.beta, g.edges, p.alphabet)
        for start, end, (_, sew) in sites:
            spell(b, start, sew, end)
        fold_events += b.fold()
        g = b.freeze()
        rounds += 1
        history.append(len(g.vertices))
    return ClosureResult(status, g, rounds, fold_events, tuple(history))


def assert_graph_consistent(g: BirootedGraph, letters) -> None:
    """Through g's public walk: both roots are vertices, every step from
    a vertex along one of letters or its inverse lands on a vertex and
    steps back, and the positive steps are g's edges.  letters must hold
    every letter of g."""
    live = g.vertices
    assert g.alpha in live and g.beta in live
    walked = set()
    for v in live:
        for x in letters:
            for sign in (1, -1):
                t = g.walk(v, ((x, sign),))
                if t is not None:
                    assert t in live
                    assert g.walk(t, ((x, -sign),)) == v
                    if sign == 1:
                        walked.add((v, x, t))
    assert walked == g.edges


def assert_builder_consistent(b: GraphBuilder) -> None:
    """Folded b is a consistent graph (see assert_graph_consistent), and
    every log entry whose ends are both vertices names an edge of the rows.

    A shallow copy of b is handed to a graph, which so reads b's own rows
    through its public walk without spending b; the graph is dropped
    before b changes again.
    """
    view = BirootedGraph(copy.copy(b))
    assert_graph_consistent(view, b.letters)
    for s, c, t, _ in b.log:
        if s in view.vertices and t in view.vertices:
            x, sign = b.letters[c >> 1], -1 if c & 1 else 1
            assert view.walk(s, ((x, sign),)) == t
    assert b.freeze().edges == view.edges


def readable_ends(g: BirootedGraph, start: int, steps) -> set[int]:
    """All endpoints of paths labeled by the signed steps from start, by a
    subset walk over g's edges.

    Exact on graphs that are not deterministic, such as a sewn graph
    before its fold.
    """
    ends = {start}
    for x, sign in steps:
        if sign == 1:
            ends = {t for s, y, t in g.edges if y == x and s in ends}
        else:
            ends = {s for s, y, t in g.edges if y == x and t in ends}
    return ends


class StaleSiteError(RuntimeError):
    """The site's missing side became readable; sewing it would be redundant."""


def elementary_expansion(g: BirootedGraph, site: tuple) -> BirootedGraph:
    """Sew the site's missing side between start and end; no folding.

    The site is revalidated first: if the read side no longer labels a
    start -> end path the site is invalid (ValueError); if the missing side
    has become readable the site is stale (StaleSiteError) and the input
    graph is unchanged.
    """
    start, end, (read, sew) = site
    if end not in readable_ends(g, start, read):
        raise ValueError("invalid site: read side does not label a start -> end path")
    if end in readable_ends(g, start, sew):
        raise StaleSiteError("opposite side already readable between the site's roots")
    b = _linked(g.alpha, g.beta, g.edges, [x for x, _ in sew])
    spell(b, start, sew, end)
    return b.freeze()


def full_p_expansion(g: BirootedGraph, p: Presentation, sites=None) -> BirootedGraph:
    """One full round: sew every site found at round start, then fold.

    Sites that only become available mid-round are left for the next round.
    sites, when given, are sewn in their order in place of those that
    find_expansions finds.
    """
    b = _linked(g.alpha, g.beta, g.edges, p.alphabet)
    for start, end, (_, sew) in find_expansions(g, p) if sites is None else sites:
        spell(b, start, sew, end)
    b.fold()
    return b.freeze()


def isomorphic(g1: BirootedGraph, g2: BirootedGraph) -> bool:
    """Root-respecting automaton isomorphism, by parallel traversal.

    Deterministic connected graphs admit at most one label-preserving map
    extending alpha -> alpha; this checks that it exists, is total, and
    sends beta to beta.  It shares no code with canonical_key, so tests
    can check one against the other.
    """
    if not (g1.is_deterministic and g2.is_deterministic):
        raise ValueError("isomorphic() requires deterministic graphs")
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    letters = sorted({x for _, x, _ in g1.edges | g2.edges})
    steps = [((x, sign),) for x in letters for sign in (1, -1)]
    pairing = {g1.alpha: g2.alpha}
    queue = deque([(g1.alpha, g2.alpha)])
    while queue:
        v1, v2 = queue.popleft()
        for step in steps:
            t1, t2 = g1.walk(v1, step), g2.walk(v2, step)
            if (t1 is None) != (t2 is None):
                return False
            if t1 is None:
                continue
            if t1 in pairing:
                if pairing[t1] != t2:
                    return False
            else:
                pairing[t1] = t2
                queue.append((t1, t2))
    return pairing[g1.beta] == g2.beta
