"""Expansion steps and the closure loop that builds Schützenberger automata.

A relation (r, s) has an expansion site at (v1, v2) when one side labels a
path v1 -> v2 but the other side does not.  An elementary expansion sews a
fresh chain labeled by the missing side between v1 and v2; a full round
sews every site visible at the start of the round and then folds.
Iterating rounds to a fixpoint yields the Schützenberger automaton of the
start word (any closed endpoint is the automaton); budgets bound the loop
because the fixpoint can be an infinite graph.  A site is the tuple
(v1, v2, (read, sew)) of the two vertices and the side read and the side
sewn; find_expansions reports the sites of a graph with the sides as
signed letters, close carries them as step codes.

A presentation is compiled once, on its first closure, and the result is
kept on it: the relation checks and the even-length back prefixes as
step codes over the sorted alphabet, letter i as step 2i and its inverse
as 2i + 1 (see word_graph).  A closure runs on one GraphBuilder from the
start word to the result: schutzenberger_automaton spells the word's
chain in it over those codes, and close folds it there and, at the end,
hands the builder's rows to the result graph without a copy, which
spends the builder.  A builder over fewer letters than the alphabet is
first linked again into a new builder over the alphabet, which is the
one that closes.  Every walk of the loop reads one list slot a step.

Round 0 scans every vertex for sites.  Later rounds scan the frontier:
the start vertices reached by walking back along every even-length
prefix of every relation side from the vertices the last round touched
(new chain vertices, chain endpoints, merge survivors, neighbours whose
edges a merge moved).  That finds every site.  A round gives new edges
only to touched vertices and keeps the ids of the vertices that survive,
so a read path of only old edges was one a round earlier, that round
sewed its site, and the other side is readable now.  Any other read path
holds a new edge, whose ends are consecutive touched vertices on it, and
one of them sits at an even offset from the path's start.  This is the
deduction stack of coset enumeration.

A round sews every site found at its start.  Folding is confluent, and a
chain sewn beside a path with the same label folds onto that path, so
the order of the sites changes neither the folded graph nor its merge
count, and a site that earlier sewing in the round made readable leaves
the graph as it would be without that site.
"""

from __future__ import annotations

import enum
from typing import Iterable

from .presentation import Presentation, Word, _MutableRecord, _Record, _set
from .word_graph import BirootedGraph, GraphBuilder, _edges, _linked, _step_codes


class Budget(_Record):
    """Bounds on the closure iteration; both limits must be positive.

    The class attributes are the defaults, which the CLI reads, so the
    fields live in the instance dict rather than in slots.
    """

    __match_args__ = ("max_rounds", "max_vertices")
    max_rounds = 64
    max_vertices = 100_000

    def __init__(self, max_rounds: int = max_rounds, max_vertices: int = max_vertices):
        if max_rounds < 1 or max_vertices < 1:
            raise ValueError("budget limits must be positive")
        _set(self, "max_rounds", max_rounds)
        _set(self, "max_vertices", max_vertices)


class Status(enum.Enum):
    CLOSED = "closed"
    BUDGET_EXCEEDED = "budget-exceeded"


class ClosureResult(_MutableRecord):
    """Outcome of a closure run with instrumentation.

    vertex_history holds the vertex count before round 1 and after every
    completed round, so its length is rounds + 1.  fold_events counts the
    vertex merges performed inside rounds, each after every site found at
    the round's start was sewn (not any determinization of the input
    graph); no order of the sites changes it.
    """

    __match_args__ = ("status", "graph", "rounds", "fold_events", "vertex_history")

    def __init__(
        self,
        status: Status,
        graph: BirootedGraph,
        rounds: int,
        fold_events: int,
        vertex_history: tuple[int, ...],
    ):
        self.status = status
        self.graph = graph
        self.rounds = rounds
        self.fold_events = fold_events
        self.vertex_history = vertex_history

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "rounds": self.rounds,
            "fold_events": self.fold_events,
            "vertex_history": list(self.vertex_history),
        }


Letters = tuple[tuple[str, int], ...]
Check = tuple[Letters, Letters]
Codes = tuple[int, ...]
Steps = tuple[tuple[str, ...], list[tuple[Codes, Codes]], frozenset[Codes]]
Site = tuple[int, int, tuple[Codes, Codes]]


def _checks(p: Presentation) -> list[Check]:
    """(read letters, sew letters) in site order: for each relation, the
    lhs read first, then the rhs read."""
    return [
        check
        for lhs, rhs in p.relations
        for check in ((lhs.letters, rhs.letters), (rhs.letters, lhs.letters))
    ]


def _compile(p: Presentation) -> Steps:
    """p's sorted alphabet, its relation checks, in _checks order, and the
    inverses of every even-length prefix of every relation side, the empty
    one included, as step codes over that alphabet; the module docstring
    says why the odd-length prefixes are not needed.  The compile is made
    on p's first closure and kept on p."""
    if p._steps is None:
        letters, codes = _step_codes(p.alphabet)
        checks = [
            (tuple([codes[x] for x, _ in read]), tuple([codes[x] for x, _ in sew]))
            for read, sew in _checks(p)
        ]
        inverses = [tuple([c + 1 for c in reversed(read)]) for read, _ in checks]
        backs = frozenset(inverse[k:] for inverse in inverses for k in range(len(inverse), -1, -2))
        _set(p, "_steps", (letters, checks, backs))
    return p._steps


def _sites_from(rows: dict, starts: Iterable[int], checks: list) -> list[Site]:
    """The (start, end, (read, sew)) sites at each start in turn, in check
    order, with read and sew as step codes.

    rows are the rows of the folded builder being scanned; the walks are
    written out here because this is the inner loop of every closure.
    """
    sites = []
    for start in starts:
        for check in checks:
            read, sew = check
            end = start
            for c in read:
                end = rows[end][c]
                if end is None:
                    break
            else:
                v = start
                for c in sew:
                    v = rows[v][c]
                    if v is None:
                        break
                if v != end:
                    sites.append((start, end, check))
    return sites


def find_expansions(g: BirootedGraph, p: Presentation) -> list[tuple[int, int, Check]]:
    """All expansion sites of g as (start, end, (read, sew)) tuples with
    the signed letters of each side, in canonical order.

    Determinism makes the read path unique per start vertex, so the scan is
    start-vertex driven; sites are ordered by start vertex BFS index, then
    by relation, the lhs read before the rhs read.  It reads g through
    g.walk, apart from the scan that close runs.
    """
    if not g.is_deterministic:
        raise ValueError("find_expansions() requires a deterministic graph")
    sites = []
    checks = _checks(p)
    for start in g.bfs_order():
        for check in checks:
            read, sew = check
            end = g.walk(start, read)
            if end is not None and g.walk(start, sew) != end:
                sites.append((start, end, check))
    return sites


def _frontier(b: GraphBuilder, backs: frozenset[Codes]) -> set[int]:
    """The starts of every read path of folded b with a touched vertex at an
    even offset.

    After a round every site of b starts there (see the module docstring).
    backs holds the step codes of the back prefixes, which close compiles
    once.
    """
    rows, starts = b._rows, set()
    for seed in b.touched:
        for back in backs:
            v = seed
            for c in back:
                v = rows[v][c]
                if v is None:
                    break
            else:
                starts.add(v)
    return starts


def _sew_round(b: GraphBuilder, sites: list[Site]) -> int:
    """Sew every given site and fold; returns the merges.

    Afterwards b.touched holds every vertex this round gave an edge, by
    sewing or by moving an edge in a merge.
    """
    b.touched.clear()
    for start, end, (_, sew) in sites:
        b.spell(start, sew, end)
    return b.fold()


def close(b: GraphBuilder, p: Presentation, budget: Budget = Budget()) -> ClosureResult:
    """Fold b, then iterate full rounds on it until no site remains or a
    budget limit trips.

    The merges of the first fold count in neither fold_events nor rounds.
    The vertex limit is checked after each round's site scan, so a round
    that leaves no site is closed even when it crosses the limit.  The
    result graph takes over the rows of the builder that closes, so b is
    spent; a caller that holds a graph passes GraphBuilder.from_graph(g).
    A b whose letters are a proper subset of p's alphabet is linked again
    into a new builder over the alphabet, which closes instead, and b is
    left as it was; a b with a letter outside the alphabet is refused with
    ValueError.  On budget exhaustion the returned graph is the last
    completed round's approximation; that is a status, not an error.
    """
    letters, checks, backs = _compile(p)
    if b.letters != letters:
        outside = [x for x in b.letters if x not in letters]
        if outside:
            raise ValueError(f"letter {outside[0]!r} is not in the alphabet")
        b = _linked(b.alpha, b.beta, _edges(b._rows, b._pending, b.letters), letters)
    b.fold()
    history = [b.vertex_count()]
    rounds = fold_events = 0
    sites = _sites_from(b._rows, list(b._rows), checks)
    while sites and rounds < budget.max_rounds:
        fold_events += _sew_round(b, sites)
        rounds += 1
        history.append(b.vertex_count())
        sites = _sites_from(b._rows, _frontier(b, backs), checks)
        if history[-1] > budget.max_vertices:
            break
    status = Status.BUDGET_EXCEEDED if sites else Status.CLOSED
    graph = BirootedGraph(b.alpha, b.beta, b)
    return ClosureResult(status, graph, rounds, fold_events, tuple(history))


def schutzenberger_automaton(
    w: Word, p: Presentation, budget: Budget = Budget()
) -> ClosureResult:
    """Close the folded linear graph of w over p.

    The linear graph of w already accepts exactly words equivalent to or
    above w, so the closed result is the Schützenberger automaton of w.
    """
    p.check_word(w)
    b = GraphBuilder.from_word(w, p.alphabet)
    return close(b, p, budget)
