"""Expansion steps and the closure loop that builds Schützenberger automata.

A relation (r, s) has an expansion site at (v1, v2) when one side labels a
path v1 -> v2 but the other side does not.  An elementary expansion sews a
fresh chain labeled by the missing side between v1 and v2; a full round
sews every site visible at the start of the round and then folds.
Iterating rounds to a fixpoint yields the Schützenberger automaton of the
start word (any closed endpoint is the automaton); budgets bound the loop
because the fixpoint can be an infinite graph.

A closure runs on one GraphBuilder from the start word to the result:
schutzenberger_automaton builds the word's chain in it, and close folds
it there and, at the end, hands the builder's table to the result graph
without a copy, which spends the builder.  Round 0 scans every vertex
for sites.  Later rounds scan the frontier: the start vertices reached by
walking back along every even-length prefix of every relation side from
the vertices the last round touched (new chain vertices, chain endpoints,
merge survivors, neighbours whose edges a merge moved).  That finds every
site.  A round gives new edges only to touched vertices and keeps the ids
of the vertices that survive, so a read path of only old edges was one a
round earlier, that round sewed its site, and the other side is readable
now.  Any other read path holds a new edge, whose ends are consecutive
touched vertices on it, and one of them sits at an even offset from the
path's start.  This is the deduction stack of coset enumeration.

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
from .word_graph import BirootedGraph, GraphBuilder


class Direction(enum.Enum):
    """Which relation side was read at the site; the other side gets sewn."""

    LHS_READ = "lhs-read"
    RHS_READ = "rhs-read"


class ExpansionSite(_Record):
    __slots__ = __match_args__ = ("relation_index", "direction", "start", "end")

    def __init__(self, relation_index: int, direction: Direction, start: int, end: int):
        _set(self, "relation_index", relation_index)
        _set(self, "direction", direction)
        _set(self, "start", start)
        _set(self, "end", end)


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
Check = tuple[int, Direction, Letters, Letters]
Site = tuple[int, int, Check]


def _checks(p: Presentation) -> list[Check]:
    """(relation index, direction, read letters, sew letters) in site order."""
    return [
        (rel_index, direction, read.letters, sew.letters)
        for rel_index, (lhs, rhs) in enumerate(p.relations)
        for direction, read, sew in (
            (Direction.LHS_READ, lhs, rhs),
            (Direction.RHS_READ, rhs, lhs),
        )
    ]


def _sites_from(adj: dict, starts: Iterable[int], checks: list[Check]) -> list[Site]:
    """The (start, end, check) sites at each start in turn, in check order.

    adj is the step-keyed adjacency of the deterministic graph being
    scanned; the walks are written out here because this is the inner loop
    of every closure.
    """
    sites = []
    for start in starts:
        for check in checks:
            _, _, read, sew = check
            end = start
            for step in read:
                targets = adj[end].get(step)
                if not targets:
                    break
                (end,) = targets
            else:
                v = start
                for step in sew:
                    targets = adj[v].get(step)
                    if not targets:
                        v = None
                        break
                    (v,) = targets
                if v != end:
                    sites.append((start, end, check))
    return sites


def find_expansions(g: BirootedGraph, p: Presentation) -> list[ExpansionSite]:
    """All expansion sites of g, in canonical order.

    Determinism makes the read path unique per start vertex, so the scan is
    start-vertex driven; sites are ordered by (start vertex BFS index,
    relation index, direction).
    """
    if not g.is_deterministic:
        raise ValueError("find_expansions() requires a deterministic graph")
    sites = _sites_from(g._adj, g.bfs_order(), _checks(p))
    return [ExpansionSite(rel, direction, start, end) for start, end, (rel, direction, _, _) in sites]


def _back_prefixes(p: Presentation) -> frozenset[Letters]:
    """Inverses of every even-length prefix of every relation side, the empty
    one included; the module docstring says why the odd-length ones are not
    needed."""
    inverses = [
        tuple([(x, -1) for x, _ in side.letters[::-1]]) for pair in p.relations for side in pair
    ]
    return frozenset(inverse[k:] for inverse in inverses for k in range(len(inverse), -1, -2))


def _frontier(b: GraphBuilder, backs: frozenset[Letters]) -> set[int]:
    """The starts of every read path of folded b with a touched vertex at an
    even offset.

    After a round every site of b starts there (see the module docstring).
    backs is _back_prefixes(p), which close computes once.
    """
    adj, starts = b._adj, set()
    for seed in b.touched:
        for back in backs:
            v = seed
            for step in back:
                targets = adj[v].get(step)
                if not targets:
                    break
                (v,) = targets
            else:
                starts.add(v)
    return starts


def _sew_round(b: GraphBuilder, sites: list[Site]) -> int:
    """Sew every given site and fold; returns the merges.

    Afterwards b.touched holds every vertex this round gave an edge, by
    sewing or by moving an edge in a merge.
    """
    b.touched.clear()
    for start, end, (_, _, _, sew) in sites:
        b.spell(start, sew, end)
    return b.fold()


def close(
    g: BirootedGraph | GraphBuilder, p: Presentation, budget: Budget = Budget()
) -> ClosureResult:
    """Iterate full rounds until no site remains or a budget limit trips.

    The vertex limit is checked after each round's site scan, so a round
    that leaves no site is closed even when it crosses the limit.  g is a
    deterministic graph, or a GraphBuilder, which close folds (merges that
    count in neither fold_events nor rounds) and then grows in place.  The
    result graph takes over the builder's table, so a handed builder is
    spent.  On budget exhaustion the returned graph is the last completed
    round's approximation; that is a status, not an error.
    """
    if isinstance(g, GraphBuilder):
        b = g
        b.fold()
    elif g.is_deterministic:
        b = GraphBuilder.from_graph(g)
    else:
        raise ValueError("close() requires a deterministic graph")
    checks, backs = _checks(p), _back_prefixes(p)
    history = [b.vertex_count()]
    rounds = fold_events = 0
    sites = _sites_from(b._adj, list(b._adj), checks)
    while sites and rounds < budget.max_rounds:
        fold_events += _sew_round(b, sites)
        rounds += 1
        history.append(b.vertex_count())
        sites = _sites_from(b._adj, _frontier(b, backs), checks)
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
    return close(GraphBuilder.from_word(w), p, budget)
