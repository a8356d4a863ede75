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
signed letters, close carries them as step codes, with a third member
settles (see below): (v1, v2, (read, sew, settles)).

A closure's letters are the start letters plus the sewn side's letters
of every check whose read letters are all among them, repeated to a
fixpoint.  No other letter can label an edge, because a site needs its
read side readable, so the closure's builder, its compile and its result
graph use only those letters, and a row takes 2 slots per letter.  A
presentation is compiled once per set of start letters, and the compile
is kept on it: the closure's sorted letters and a deduction table of
the relation checks that read only those letters, as step codes over
them, letter i as step 2i and its inverse as 2i + 1 (see word_graph).  A
closure runs on one GraphBuilder from the start word to the result:
schutzenberger_automaton spells the word's chain in it over the
closure's letters, and close folds it there and, at the end, hands the
builder's rows to the result graph without a copy, which spends the
builder.  A builder that lacks some of the closure's letters is first
linked again into a new builder over them, which is the one that
closes.  Every walk of the loop reads one list slot a step.

Every site scan works from the builder's log of placed edges, as coset
enumeration works from its deduction stack: for each live logged edge,
and each check and position k of its read side that the edge's letter
fills, walk back from the edge's source by the first k read steps to a
start, and walk on from the edge's target by the rest of the read side.
Round 0 reads the log the builder kept since it was made.  Every way of
making a builder logs each edge it places, and the first fold logs each
edge a merge moves, so every edge of the folded graph has a live entry,
and every read path holds one, because relation sides are non-empty.
Each later round reads the log of the edges the last round placed, and
that finds every site too.  Sewing and folding never destroy a path,
and an edge that no live log entry names was an edge a round earlier
under the same ids, so a read path made only of such old edges was
readable a round earlier, that round sewed its site, and the other side
is readable now.  Any other read path holds a logged edge, and walking
back from that edge's source by the prefix before its position reaches
the path's start.

An edge of a sewn chain settles one deduction of its own, and the scan
skips that one for it.  When check i = (read, sew) is sewn at (start,
end), the edge that close places at position k of the chain is logged
with the entry of check i ^ 1 (the same relation read the other way, so
its read side is this sew) for position k.  While that log entry is live
its ends keep their ids and the folded graph is deterministic, so the
walk back from the edge by sew[:k] reaches what start became, and the
walk on by sew[k + 1:] reaches what end became; read still labels a
path between those two, because sewing and folding never destroy a
path, so the entry's walk can find no site.  An edge that a fold moved
or placed, and every edge a builder logged as it was made, settles
nothing and is walked against every entry of its letter.

A round sews every site found at its start.  Folding is confluent, and a
chain sewn beside a path with the same label folds onto that path, so
the order of the sites changes neither the folded graph nor its merge
count, and a site that earlier sewing in the round made readable leaves
the graph as it would be without that site.

close's loop sews each round's chains straight into the builder's rows
and folds only when an edge pends.  It appends a row for each inner
vertex of a chain, in order, and places each edge by GraphBuilder.link's
rule, but logs a chain edge with the deduction it settles.  Every vertex
inside a chain is new and a sewn side is positive, so its slot for the
next step is free and its row is made with the step back already linked;
only the chain's first step, at the site's start, and its last, at the
site's end, can find a slot taken.
"""

from __future__ import annotations

import enum

from . import _MAX_ROUNDS, _MAX_VERTICES
from .presentation import Presentation, Word, _MutableRecord, _Record, _set
from .word_graph import BirootedGraph, GraphBuilder, _edges, _linked, _step_codes


class Budget(_Record):
    """Bounds on the closure iteration; both limits must be positive ints.

    A limit that is not an int, a bool included, raises TypeError: a
    float limit such as NaN would compare false with every round count.

    The class attributes are the defaults (the package's _MAX_ROUNDS and
    _MAX_VERTICES, which the CLI's parser reads without loading this
    module), so the fields live in the instance dict rather than in
    slots.  Row memory is V x 2 x (the number of the closure's letters)
    slots, V the vertex count, so max_vertices bounds it only with the
    letters.
    """

    __match_args__ = ("max_rounds", "max_vertices")
    max_rounds = _MAX_ROUNDS
    max_vertices = _MAX_VERTICES

    def __init__(self, max_rounds: int = max_rounds, max_vertices: int = max_vertices):
        for limit in (max_rounds, max_vertices):
            if not isinstance(limit, int) or isinstance(limit, bool):
                raise TypeError(f"budget limits must be ints, not {limit!r}")
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
Sewable = tuple[Codes, Codes, list]  # (read, sew, settles), settles a list of Deductions
Deduction = tuple[int, Codes, Codes, Sewable]
Steps = tuple[tuple[str, ...], list[list[Deduction]]]
Site = tuple[int, int, Sewable]


def _checks(p: Presentation) -> list[Check]:
    """(read letters, sew letters) in site order: for each relation, the
    lhs read first, then the rhs read."""
    return [
        check
        for lhs, rhs in p.relations
        for check in ((lhs.letters, rhs.letters), (rhs.letters, lhs.letters))
    ]


def _compile(p: Presentation, start: tuple[str, ...]) -> Steps:
    """The sorted letters of a closure over p from the sorted start letters,
    and the deduction table of the relation checks that read only those
    letters, as step codes over them.  The compile is kept on p under the
    start letters and under the closure's letters; a start letter outside
    the alphabet is refused with ValueError.

    Relation sides are positive, so the table is indexed by positive step
    code: table[c] lists, for each such check, i its index in _checks
    order, and each position k at which its read side holds c, the entry
    (i, back, rest, check), where back walks back over the read steps
    before k and rest reads those after it.  A check is (read, sew,
    settles): settles[k] is the entry of check i ^ 1 for position k, the
    one that the chain edge sewn at position k settles (see the module
    docstring).  Check i ^ 1 reads only the closure's letters whenever
    check i does, since its read side is check i's sewn side.
    """
    steps = p._steps.get(start)
    if steps is None:
        outside = [x for x in start if x not in p.alphabet]
        if outside:
            raise ValueError(f"letter {outside[0]!r} is not in the alphabet")
        pairs = _checks(p)
        sides = [({x for x, _ in read}, {x for x, _ in sew}) for read, sew in pairs]
        used, grown = set(start), True
        while grown:
            grown = False
            for read, sew in sides:
                if read <= used and not sew <= used:
                    used |= sew
                    grown = True
        letters, codes = _step_codes(used)
        table = [[] for _ in range(2 * len(letters))]
        entries = {}  # i: check i and its entries, by read position
        for i, (read, sew) in enumerate(pairs):
            if all(x in codes for x, _ in read):
                read = tuple([codes[x] for x, _ in read])
                check = read, tuple([codes[x] for x, _ in sew]), []
                entries[i] = check, []
                for k, c in enumerate(read):
                    back = tuple([d ^ 1 for d in reversed(read[:k])])
                    entry = i, back, read[k + 1 :], check
                    entries[i][1].append(entry)
                    table[c].append(entry)
        # The one mutable step: check i's settles are entries of check
        # i ^ 1, which hold check i ^ 1, whose settles are entries of check i.
        for i, (check, _) in entries.items():
            check[2].extend(entries[i ^ 1][1])
        steps = p._steps[start] = p._steps[letters] = (letters, table)
    return steps


def _deduced(rows: list, log: list, table: list[list[Deduction]]) -> list[Site]:
    """The sites of folded rows whose read path holds a live edge of log,
    each (start, check) once.  These are all the sites when log holds
    every edge the builder placed, as after close's first fold, or every
    edge the last round placed (see the module docstring).

    An entry is live while its source is a vertex whose slot still names
    its target; a merge that moved the edge logged it again.  An edge
    logged against its letter is turned round to read forward.  A live
    entry skips the deduction it settles, whose walk finds no site.  Only
    sites are keyed for the once: a walk that finds none finds none again.
    """
    sites, seen = [], set()
    for s, c, t, settled in log:
        row = rows[s]
        if row is None or row[c] != t:
            continue
        if c & 1:
            s, c, t = t, c ^ 1, s
        for entry in table[c]:
            if entry is settled:
                continue
            i, back, rest, check = entry
            start = s
            for d in back:
                start = rows[start][d]
                if start is None:
                    break
            else:
                end = t
                for d in rest:
                    end = rows[end][d]
                    if end is None:
                        break
                else:
                    v = start
                    for d in check[1]:
                        v = rows[v][d]
                        if v is None:
                            break
                    if v != end and (start, i) not in seen:
                        seen.add((start, i))
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


def close(b: GraphBuilder, p: Presentation, budget: Budget = Budget()) -> ClosureResult:
    """Fold b, then iterate full rounds on it until no site remains or a
    budget limit trips.

    The merges of the first fold count in neither fold_events nor rounds.
    Every site scan is a call of _deduced that reads b's log: round 0 reads
    every edge b placed since it was made, and each later scan only the
    edges the round before it logged.  A round clears the log and sews its
    sites' chains itself, checking slots only at each chain's two ends,
    and folds when an edge pends (see the module docstring).
    The vertex limit is checked after each round's site scan, so a round
    that leaves no site is closed even when it crosses the limit.  The
    result graph takes over the rows of the builder that closes, so b is
    spent; a caller that holds a graph passes GraphBuilder.from_graph(g).
    A b that lacks some of the closure's letters is linked again into a
    new builder over them, which closes instead, and b is left as it was;
    a b with a letter outside the alphabet is refused with ValueError.
    On budget exhaustion the returned graph is the last completed round's
    approximation; that is a status, not an error.
    """
    letters, table = _compile(p, b.letters)
    if b.letters != letters:
        b = _linked(b.alpha, b.beta, _edges(b._rows, b._pending, b.letters), letters)
    b.fold()
    history = [b.vertex_count()]
    rounds = fold_events = 0
    max_rounds, max_vertices = budget.max_rounds, budget.max_vertices
    rows, log, pending = b._rows, b.log, b._pending  # the builder never replaces them
    width = 2 * len(letters)
    sites = _deduced(rows, log, table)
    while sites and rounds < max_rounds:
        log.clear()
        for s, t, (_, sew, settles) in sites:
            c, last = sew[0], len(sew) - 1
            if not last:
                slot = rows[s][c]
                if slot != t:
                    if slot is None and rows[t][c ^ 1] is None:
                        rows[s][c] = t
                        rows[t][c ^ 1] = s
                        log.append((s, c, t, settles[0]))
                    else:
                        pending.append((s, c, t))
                continue
            # The chain's inner vertices are new: only its end steps can clash.
            v = len(rows)
            row = [None] * width
            rows.append(row)
            if rows[s][c] is None:
                rows[s][c] = v
                row[c ^ 1] = s
                log.append((s, c, v, settles[0]))
            else:
                pending.append((s, c, v))
            for k in range(1, last):
                s, c = v, sew[k]
                v = len(rows)
                row[c] = v
                row = [None] * width
                row[c ^ 1] = s
                rows.append(row)
                log.append((s, c, v, settles[k]))
            c = sew[last]
            if rows[t][c ^ 1] is None:
                row[c] = t
                rows[t][c ^ 1] = v
                log.append((v, c, t, settles[last]))
            else:
                pending.append((v, c, t))
        if pending:
            fold_events += b.fold()
        rounds += 1
        history.append(len(rows) - b._removed)
        sites = _deduced(rows, log, table)
        if history[-1] > max_vertices:
            break
    status = Status.BUDGET_EXCEEDED if sites else Status.CLOSED
    graph = BirootedGraph(b)
    return ClosureResult(status, graph, rounds, fold_events, tuple(history))


def schutzenberger_automaton(
    w: Word, p: Presentation, budget: Budget = Budget()
) -> ClosureResult:
    """Close the folded linear graph of w over p.

    The linear graph of w already accepts exactly words equivalent to or
    above w, so the closed result is the Schützenberger automaton of w.
    """
    letters = _compile(p, tuple(sorted({x for x, _ in w.letters})))[0]
    return close(GraphBuilder.from_word(w, letters), p, budget)
