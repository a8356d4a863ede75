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
signed letters, close carries them as step codes, with the sewn side's
links (see below): (v1, v2, (read, sew, head, last)).

A closure's letters are the start letters plus the sewn side's letters
of every check whose read letters are all among them, repeated to a
fixpoint.  No other letter can label an edge, because a site needs its
read side readable, so the closure's builder, its compile and its result
graph use only those letters, and a row takes 2 slots per letter.  A
presentation is compiled once per set of closure letters, and the
compile is kept on it under those letters and under every set of start
letters that reaches them: the closure's sorted letters and a
deduction table of the relation checks that read only those letters,
as step codes over them, letter i as step 2i and its inverse as 2i + 1
(see word_graph).  A closure runs on one GraphBuilder from the start
word to the result: schutzenberger_automaton spells the word's chain in
it over the closure's letters, and close folds it there and, at the
end, hands the builder's rows to the result graph without a copy, which
spends the builder.  A builder that lacks some of the closure's letters
is first linked again into a new builder over them, which is the one
that closes.  Every walk of the loop reads one list slot a step.

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
end), the edge that close places at position k of the chain settles the
entry of check i ^ 1 (the same relation read the other way, so its read
side is this sew) for position k.  While that edge's log entry is live
its ends keep their ids and the folded graph is deterministic, so the
walk back from the edge by sew[:k] reaches what start became, and the
walk on by sew[k + 1:] reaches what end became; read still labels a
path between those two, because sewing and folding never destroy a
path, so the entry's walk can find no site.  The compile leaves it out
once and for all: position k of check i's sewn side is a link (c,
walks), c the step sewn there and walks every entry of c's table list
but the settled one, and close logs the chain edge with those walks.
An edge that a fold moved or placed, and every edge a builder logged as
it was made, settles nothing: it is logged with None and walked against
every entry of its letter.

A round sews every site found at its start.  Folding is confluent, and a
chain sewn beside a path with the same label folds onto that path, so
the order of the sites changes neither the folded graph nor its merge
count, and a site that earlier sewing in the round made readable leaves
the graph as it would be without that site.

close's loop sews each round's chains straight into the builder's rows
and folds only when an edge pends.  A sewn side of L steps is a chain of
L edges through L - 1 new vertices, one for each head link, and a
one-step side is that chain with no new vertex, so one loop sews every
site.  Each head link appends a row, a copy of one blank row, and places
its edge from the chain's current vertex to that row, or pends it when
the current vertex's slot is taken.  A new row holds only its step back,
and a sewn side is positive, so only the first head step, at the site's
start, can find its slot taken.  The last link places its edge to the
site's end by GraphBuilder.link's rule: into both rows when both slots
are free, nowhere when it is already there, and to the pending list
otherwise.  Every chain edge is logged with its link's walks.
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
Link = tuple[int, list]  # (c, walks): the step sewn and the Deductions its edge walks
# (read, sew, head, last): a check and the links of its sewn side
Sewable = tuple[Codes, Codes, tuple[Link, ...], Link]
Deduction = tuple[int, Codes, Codes, Codes, Sewable]  # (i, back, rest, sew, check)
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
    closure's letters and under the start letters, so start letters that
    reach the same closure letters share one compile; a start letter
    outside the alphabet is refused with ValueError.

    Relation sides are positive, so the table is indexed by positive step
    code: table[c] lists, for each such check, i its index in _checks
    order, and each position k at which its read side holds c, the entry
    (i, back, rest, sew, check), where back walks back over the read
    steps before k, rest reads those after it and sew is the check's sewn
    side.  A check is (read, sew, head, last), the links of its sewn side:
    head a tuple of the links at positions 0 to L - 2, empty when the side
    is one step, and last the link at position L - 1.
    The link (c, walks) at position k holds the step code there and
    table[c] without the entry of check i ^ 1 for position k, by
    identity, the one that the chain edge sewn there settles (see the
    module docstring).  Check i ^ 1 reads only the closure's letters
    whenever check i does, since its read side is check i's sewn side.
    """
    steps = p._steps.get(start)
    if steps is not None:
        return steps
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
    steps = p._steps.get(letters)
    if steps is None:
        table = [[] for _ in range(2 * len(letters))]
        entries, links = {}, {}  # i: check i's entries and its links, by position
        for i, (read, sew) in enumerate(pairs):
            if all(x in codes for x, _ in read):
                read = tuple([codes[x] for x, _ in read])
                sew = tuple([codes[x] for x, _ in sew])
                sewn = links[i] = [(c, []) for c in sew]
                check = read, sew, tuple(sewn[:-1]), sewn[-1]
                entries[i] = []
                for k, c in enumerate(read):
                    back = tuple([d ^ 1 for d in reversed(read[:k])])
                    entry = i, back, read[k + 1 :], sew, check
                    entries[i].append(entry)
                    table[c].append(entry)
        # The one mutable step: check i's walks leave out entries of check
        # i ^ 1, which hold check i ^ 1, whose walks leave out entries of i.
        for i, sewn in links.items():
            for (c, walks), settled in zip(sewn, entries[i ^ 1]):
                walks.extend([entry for entry in table[c] if entry is not settled])
        steps = p._steps[letters] = (letters, table)
    p._steps[start] = steps
    return steps


def _deduced(rows: list, log: list, table: list[list[Deduction]]) -> list[Site]:
    """The sites of folded rows whose read path holds a live edge of log,
    each (start, check) once.  These are all the sites when log holds
    every edge the builder placed, as after close's first fold, or every
    edge the last round placed (see the module docstring).

    A log entry (s, c, t, walks) is live while s is a vertex whose slot
    still names t; a merge that moved the edge logged it again.  A sewn
    chain edge carries its link's walks, which leave out the deduction it
    settles, whose walk finds no site.  Any other edge is logged with
    None: it is turned round to read forward when logged against its
    letter, and walks every entry of table[c].  Only sites are keyed for
    the once: a walk that finds none finds none again.
    """
    sites, seen = [], set()
    for s, c, t, walks in log:
        row = rows[s]
        if row is None or row[c] != t:
            continue
        if walks is None:
            if c & 1:
                s, c, t = t, c ^ 1, s
            walks = table[c]
        for i, back, rest, sew, check in walks:
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
                    for d in sew:
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
    edges the round before it logged.  A round clears the log, sews every
    site's chain itself through one loop, whatever its length, and folds
    when an edge pends (see the module docstring).
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
    blank = [None] * (2 * len(letters))
    sites = _deduced(rows, log, table)
    while sites and rounds < max_rounds:
        log.clear()
        for s, t, (_, _, head, (c, walks)) in sites:
            row = rows[s]
            for d, head_walks in head:  # every vertex the head adds is new
                v = len(rows)
                new = blank.copy()
                rows.append(new)
                if row[d] is None:
                    row[d] = v
                    new[d ^ 1] = s
                    log.append((s, d, v, head_walks))
                else:
                    pending.append((s, d, v))
                s, row = v, new
            slot = row[c]
            if slot is None and rows[t][c ^ 1] is None:
                row[c] = t
                rows[t][c ^ 1] = s
                log.append((s, c, t, walks))
            elif slot != t:
                pending.append((s, c, t))
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
