"""Birooted inverse word graphs.

A graph lists each edge once, in its positively labeled orientation
(p, x, q); traversing it backwards acts as the implicit edge labeled x^-1
from q to p.  Both graph classes store the graph as rows of integer step
codes.  Letter i of the graph's letters, in sorted order, is step 2i and
its inverse is step 2i + 1, so the inverse of step c is c ^ 1 and code
order is the canonical order of steps: by letter, positive first.  The
rows are a list indexed by vertex id, with None for an id that names no
vertex (one removed by a merge, kept as a gap when a graph's edges are
linked again).  A vertex's row is a list of 2|X| targets, X the graph's
letters, with None where it has no edge: an edge p -x-> q sets
rows[p][2i] = q and rows[q][2i + 1] = p.  A walk along a signed word
encodes each letter once and reads one slot per step.  A frozen graph
decodes codes back to letters, numbers its vertices in the canonical
breadth-first order and lists its edges only when first asked.  Folding
(determination) merges the endpoints of equally labeled edges leaving
one vertex until the graph is deterministic; the result is a quotient
of the input and, because folding is confluent, it is independent of
the merge order up to root-respecting isomorphism.

A row has room for one target per step.  An edge whose slot, at either
end, already holds another target is kept aside in a pending list; a
graph with pending edges is not deterministic, and its edges are the
rows' edges and the pending ones.  GraphBuilder.fold places the pending
edges by coincidence processing, as in Todd-Coxeter coset enumeration:
an edge whose slot is taken identifies its target with the slot's, and
merging two vertices moves the removed vertex's row onto the survivor,
where each slot that is taken on both identifies two more vertices.

Graphs are value-like: the mutable machinery lives in GraphBuilder, which
fold and the expansion engine share; a constructed BirootedGraph is never
mutated and is safe to share between readers.  GraphBuilder does the two
things Stephen's procedure does to a graph, linking edges and folding,
on its rows and pending list, its only record of the graph.

A graph is made one way, from a GraphBuilder: BirootedGraph(b) adopts
b's roots, rows, letters and pending list, which spends b, with no rows
left that a later link could change.  close and fold(g) hand over their
own builder, folded or not, and GraphBuilder.freeze() of a builder that
goes on growing hands over a new one, its edge triples linked under
their own vertex ids over the sorted letters they use.  The graph is
deterministic when nothing is pending.  No graph is checked, because
every builder is connected by construction: from_word links a connected
chain, from_graph links a graph's edges, close sews each chain between
existing vertices, link adds no vertex, and a merge keeps the graph
connected.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property

from .presentation import Letter, Word

Edge = tuple[int, str, int]
Step = tuple[str, int]
Rows = list[list | None]


def _step_codes(letters: Iterable[Letter]) -> tuple[tuple[Letter, ...], dict[Letter, int]]:
    """The letters in sorted order and the step code of each: letter i is 2i."""
    letters = tuple(sorted(letters))
    return letters, {x: 2 * i for i, x in enumerate(letters)}


def _edges(rows: Rows, pending: Iterable, letters: Sequence[Letter]) -> Iterator[Edge]:
    """The (s, x, t) triples of rows and pending edges, positive orientation only."""
    for s, row in enumerate(rows):
        if row is None:
            continue
        for c in range(0, len(row), 2):
            t = row[c]
            if t is not None:
                yield s, letters[c >> 1], t
    for s, c, t in pending:
        if c & 1:
            s, c, t = t, c ^ 1, s
        yield s, letters[c >> 1], t


def _bfs(rows: Rows, pending: Iterable, alpha: int) -> tuple[int, ...]:
    """Vertices in canonical breadth-first order from alpha.

    Neighbors are explored in step code order, which is by letter,
    positive orientation first, and each step's targets in increasing
    order; this fixes the canonical numbering.  The order list doubles as
    the queue.
    """
    several = {}
    for s, c, t in pending:
        several.setdefault((s, c), {rows[s][c]}).add(t)
        several.setdefault((t, c ^ 1), {rows[t][c ^ 1]}).add(s)
    order, seen = [alpha], {alpha}
    for v in order:
        for c, t in enumerate(rows[v]):
            for t in sorted(several[v, c] - {None}) if (v, c) in several else (t,):
                if t is not None and t not in seen:
                    seen.add(t)
                    order.append(t)
    return tuple(order)


class BirootedGraph:
    """A finite birooted inverse word graph with roots alpha and beta.

    It is made from a GraphBuilder, whose construction keeps every vertex
    reachable from alpha through the underlying undirected edge set (see
    the module docstring).
    """

    def __init__(self, b: GraphBuilder):
        """Adopt b's roots, letters, rows and pending list, folded or not,
        which spends b.  Vertices, edges and the canonical order are listed
        when first read.
        """
        self.alpha, self.beta = b.alpha, b.beta
        self._letters, self._codes = b.letters, b.codes
        self._rows: Rows = b._rows
        self._pending: list[tuple[int, int, int]] = b._pending
        b._rows = b._pending = b.log = None
        self.is_deterministic = not self._pending

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset([v for v, row in enumerate(self._rows) if row is not None])

    @cached_property
    def _order(self) -> tuple[int, ...]:
        return _bfs(self._rows, self._pending, self.alpha)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(_edges(self._rows, self._pending, self._letters))

    def bfs_order(self) -> tuple[int, ...]:
        """Vertices in canonical breadth-first order from alpha."""
        return self._order

    def walk(self, start: int, w: Iterable[Step]) -> int | None:
        """Endpoint of the unique path labeled by w from start, or None.

        Only meaningful on deterministic graphs, where paths are unique.
        A letter the graph has no edge for labels no path.  A start that
        is not a vertex raises ValueError.
        """
        if not self.is_deterministic:
            raise ValueError("walk() requires a deterministic graph")
        rows = self._rows
        if not (isinstance(start, int) and 0 <= start < len(rows)) or rows[start] is None:
            raise ValueError(f"vertex {start!r} is not in the graph")
        codes, v = self._codes, start
        for x, sign in w:
            c = codes.get(x)
            if c is None:
                return None
            v = rows[v][c + (sign < 0)]
            if v is None:
                return None
        return v

    def accepts(self, w: Word) -> bool:
        """True iff w labels a path from alpha to beta."""
        return self.walk(self.alpha, w) == self.beta

    def _renumbered(self) -> tuple[dict[int, int], list[Edge]]:
        """Canonical index of each vertex and the renumbered edges, sorted."""
        index = {v: i for i, v in enumerate(self._order)}
        return index, sorted((index[s], x, index[t]) for s, x, t in self.edges)

    def canonical_key(self):
        """Hashable form invariant under root-respecting isomorphism."""
        index, edges = self._renumbered()
        return (len(index), index[self.beta], tuple(edges))

    def to_json(self) -> dict:
        """Canonically renumbered export: alpha is always vertex 0."""
        index, edges = self._renumbered()
        return {
            "alpha": 0,
            "beta": index[self.beta],
            "vertices": list(range(len(index))),
            "edges": [list(edge) for edge in edges],
        }

    def to_dot(self) -> str:
        """DOT rendering with positively labeled edges only.

        alpha is drawn as a square, beta as a double circle; a combined
        root gets the doubly marked Msquare shape.
        """
        index, edges = self._renumbered()
        lines = ["digraph birooted {", "  rankdir=LR;"]
        for v in range(len(index)):
            if v == index[self.alpha] and v == index[self.beta]:
                shape = "Msquare"
            elif v == index[self.alpha]:
                shape = "square"
            elif v == index[self.beta]:
                shape = "doublecircle"
            else:
                shape = "circle"
            lines.append(f"  {v} [shape={shape}];")
        for s, x, t in edges:
            label = x.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {s} -> {t} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"BirootedGraph(vertices={len(self.vertices)}, edges={len(self.edges)}, "
            f"alpha={self.alpha}, beta={self.beta})"
        )


def _linked(
    alpha: int, beta: int, edges: Iterable[Edge], letters: Iterable[Letter] = ()
) -> GraphBuilder:
    """A new builder with the (s, x, t) triples linked under their own
    vertex ids, over the sorted union of letters and the triples' letters,
    with roots alpha and beta and every placed edge logged.  The rows run
    to the largest id, and an id below it that no triple or root names is
    a removed vertex.  Every caller passes a graph's or a builder's own
    ids, so none is negative."""
    edges = list(edges)
    ids = {alpha, beta}.union(*[(s, t) for s, _, t in edges])
    b = GraphBuilder({x for _, x, _ in edges}.union(letters))
    rows, width = b._rows, 2 * len(b.letters)
    rows.extend([None] * (max(ids) + 1))
    for v in ids:
        rows[v] = [None] * width
    b._removed = len(rows) - len(ids)
    for s, x, t in edges:
        b.link(s, b.codes[x], t)
    b.alpha, b.beta = alpha, beta
    return b


class GraphBuilder:
    """Mutable multigraph that folding and the engine's sewing share.

    It stores rows of step codes over its sorted letters as BirootedGraph
    does, plus the pending edges that link could not place because a slot
    was taken.  Rows and pending list are the builder's only record of the
    graph.  A vertex dies only in fold, which moves its edges onto the
    survivor and the roots off it and sets its row to None, so every
    vertex id the builder holds outside a fold, the log aside, names a
    row.  A new vertex appends a row, and _removed counts the rows set to
    None.  Rows take 2 x len(letters) slots a vertex.  log lists, as
    (s, c, t, walks), every edge placed in both rows since its owner
    last cleared it, by link, by fold or by the engine's close; a later
    merge can remove an end or move the edge, which leaves a stale entry
    and logs the moved edge again.  The builder logs every edge it places
    with walks None; only the engine's close, which sews a round's
    chains into the rows itself, logs a chain edge with the deduction
    entries its scan walks (see the engine module docstring).  close reads
    round 0's sites from the live entries, and each later round's from
    the entries of the round before, so the log must hold every edge the
    builder placed: every way of making a builder logs its edges, and
    only close clears the log, at the start of a round.  Handing a
    builder to BirootedGraph spends it: the graph takes the rows, and
    the builder keeps no rows, pending list or log.
    """

    def __init__(self, letters: Iterable[Letter] = ()):
        self.letters, self.codes = _step_codes(letters)
        self._rows: Rows = []
        self._removed = 0
        self._pending: list[tuple[int, int, int]] = []
        self.alpha: int = 0
        self.beta: int = 0
        self.log: list[tuple[int, int, int, list | None]] = []

    @classmethod
    def from_graph(cls, g: BirootedGraph) -> "GraphBuilder":
        """A new builder with g's edges, vertex ids, roots and letters, every
        edge logged."""
        return _linked(g.alpha, g.beta, _edges(g._rows, g._pending, g._letters), g._letters)

    @classmethod
    def from_word(cls, w: Word, letters: Iterable[Letter] | None = None) -> "GraphBuilder":
        """The unfolded chain spelling w, vertices 0 to len(w), its placed
        edges logged.

        The builder's letters are the given ones, by default those of w; a
        letter of w outside them raises KeyError.  Each letter appends a
        row and links its step onto it, so a backtracking word such as aa^
        pends the edge whose slot the step before took.
        """
        b = cls({x for x, _ in w.letters} if letters is None else letters)
        rows, codes, width = b._rows, b.codes, 2 * len(b.letters)
        rows.append([None] * width)
        for x, sign in w.letters:
            rows.append([None] * width)
            b.link(len(rows) - 2, codes[x] + (sign < 0), len(rows) - 1)
        b.beta = len(rows) - 1
        return b

    def link(self, s: int, step: int, t: int) -> None:
        """Add the edge from s along the step code to t: into both rows,
        and into the log with walks None, when both slots are free; to
        the pending list when either holds another target; nowhere when it
        is already there."""
        rows = self._rows
        slot = rows[s][step]
        if slot != t:
            if slot is None and rows[t][step ^ 1] is None:
                rows[s][step] = t
                rows[t][step ^ 1] = s
                self.log.append((s, step, t, None))
            else:
                self._pending.append((s, step, t))

    def vertex_count(self) -> int:
        return len(self._rows) - self._removed

    def fold(self) -> int:
        """Place every pending edge, merging until deterministic; returns the
        number of merges performed, which is the drop in vertex count.

        An edge s -c-> t goes into both rows, and into the log, when both
        slots are free.  When the slot at s holds u, u and t are one vertex;
        when the slot at t holds v, v and s are.  A merge keeps the older
        vertex, the smaller id (folding is confluent, so the choice decides
        only which ids survive): it sets the other's row to None, clears
        the slot that names the removed vertex at each neighbor, and pends
        each of its edges again from the survivor, where placing it logs it
        again.
        forward maps each removed vertex to the one it merged into, for the
        ids the pending list still holds; it lives for this fold only.
        """
        pending = self._pending
        if not pending:
            return 0
        rows, log = self._rows, self.log
        forward = {}
        while pending:
            s, c, t = pending.pop()
            while s in forward:
                s = forward[s]
            while t in forward:
                t = forward[t]
            a, b = rows[s][c], t
            if a == t:
                continue
            if a is None:
                a, b = rows[t][c ^ 1], s
                if a is None:
                    rows[s][c] = t
                    rows[t][c ^ 1] = s
                    log.append((s, c, t, None))
                    continue
            if b < a:
                a, b = b, a
            forward[b] = a
            row, rows[b] = rows[b], None
            for c, t in enumerate(row):
                if t is not None:
                    if t != b:
                        rows[t][c ^ 1] = None
                    pending.append((a, c, t))
        while self.alpha in forward:
            self.alpha = forward[self.alpha]
        while self.beta in forward:
            self.beta = forward[self.beta]
        self._removed += len(forward)
        return len(forward)

    def freeze(self) -> BirootedGraph:
        """A graph handed a new builder linked from this one's edge triples,
        pending ones included, over the letters they use, so an unfolded
        builder gives a non-deterministic graph; this builder stays usable,
        and what it does next does not reach the graph."""
        return BirootedGraph(_linked(self.alpha, self.beta, _edges(self._rows, self._pending, self.letters)))


def fold(g: BirootedGraph) -> BirootedGraph:
    """The deterministic quotient of g, unique up to root-respecting
    isomorphism; each merge that makes it removes one vertex of g.  The
    folded builder is handed over, not copied."""
    b = GraphBuilder.from_graph(g)
    b.fold()
    return BirootedGraph(b)
