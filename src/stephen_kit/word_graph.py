"""Birooted inverse word graphs.

A graph lists each edge once, in its positively labeled orientation
(p, x, q); traversing it backwards acts as the implicit edge labeled x^-1
from q to p.  Both graph classes index edges the same way, by signed step:
adj[p][(x, 1)] holds q and adj[q][(x, -1)] holds p, so a walk along a
signed word looks each letter up directly in either.  A frozen graph
numbers its vertices in the canonical breadth-first order, and lists its
edges, only when first asked.  Folding (determination) merges the
endpoints of equally labeled edges leaving one vertex until the graph is
deterministic; the result is a quotient of the input and, because
folding is confluent, it is independent of the merge order up to
root-respecting isomorphism.

Graphs are value-like: the mutable machinery lives in GraphBuilder, which
fold and the expansion engine share; a constructed BirootedGraph is never
mutated and is safe to share between readers.  GraphBuilder does the two
things Stephen's procedure does to a graph, spelling a chain and folding,
on one adjacency table that is its only record of the graph.

A graph is made in one of two ways.  Edge triples, a raw table and
GraphBuilder.freeze() of a builder that goes on growing are copied, with
tuples as targets, and checked: the copy records whether the graph is
deterministic, and a traversal from alpha must reach every vertex.
close and fold(g) end on a folded builder and hand it over instead: the
graph adopts the builder's table, singleton sets as targets, and the
builder is spent, with no table left that a later link or spell could
change.  Such a table needs neither check, because the builder keeps
both properties by construction: from_word spells a connected chain,
from_graph copies a graph that was checked when it was built, spell
starts at an existing vertex, merge keeps the graph connected, and fold
leaves no clash.
"""

from __future__ import annotations

from functools import cached_property
from typing import Collection, Iterable, Sequence

from .presentation import Word

Edge = tuple[int, str, int]
Step = tuple[str, int]
Adjacency = dict[int, dict[Step, set[int]]]
FrozenAdjacency = dict[int, dict[Step, Collection[int]]]


def _bfs(adj: FrozenAdjacency, alpha: int) -> tuple[int, ...]:
    """Vertices in canonical breadth-first order from alpha.

    Neighbors are explored by letter, positive orientation first, and each
    step's targets in stored order; this fixes the canonical numbering.
    The order list doubles as the queue.
    """
    order, seen = [alpha], {alpha}
    for v in order:
        table = adj[v]
        for step in sorted(table, key=lambda k: (k[0], -k[1])):
            for t in table[step]:
                if t not in seen:
                    seen.add(t)
                    order.append(t)
    return tuple(order)


class BirootedGraph:
    """A finite birooted inverse word graph with roots alpha and beta.

    Every vertex must be reachable from alpha through the underlying
    undirected edge set; this is validated when the graph is copied, and
    a handed-over builder guarantees it.
    """

    def __init__(self, alpha: int, beta: int, edges: Iterable[Edge] | Adjacency | GraphBuilder):
        """Build from (s, x, t) triples, put into a step-keyed table first (so
        a repeated triple is one edge), or from such a table, which is
        copied and checked.  A folded GraphBuilder is handed over instead:
        its table is adopted unchecked and the builder is spent (see the
        module docstring).  Edges are listed when first read.
        """
        self.alpha = alpha
        self.beta = beta
        if isinstance(edges, GraphBuilder):
            self._adj: FrozenAdjacency = edges._adj
            edges._adj = None
            self.vertices: frozenset[int] = frozenset(self._adj)
            self.is_deterministic = True
            return
        adj = edges
        if not isinstance(adj, dict):
            adj = {alpha: {}, beta: {}}
            for s, x, t in edges:
                adj.setdefault(s, {}).setdefault((x, 1), set()).add(t)
                adj.setdefault(t, {}).setdefault((x, -1), set()).add(s)
        self._adj = {}
        self.is_deterministic = True
        for v, table in adj.items():
            row = self._adj[v] = {}
            for step, ts in table.items():
                if len(ts) == 1:
                    row[step] = tuple(ts)
                else:
                    row[step] = tuple(sorted(ts))
                    self.is_deterministic = False
        self.vertices = frozenset(self._adj)
        seen, stack = {alpha}, [alpha]
        while stack:
            for ts in self._adj[stack.pop()].values():
                for t in ts:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
        if len(seen) != len(self.vertices):
            raise ValueError("graph is not connected from alpha")

    @cached_property
    def _order(self) -> tuple[int, ...]:
        return _bfs(self._adj, self.alpha)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(
            (s, x, t)
            for s, table in self._adj.items()
            for (x, sign), ts in table.items()
            if sign == 1
            for t in ts
        )

    def bfs_order(self) -> tuple[int, ...]:
        """Vertices in canonical breadth-first order from alpha."""
        return self._order

    def walk(self, start: int, w: Iterable[Step]) -> int | None:
        """Endpoint of the unique path labeled by w from start, or None.

        Only meaningful on deterministic graphs, where paths are unique.
        """
        if not self.is_deterministic:
            raise ValueError("walk() requires a deterministic graph")
        v = start
        for step in w:
            targets = self._adj[v].get(step)
            if not targets:
                return None
            (v,) = targets
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
        return (len(self.vertices), index[self.beta], tuple(edges))

    def to_json(self) -> dict:
        """Canonically renumbered export: alpha is always vertex 0."""
        index, edges = self._renumbered()
        return {
            "alpha": 0,
            "beta": index[self.beta],
            "vertices": list(range(len(self.vertices))),
            "edges": [list(edge) for edge in edges],
        }

    def to_dot(self) -> str:
        """DOT rendering with positively labeled edges only.

        alpha is drawn as a square, beta as a double circle; a combined
        root gets the doubly marked Msquare shape.
        """
        index, edges = self._renumbered()
        lines = ["digraph birooted {", "  rankdir=LR;"]
        for v in range(len(self.vertices)):
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


def linear_graph(w: Word) -> BirootedGraph:
    """The chain-shaped graph spelling w from alpha to beta.

    A negative letter contributes the positive orientation reversed.  The
    empty word is admitted and yields the single-vertex graph with
    alpha = beta.
    """
    return GraphBuilder.from_word(w).freeze()


class GraphBuilder:
    """Mutable multigraph that folding and the engine's sewing share.

    It stores adjacency as BirootedGraph does, adj[v][(letter, sign)] ->
    targets, with sets as targets and an edge p -x-> q listed at p under
    (x, 1) and at q under (x, -1).  That table is the builder's only record
    of the graph.  A vertex dies only in merge, which relinks its edges onto
    the survivor and moves the roots and touched off it, so every vertex id
    the builder holds is a key of the table.  touched collects every vertex
    given an edge since its owner last cleared it; a deterministic graph can
    gain a clash only at such a vertex, so fold looks for clashes there
    alone.  Handing a folded builder to BirootedGraph spends it: the graph
    takes the table, and the builder keeps none.
    """

    def __init__(self):
        self._adj: Adjacency = {}
        self.alpha: int = 0
        self.beta: int = 0
        self.touched: set[int] = set()
        self._next = 0

    @classmethod
    def from_graph(cls, g: BirootedGraph) -> "GraphBuilder":
        b = cls()
        b._adj = {v: {step: set(ts) for step, ts in table.items()} for v, table in g._adj.items()}
        b.touched = set(g.vertices)
        b._next = max(g.vertices) + 1
        b.alpha, b.beta = g.alpha, g.beta
        return b

    @classmethod
    def from_word(cls, w: Word) -> "GraphBuilder":
        """The unfolded chain spelling w, vertices 0 to len(w), all touched."""
        b = cls()
        b.beta = b.spell(b.new_vertex(), w.letters)
        return b

    def new_vertex(self) -> int:
        v = self._next
        self._next += 1
        self._adj[v] = {}
        return v

    def link(self, s: int, step: Step, t: int) -> None:
        """Add the edge from s along the signed step to t, listed at both ends."""
        x, sign = step
        self._adj[s].setdefault(step, set()).add(t)
        self._adj[t].setdefault((x, -sign), set()).add(s)
        self.touched.add(s)
        self.touched.add(t)

    def spell(self, start: int, steps: Sequence[Step], end: int | None = None) -> int:
        """Add a chain labeled by steps from start through fresh vertices.

        The last step lands on end if one is given, else on a fresh vertex
        too; returns the chain's last vertex.
        """
        for i, step in enumerate(steps, 1):
            t = end if end is not None and i == len(steps) else self.new_vertex()
            self.link(start, step, t)
            start = t
        return start

    def vertex_count(self) -> int:
        return len(self._adj)

    def _degree(self, v: int) -> int:
        return sum(len(ts) for ts in self._adj[v].values())

    def merge(self, a: int, b: int) -> int:
        """Identify two distinct vertices; returns the survivor.

        A self-loop at the removed vertex is listed under both signs and so
        relinked twice, which the target sets absorb.
        """
        if self._degree(b) > self._degree(a):
            a, b = b, a
        table = self._adj.pop(b)
        for (x, sign), ts in table.items():
            for t in ts:
                if t == b:
                    t = a
                else:
                    self._adj[t][(x, -sign)].discard(b)
                self.link(a, (x, sign), t)
        self.touched.discard(b)
        self.alpha = a if self.alpha == b else self.alpha
        self.beta = a if self.beta == b else self.beta
        return a

    def fold(self) -> int:
        """Merge until deterministic; returns the number of merges performed.

        Each merge deletes one table, so that is the drop in vertex count.
        The stack starts from the touched vertices, in no particular order:
        folding is confluent, so the order decides only which ids survive.
        The vertex on top stays until it has no clash.  A merge can create
        a clash only at its survivor, so the survivor is pushed; a vertex
        that a merge removed has no table left and is popped.
        """
        before = len(self._adj)
        stack = list(self.touched)
        while stack:
            for ts in self._adj.get(stack[-1], {}).values():
                if len(ts) > 1:
                    a, b, *_ = ts
                    stack.append(self.merge(a, b))
                    break
            else:
                stack.pop()
        return before - len(self._adj)

    def freeze(self) -> BirootedGraph:
        """A checked copy of the graph; the builder stays usable, and what it
        does next does not reach the copy."""
        return BirootedGraph(self.alpha, self.beta, self._adj)


def fold(g: BirootedGraph) -> BirootedGraph:
    """The deterministic quotient of g, unique up to root-respecting
    isomorphism; each merge that makes it removes one vertex of g.  The
    folded builder is handed over, not copied."""
    b = GraphBuilder.from_graph(g)
    b.fold()
    return BirootedGraph(b.alpha, b.beta, b)
