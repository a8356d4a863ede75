"""Birooted inverse word graphs.

A graph stores only the positively labeled orientation of each edge;
traversing an edge (p, x, q) backwards acts as the implicit edge labeled
x^-1 from q to p.  Folding (determination) merges the endpoints of equally
labeled edges leaving one vertex until the graph is deterministic; the
result is a quotient of the input and, because folding is confluent, it is
independent of the merge order up to root-respecting isomorphism.

Graphs are value-like: the mutable machinery lives in GraphBuilder, which
fold and the expansion engine share; a constructed BirootedGraph is never
mutated and is safe to share between readers.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .presentation import Word, _Record, _set

Edge = tuple[int, str, int]


class BirootedGraph:
    """A finite birooted inverse word graph with roots alpha and beta.

    Every vertex must be reachable from alpha through the underlying
    undirected edge set; this is validated on construction.
    """

    def __init__(self, alpha: int, beta: int, edges: Iterable[Edge]):
        self.alpha = alpha
        self.beta = beta
        self.edges: frozenset[Edge] = frozenset((s, x, t) for s, x, t in edges)
        vertices = {alpha, beta}
        for s, _, t in self.edges:
            vertices.add(s)
            vertices.add(t)
        self.vertices: frozenset[int] = frozenset(vertices)
        adj: dict[int, dict[tuple[str, int], list[int]]] = {v: {} for v in vertices}
        for s, x, t in self.edges:
            adj[s].setdefault((x, 1), []).append(t)
            adj[t].setdefault((x, -1), []).append(s)
        self._adj = {
            v: {key: tuple(sorted(ts)) for key, ts in table.items()}
            for v, table in adj.items()
        }
        self.is_deterministic = all(
            len(ts) == 1 for table in self._adj.values() for ts in table.values()
        )
        self._bfs = tuple(self._bfs_order())
        if len(self._bfs) != len(self.vertices):
            raise ValueError("graph is not connected from alpha")

    def _bfs_order(self) -> list[int]:
        # Neighbors explored by letter, positive orientation first; this
        # fixes the canonical numbering used by serialization.
        order = [self.alpha]
        seen = {self.alpha}
        queue = deque(order)
        while queue:
            v = queue.popleft()
            for key in sorted(self._adj[v], key=lambda k: (k[0], -k[1])):
                for t in self._adj[v][key]:
                    if t not in seen:
                        seen.add(t)
                        order.append(t)
                        queue.append(t)
        return order

    def bfs_order(self) -> tuple[int, ...]:
        """Vertices in canonical breadth-first order from alpha."""
        return self._bfs

    def step(self, v: int, letter: str, sign: int) -> int | None:
        """Follow one signed letter from v; None when no edge matches."""
        targets = self._adj[v].get((letter, sign))
        return targets[0] if targets else None

    def walk(self, start: int, w: Iterable[tuple[str, int]]) -> int | None:
        """Endpoint of the unique path labeled by w from start, or None.

        Only meaningful on deterministic graphs, where paths are unique.
        """
        if not self.is_deterministic:
            raise ValueError("walk() requires a deterministic graph")
        v = start
        for x, sign in w:
            targets = self._adj[v].get((x, sign))
            if not targets:
                return None
            v = targets[0]
        return v

    def accepts(self, w: Word) -> bool:
        """True iff w labels a path from alpha to beta."""
        return self.walk(self.alpha, w) == self.beta

    def canonical_key(self):
        """Hashable form invariant under root-respecting isomorphism."""
        index = {v: i for i, v in enumerate(self._bfs)}
        edges = tuple(sorted((index[s], x, index[t]) for s, x, t in self.edges))
        return (len(self._bfs), index[self.beta], edges)

    def to_json(self) -> dict:
        """Canonically renumbered export: alpha is always vertex 0."""
        index = {v: i for i, v in enumerate(self._bfs)}
        edges = sorted([index[s], x, index[t]] for s, x, t in self.edges)
        return {
            "alpha": 0,
            "beta": index[self.beta],
            "vertices": list(range(len(self._bfs))),
            "edges": edges,
        }

    def to_dot(self) -> str:
        """DOT rendering with positively labeled edges only.

        alpha is drawn as a square, beta as a double circle; a combined
        root gets the doubly marked Msquare shape.
        """
        index = {v: i for i, v in enumerate(self._bfs)}
        lines = ["digraph birooted {", "  rankdir=LR;"]
        for v in range(len(self._bfs)):
            if v == index[self.alpha] and v == index[self.beta]:
                shape = "Msquare"
            elif v == index[self.alpha]:
                shape = "square"
            elif v == index[self.beta]:
                shape = "doublecircle"
            else:
                shape = "circle"
            lines.append(f"  {v} [shape={shape}];")
        for s, x, t in sorted((index[s], x, index[t]) for s, x, t in self.edges):
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
    edges = []
    for i, (x, sign) in enumerate(w):
        if sign == 1:
            edges.append((i, x, i + 1))
        else:
            edges.append((i + 1, x, i))
    return BirootedGraph(0, len(w), edges)


class FoldReport(_Record):
    __slots__ = __match_args__ = ("merges", "final")

    def __init__(self, merges: int, final: BirootedGraph):
        _set(self, "merges", merges)
        _set(self, "final", final)


class GraphBuilder:
    """Mutable multigraph with union-find vertex merging.

    Backs both folding and the engine's sewing step.  Adjacency tables are
    kept for representatives only and always reference live vertices, so a
    merge has to relink exactly the edges incident to the vertex that goes
    away.  touched collects every vertex given an edge since its owner last
    cleared it; a deterministic graph can gain a clash only at such a
    vertex, so fold looks for clashes there alone.
    """

    def __init__(self):
        self.out: dict[int, dict[str, set[int]]] = {}
        self.inn: dict[int, dict[str, set[int]]] = {}
        self.parent: dict[int, int] = {}
        self.alpha: int = 0
        self.beta: int = 0
        self.merges = 0
        self.touched: set[int] = set()
        self._next = 0

    @classmethod
    def from_graph(cls, g: BirootedGraph) -> "GraphBuilder":
        b = cls()
        for v in g.vertices:
            b._register(v)
        b._next = max(g.vertices) + 1
        b.alpha, b.beta = g.alpha, g.beta
        for s, x, t in g.edges:
            b.add_edge(s, x, t)
        return b

    def _register(self, v: int) -> None:
        self.parent[v] = v
        self.out[v] = {}
        self.inn[v] = {}

    def new_vertex(self) -> int:
        v = self._next
        self._next += 1
        self._register(v)
        return v

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def add_edge(self, s: int, x: str, t: int) -> None:
        s, t = self.find(s), self.find(t)
        self.out[s].setdefault(x, set()).add(t)
        self.inn[t].setdefault(x, set()).add(s)
        self.touched.add(s)
        self.touched.add(t)

    def vertex_count(self) -> int:
        return len(self.out)

    def _degree(self, v: int) -> int:
        return sum(len(ts) for ts in self.out[v].values()) + sum(
            len(ss) for ss in self.inn[v].values()
        )

    def merge(self, a: int, b: int) -> int:
        """Identify two vertices; returns the surviving representative."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        if self._degree(b) > self._degree(a):
            a, b = b, a
        incident: list[tuple[str, int, bool]] = []
        for x, ts in self.out[b].items():
            for t in ts:
                incident.append((x, t, True))
                if t != b:
                    self.inn[t][x].discard(b)
        for x, ss in self.inn[b].items():
            for s in ss:
                if s != b:
                    incident.append((x, s, False))
                    self.out[s][x].discard(b)
        del self.out[b]
        del self.inn[b]
        self.parent[b] = a
        self.merges += 1
        for x, other, outgoing in incident:
            if other == b:
                other = a
            if outgoing:
                self.add_edge(a, x, other)
            else:
                self.add_edge(other, x, a)
        return a

    def _find_clash(self, v: int, reverse: bool) -> tuple[int, int] | None:
        for table in (self.out[v], self.inn[v]):
            for x in sorted(table, reverse=reverse):
                targets = table[x]
                if len(targets) > 1:
                    pair = sorted(targets, reverse=reverse)
                    return pair[0], pair[1]
        return None

    def fold(self, order: str = "fifo") -> int:
        """Merge until deterministic; returns the number of merges performed.

        The worklist starts from the touched vertices.  A merge can create
        new clashes only at the surviving vertex, so the worklist stays
        sound while it re-enqueues just that vertex.  The
        order parameter ("fifo" or "lifo") picks between two distinct
        clash-selection orders; results agree up to isomorphism.
        """
        if order not in ("fifo", "lifo"):
            raise ValueError(f"unknown fold order {order!r}")
        reverse = order == "lifo"
        before = self.merges
        work = deque(sorted({self.find(v) for v in self.touched}))
        while work:
            v = work.popleft() if order == "fifo" else work.pop()
            v = self.find(v)
            clash = self._find_clash(v, reverse)
            if clash is None:
                continue
            keep = self.merge(clash[0], clash[1])
            work.append(self.find(v))
            work.append(keep)
        return self.merges - before

    def readable_ends(self, start: int, w: Iterable[tuple[str, int]]) -> set[int]:
        """All endpoints of paths labeled by w from start (subset walk).

        Exact on non-deterministic graphs, which occur mid-round while
        sewing before the fold.
        """
        current = {self.find(start)}
        for x, sign in w:
            nxt: set[int] = set()
            table = self.out if sign == 1 else self.inn
            for v in current:
                nxt |= table[v].get(x, set())
            if not nxt:
                return set()
            current = nxt
        return current

    def walk(self, start: int, w: Iterable[tuple[str, int]]) -> int | None:
        """Endpoint of the path labeled by w from representative start, or None; folded only."""
        v = start
        for x, sign in w:
            targets = (self.out if sign == 1 else self.inn)[v].get(x)
            if not targets:
                return None
            (v,) = targets
        return v

    def bfs_rank(self, targets: Iterable[int]) -> dict[int, int]:
        """Canonical breadth-first index of each target, as BirootedGraph.bfs_order.

        Needs a folded graph; the search stops once every target is numbered.
        """
        alpha = self.find(self.alpha)
        rank = {alpha: 0}
        queue = deque([alpha])
        missing = set(targets) - {alpha}
        while missing:
            v = queue.popleft()
            out, inn = self.out[v], self.inn[v]
            for x in sorted(out.keys() | inn.keys()):
                for t in (*out.get(x, ()), *inn.get(x, ())):
                    if t not in rank:
                        rank[t] = len(rank)
                        queue.append(t)
                        missing.discard(t)
        return rank

    def freeze(self) -> BirootedGraph:
        edges = [
            (s, x, t)
            for s, table in self.out.items()
            for x, ts in table.items()
            for t in ts
        ]
        return BirootedGraph(self.find(self.alpha), self.find(self.beta), edges)


def fold(g: BirootedGraph, order: str = "fifo") -> FoldReport:
    """Exhaustively determinize a graph.

    The report counts vertex identifications; merges is 0 exactly when the
    input was already deterministic.
    """
    b = GraphBuilder.from_graph(g)
    merges = b.fold(order=order)
    return FoldReport(merges, b.freeze())


def isomorphic(g1: BirootedGraph, g2: BirootedGraph) -> bool:
    """Root-respecting automaton isomorphism, by parallel traversal.

    Deterministic connected graphs admit at most one label-preserving map
    extending alpha -> alpha; this checks that it exists, is total, and
    sends beta to beta.
    """
    if not (g1.is_deterministic and g2.is_deterministic):
        raise ValueError("isomorphic() requires deterministic graphs")
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    pairing = {g1.alpha: g2.alpha}
    queue = deque([(g1.alpha, g2.alpha)])
    while queue:
        v1, v2 = queue.popleft()
        if g1._adj[v1].keys() != g2._adj[v2].keys():
            return False
        for key, (t1,) in g1._adj[v1].items():
            t2 = g2._adj[v2][key][0]
            if t1 in pairing:
                if pairing[t1] != t2:
                    return False
            else:
                pairing[t1] = t2
                queue.append((t1, t2))
    return pairing[g1.beta] == g2.beta
