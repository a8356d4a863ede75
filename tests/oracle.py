"""Slow independent reference implementations, used as ground truth in tests.

Nothing here shares algorithmic code with the engine: the Munn tree is
built directly as a tree walk (no folding pass), and the brute-force
closure keeps its own flat edge-set representation, rebuilds adjacency from
scratch at every step, and sews one site at a time with an immediate fold.
Any closed endpoint of the expansion process is the Schützenberger
automaton, so a disagreement with the engine flags a bug, not ambiguity.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from stephen_kit.decision import Answer
from stephen_kit.presentation import Presentation, Word
from stephen_kit.word_graph import BirootedGraph
from support import graph


def munn_tree(w: Word) -> BirootedGraph:
    """The Munn tree of w, grown edge by edge along the word's path.

    A fresh vertex is created only when the current vertex has no edge for
    the signed letter, so the result is a tree by construction and equals
    the folded linear graph of w.
    """
    forward: dict[int, dict[str, int]] = {0: {}}
    backward: dict[int, dict[str, int]] = {0: {}}
    fresh = 1
    current = 0
    for x, sign in w:
        ahead = forward if sign == 1 else backward
        behind = backward if sign == 1 else forward
        step = ahead[current].get(x)
        if step is None:
            step = fresh
            fresh += 1
            forward[step] = {}
            backward[step] = {}
            ahead[current][x] = step
            behind[step][x] = current
        current = step
    edges = [(v, x, t) for v, table in forward.items() for x, t in table.items()]
    return graph(0, current, edges)


class BruteClosure(NamedTuple):
    """Flat closure state: positive edge triples plus roots."""

    edges: frozenset[tuple[int, str, int]]
    alpha: int
    beta: int
    closed: bool
    steps: int


def _flat_linear(w: Word) -> tuple[set[tuple[int, str, int]], int, int]:
    edges = set()
    for i, (x, sign) in enumerate(w):
        edges.add((i, x, i + 1) if sign == 1 else ((i + 1, x, i)))
    return edges, 0, len(w)


def _flat_fold(edges, alpha, beta):
    # Rebuild the adjacency index on every pass and merge one clash at a
    # time; deliberately naive.
    while True:
        by_out = defaultdict(set)
        by_in = defaultdict(set)
        for s, x, t in edges:
            by_out[(s, x)].add(t)
            by_in[(t, x)].add(s)
        clash = None
        for group in list(by_out.values()) + list(by_in.values()):
            if len(group) > 1:
                clash = sorted(group)[:2]
                break
        if clash is None:
            return edges, alpha, beta
        keep, drop = clash
        edges = {
            (keep if s == drop else s, x, keep if t == drop else t)
            for s, x, t in edges
        }
        alpha = keep if alpha == drop else alpha
        beta = keep if beta == drop else beta


def _flat_adjacency(edges):
    adj = {}
    for s, x, t in edges:
        adj[(s, x, 1)] = t
        adj[(t, x, -1)] = s
    return adj


def _flat_walk(adj, start, w):
    v = start
    for x, sign in w:
        v = adj.get((v, x, sign))
        if v is None:
            return None
    return v


def _flat_vertices(edges, alpha, beta):
    vertices = {alpha, beta}
    for s, _, t in edges:
        vertices.add(s)
        vertices.add(t)
    return vertices


def _flat_find_site(edges, alpha, beta, p: Presentation):
    adj = _flat_adjacency(edges)
    for start in sorted(_flat_vertices(edges, alpha, beta)):
        for lhs, rhs in p.relations:
            for read, sew in ((lhs, rhs), (rhs, lhs)):
                end = _flat_walk(adj, start, read)
                if end is None:
                    continue
                if _flat_walk(adj, start, sew) != end:
                    return start, end, sew
    return None


def brute_force_closure(w: Word, p: Presentation, depth: int = 200) -> BruteClosure:
    """Close the linear graph of w by single-site steps, up to depth sews."""
    edges, alpha, beta = _flat_linear(w)
    edges, alpha, beta = _flat_fold(edges, alpha, beta)
    steps = 0
    while True:
        site = _flat_find_site(edges, alpha, beta, p)
        if site is None:
            return BruteClosure(frozenset(edges), alpha, beta, True, steps)
        if steps >= depth:
            return BruteClosure(frozenset(edges), alpha, beta, False, steps)
        start, end, sew = site
        fresh = max(_flat_vertices(edges, alpha, beta)) + 1
        prev = start
        for x, _ in sew.letters[:-1]:
            edges.add((prev, x, fresh))
            prev = fresh
            fresh += 1
        edges.add((prev, sew.letters[-1][0], end))
        edges, alpha, beta = _flat_fold(edges, alpha, beta)
        steps += 1


def brute_force_accepts(closure: BruteClosure, w: Word) -> bool:
    adj = _flat_adjacency(closure.edges)
    return _flat_walk(adj, closure.alpha, w) == closure.beta


def brute_force_equal(u: Word, v: Word, p: Presentation, depth: int = 200) -> Answer:
    """Equality via two brute-force closures and mutual acceptance.

    depth bounds the elementary expansions spent on each word separately;
    Unknown when either closure fails to close within the bound.
    """
    cu = brute_force_closure(u, p, depth)
    cv = brute_force_closure(v, p, depth)
    if not (cu.closed and cv.closed):
        return Answer.UNKNOWN
    if brute_force_accepts(cv, u) and brute_force_accepts(cu, v):
        return Answer.YES
    return Answer.NO
