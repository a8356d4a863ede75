"""Ground truth for the benchmark, computed without the package under test.

Words are tuples of (letter, sign) pairs and presentations are
(alphabet, relations) pairs of plain strings, so nothing here imports
stephen_kit.  Three independent sources decide verdicts:

* constructed yes-instances (see workloads.py), whose answer is known from
  how they were built;
* the free inverse monoid, decided exactly by Munn trees;
* the abelianised maximal group image Z^X / span(lhs - rhs).  Every
  presented inverse monoid maps onto it, so different images prove that
  two words differ, that neither lies below the other, and that a word
  with a non-zero image is not idempotent.

The same image gives an invariant of every graph the engine can build:
each vertex carries a coset of the lattice, every edge adds its letter's
unit vector, and beta carries the image of the start word.
"""

from __future__ import annotations

YES, NO = "yes", "no"


def word(text: str) -> tuple:
    """Signed word from single-character letters; a trailing '^' inverts."""
    out = []
    for ch in text:
        if ch == "^":
            out[-1] = (out[-1][0], -1)
        else:
            out.append((ch, 1))
    return tuple(out)


def text(w) -> str:
    return "".join(x + ("^" if s < 0 else "") for x, s in w)


def inverse(w) -> tuple:
    return tuple((x, -s) for x, s in reversed(w))


# -- the free inverse monoid (Munn trees) ----------------------------------


def _reduce_step(stack: list, letter) -> None:
    if stack and stack[-1] == (letter[0], -letter[1]):
        stack.pop()
    else:
        stack.append(letter)


def munn(w) -> tuple[frozenset, tuple]:
    """The Munn tree of w (reduced forms of its prefixes) and its reduced form."""
    stack: list = []
    tree = {()}
    for letter in w:
        _reduce_step(stack, letter)
        tree.add(tuple(stack))
    return frozenset(tree), tuple(stack)


def free_equal(u, v) -> bool:
    return munn(u) == munn(v)


def free_leq(lower, candidate) -> bool:
    """lower <= candidate: same reduced form, candidate's tree inside lower's."""
    tree_l, red_l = munn(lower)
    tree_c, red_c = munn(candidate)
    return red_l == red_c and tree_c <= tree_l


def free_idempotent(w) -> bool:
    return munn(w)[1] == ()


# -- the abelianised group image -------------------------------------------


class AbelianImage:
    """Z^X modulo the lattice spanned by lhs - rhs, in Hermite normal form."""

    def __init__(self, alphabet: str, relations):
        self.alphabet = alphabet
        self.index = {x: i for i, x in enumerate(alphabet)}
        rows = [self._sub(self.vector(word(l)), self.vector(word(r))) for l, r in relations]
        self.pivots = _hermite(rows, len(alphabet))

    def vector(self, w) -> tuple:
        v = [0] * len(self.alphabet)
        for x, s in w:
            v[self.index[x]] += s
        return tuple(v)

    @staticmethod
    def _sub(a, b) -> tuple:
        return tuple(x - y for x, y in zip(a, b))

    def canon(self, v) -> tuple:
        """The canonical representative of v's coset."""
        v = list(v)
        for col, row in self.pivots:
            q = v[col] // row[col]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return tuple(v)

    def image(self, w) -> tuple:
        return self.canon(self.vector(w))

    def unit(self, letter: str) -> tuple:
        v = [0] * len(self.alphabet)
        v[self.index[letter]] = 1
        return tuple(v)


def _hermite(rows, width: int) -> list[tuple[int, tuple]]:
    """Row-echelon basis of the integer row lattice, with positive pivots."""
    rows = [list(r) for r in rows if any(r)]
    pivots = []
    for col in range(width):
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            head = live[0]
            reduced = [head]
            for r in live[1:]:
                q = r[col] // head[col]
                r = [a - q * b for a, b in zip(r, head)]
                (reduced if r[col] != 0 else rest).append(r)
            live = reduced
        if live:
            head = live[0]
            if head[col] < 0:
                head = [-a for a in head]
            pivots.append((col, tuple(head)))
        rows = [r for r in rest if any(r)]
    return pivots


# -- verdict truth -----------------------------------------------------------


class Oracle:
    """Known answers for eq / leq / idem queries over one presentation."""

    def __init__(self, alphabet: str, relations):
        self.free = not relations
        self.image = AbelianImage(alphabet, relations)

    def eq(self, u, v) -> str | None:
        if self.free:
            return YES if free_equal(u, v) else NO
        return NO if self.image.image(u) != self.image.image(v) else None

    def leq(self, lower, candidate) -> str | None:
        if self.free:
            return YES if free_leq(lower, candidate) else NO
        return NO if self.image.image(lower) != self.image.image(candidate) else None

    def idem(self, w) -> str | None:
        if self.free:
            return YES if free_idempotent(w) else NO
        zero = self.image.canon((0,) * len(self.image.alphabet))
        return NO if self.image.image(w) != zero else None


# -- closure invariants --------------------------------------------------------


def check_graph(edges, alpha, beta, w, relations, image: AbelianImage, closed: bool) -> list[str]:
    """Problems with a graph the engine returned for start word w; [] if none.

    Every approximation accepts w along a path consistent with the group
    image.  A closed result must also be deterministic and show no
    expansion site to this module's own scan.
    """
    out: dict = {}
    inn: dict = {}
    problems = []
    for s, x, t in edges:
        out.setdefault((s, x), []).append(t)
        inn.setdefault((t, x), []).append(s)
    deterministic = all(len(ts) == 1 for ts in out.values()) and all(
        len(ss) == 1 for ss in inn.values()
    )
    if closed and not deterministic:
        problems.append("closed graph is not deterministic")

    potential = {alpha: image.canon((0,) * len(image.alphabet))}
    frontier = [alpha]
    while frontier:
        v = frontier.pop()
        for table, sign in ((out, 1), (inn, -1)):
            for x in image.alphabet:
                for t in table.get((v, x), ()):
                    unit = image.unit(x)
                    p = image.canon(tuple(a + sign * b for a, b in zip(potential[v], unit)))
                    if t not in potential:
                        potential[t] = p
                        frontier.append(t)
                    elif potential[t] != p:
                        problems.append("graph is inconsistent with the group image")
                        return problems
    vertices = {s for s, _, _ in edges} | {t for _, _, t in edges} | {alpha, beta}
    if len(potential) != len(vertices):
        problems.append("graph is not connected from alpha")
        return problems
    if potential[beta] != image.image(w):
        problems.append("beta does not carry the image of the start word")

    if deterministic:

        def walk(v, path):
            for x, s in path:
                ts = (out if s == 1 else inn).get((v, x))
                if not ts:
                    return None
                v = ts[0]
            return v

        if walk(alpha, w) != beta:
            problems.append("graph does not accept its own word")
        if closed:
            sides = [(word(l), word(r)) for l, r in relations]
            for v in vertices:
                if any(walk(v, l) != walk(v, r) for l, r in sides):
                    problems.append("closed graph still has an expansion site")
                    break
    return problems
