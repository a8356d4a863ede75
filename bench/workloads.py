"""Seeded workload generators.

Each generator takes the seed and returns a Workload: presentation texts,
word texts and the operations to run, each with the answer known from
truth.py where one is known.  The program under test only ever receives
the generated texts.

Why these four workloads:

* thin-divergent - the aba = b closure grows about two vertices per round
  while each round rescans and refreezes the whole graph, so nearly all
  of its time is the per-round O(V) work an incremental closure removes.
* dense-closing - closures that terminate, where most vertices carry a
  site every round and folds merge heavily; a frontier scan gains little
  here and any bookkeeping it adds shows.
* query-mix - many tiny closures behind eq / leq / idem verdicts, which
  bypass the per-round rescan and load the decision layer instead.
* cli-cold - one short CLI process per operation, the only place where
  interpreter start, package import, argparse and file parsing show.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import truth
from truth import YES, inverse, text, word

PRESENTATIONS = {
    "FREE2": ("ab", ()),
    "COMM": ("ab", (("ab", "ba"),)),
    "COMM3": ("abc", (("ab", "ba"), ("bc", "cb"), ("ac", "ca"))),
    "CASE1": ("abc", (("aba", "c"),)),
    "CASE2": ("abc", (("aab", "bcc"),)),
    "FACT1": ("abcd", (("ab", "cd"),)),
    "SUBWORD": ("ab", (("aba", "b"),)),
    "BBB": ("ab", (("b", "bbb"), ("bb", "aaa"))),
}

# The `check` line the paper's overlap classification gives for each
# presentation (Adian test, overlap case, finiteness certificate).
CHECK_LINES = {
    "FREE2": "adian: yes",
    "COMM": "adian: yes; case: Case4; finiteness: unknown",
    "COMM3": "adian: no",
    "CASE1": "adian: yes; case: Case1; finiteness: certified-finite (proposition 1)",
    "CASE2": "adian: yes; case: Case2; finiteness: certified-finite (proposition 2)",
    "FACT1": "adian: yes; case: NoInteraction; finiteness: certified-finite (fact 1)",
    "SUBWORD": "adian: yes; case: Subword; finiteness: certified-infinite (subword argument)",
    "BBB": "adian: no",
}

UNBOUNDED_ROUNDS = 10**9
DEFAULT_BUDGET = (64, 100_000)
QUERY_BUDGET = (16, 20_000)
THIN_BUDGETS = (250, 500, 1000)
QUERY_MAX_LEN = 8


def presentation_text(name: str) -> str:
    alphabet, relations = PRESENTATIONS[name]
    lines = ["X: " + " ".join(alphabet)]
    lines += [f"R: {l} = {r}" for l, r in relations]
    return "\n".join(lines) + "\n"


@dataclass
class Op:
    """One operation: a closure, a verdict, or a CLI run.

    kind is "closure", "eq", "leq", "idem" or "cli"; words are texts over
    the presentation's alphabet.  truth is the known verdict ("yes"/"no"),
    the expected closure status, or None when no independent source knows
    it.  vertices is the known vertex count of a closed automaton.
    """

    kind: str
    pres: str
    words: tuple[str, ...]
    budget: tuple[int, int] | None = None
    truth: str | None = None
    vertices: int | None = None
    argv: tuple[str, ...] = ()
    expect_line: str | None = None


@dataclass
class Workload:
    """Operations in groups; a run stops only between groups."""

    name: str
    groups: list[list[Op]]
    presentations: list[str]

    def ops(self) -> list[Op]:
        return [op for g in self.groups for op in g]

    def words(self) -> list[tuple[str, str]]:
        return [(op.pres, w) for op in self.ops() for w in op.words]


# -- word construction ---------------------------------------------------------


def _random_word(rng, alphabet: str, lo: int, hi: int, signed: bool = True) -> tuple:
    n = rng.randint(lo, hi)
    return tuple((rng.choice(alphabet), rng.choice((1, -1)) if signed else 1) for _ in range(n))


def _equal_pair(rng, pres: str, max_len: int) -> tuple[tuple, tuple]:
    """Two words equal in the presented monoid, each at most max_len long.

    Either one relation side is replaced by the other inside a context, or
    a letter x is replaced by x x^-1 x, which holds in every inverse monoid.
    """
    alphabet, relations = PRESENTATIONS[pres]
    fitting = [
        (word(l), word(r))
        for l, r in relations
        if max(len(l), len(r)) <= max_len
    ]
    if fitting and rng.random() < 0.6:
        lhs, rhs = rng.choice(fitting)
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        room = max_len - max(len(lhs), len(rhs))
        ctx = _random_word(rng, alphabet, 0, room)
        cut = rng.randint(0, len(ctx))
        return ctx[:cut] + lhs + ctx[cut:], ctx[:cut] + rhs + ctx[cut:]
    base = _random_word(rng, alphabet, 1, max_len - 2)
    i = rng.randrange(len(base))
    x = base[i]
    return base, base[:i] + (x, (x[0], -x[1]), x) + base[i + 1 :]


def _idempotent_factor(rng, alphabet: str, max_len: int) -> tuple:
    v = _random_word(rng, alphabet, 1, max(1, max_len // 2))
    return v + inverse(v)


def _query(rng, pres: str, kind: str, constructed: bool, oracle) -> tuple[tuple, str | None]:
    """A query's words and its known answer (None when unknown)."""
    alphabet, _ = PRESENTATIONS[pres]
    n = QUERY_MAX_LEN
    if kind == "eq":
        if constructed:
            u, v = _equal_pair(rng, pres, n)
            pair = (u, v) if rng.random() < 0.5 else (v, u)
            return pair, YES
        pair = (_random_word(rng, alphabet, 1, n), _random_word(rng, alphabet, 1, n))
        return pair, oracle.eq(*pair)
    if kind == "leq":
        if constructed:
            # x e y <= x y for an idempotent e, and x y may be rewritten.
            e = _idempotent_factor(rng, alphabet, 4)
            u, v = _equal_pair(rng, pres, n - len(e))
            cut = rng.randint(0, len(u))
            return (u[:cut] + e + u[cut:], v), YES
        pair = (_random_word(rng, alphabet, 1, n), _random_word(rng, alphabet, 1, n))
        return pair, oracle.leq(*pair)
    if constructed:
        # u = v gives u v^-1 = u u^-1, an idempotent.
        if rng.random() < 0.5:
            u, v = _equal_pair(rng, pres, n // 2)
            return (u + inverse(v),), YES
        e = _idempotent_factor(rng, alphabet, n // 2)
        f = _idempotent_factor(rng, alphabet, n - len(e))
        return (e + f,), YES
    w = _random_word(rng, alphabet, 1, n)
    return (w,), oracle.idem(w)


def oracles() -> dict:
    return {name: truth.Oracle(*PRESENTATIONS[name]) for name in PRESENTATIONS}


# -- the workloads ---------------------------------------------------------------


def thin_divergent(seed: int) -> Workload:
    """aba = b closed from one seeded start word at budgets 250/500/1000.

    Start words are a^i b a^j (i + j >= 1, each a possibly inverted), ab
    among them.  One b makes the graph grow by about two vertices a round,
    so every start word costs about the same; a run repeats its one group.
    """
    rng = random.Random(seed)
    left = _random_word(rng, "a", 0, 2)
    right = _random_word(rng, "a", 0 if left else 1, 2)
    start = text(left + (("b", 1),) + right)
    group = [
        Op("closure", "SUBWORD", (start,), (UNBOUNDED_ROUNDS, cap), "budget-exceeded")
        for cap in THIN_BUDGETS
    ]
    return Workload("thin-divergent", [group], ["SUBWORD"])


def _grid_vertices(w, letters: str) -> int | None:
    """Commutative positive words close to a grid with (n_x + 1) per letter."""
    if any(s < 0 for _, s in w):
        return None
    count = 1
    for x in letters:
        count *= 1 + sum(1 for y, _ in w if y == x)
    return count


def dense_closing(seed: int) -> Workload:
    """About 1000 terminating closures plus fixed heavy shapes.

    Random words are stratified: eleven per (presentation, length 6..14,
    positive or signed), so every seed runs the same mix.
    """
    rng = random.Random(seed)
    closed = "closed"
    ops = []
    for pres in ("COMM", "COMM3", "CASE1", "CASE2", "FACT1"):
        alphabet, _ = PRESENTATIONS[pres]
        for length in range(6, 15):
            for signed in (False, True):
                for _ in range(11):
                    w = _random_word(rng, alphabet, length, length, signed)
                    grid = _grid_vertices(w, alphabet) if pres.startswith("COMM") else None
                    ops.append(Op("closure", pres, (text(w),), DEFAULT_BUDGET, closed, grid))
    fixed = [
        ("COMM", "a" * 20 + "b" * 20, 21 * 21),
        ("CASE2", "aab" * 40, None),
    ] + [("COMM3", "a" * n + "b" * n + "c" * n, (n + 1) ** 3) for n in (6, 7, 8)]
    for pres, w, vertices in fixed:
        ops.append(Op("closure", pres, (w,), DEFAULT_BUDGET, closed, vertices))
    ops.append(Op("closure", "BBB", ("b",), (64, 2000), "budget-exceeded"))
    rng.shuffle(ops)
    names = ["COMM", "COMM3", "CASE1", "CASE2", "FACT1", "BBB"]
    return Workload("dense-closing", [[op] for op in ops], names)


QUERY_PRESENTATIONS = ("FREE2", "COMM", "CASE1", "CASE2", "FACT1", "SUBWORD")


def query_mix(seed: int) -> Workload:
    """2016 verdicts: 56 per (presentation, eq/leq/idem, constructed/random)."""
    rng = random.Random(seed)
    known = oracles()
    ops = []
    for pres in QUERY_PRESENTATIONS:
        for kind in ("eq", "leq", "idem"):
            for constructed in (True, False):
                for _ in range(56):
                    words, answer = _query(rng, pres, kind, constructed, known[pres])
                    ops.append(Op(kind, pres, tuple(map(text, words)), QUERY_BUDGET, answer))
    rng.shuffle(ops)
    return Workload("query-mix", [[op] for op in ops], list(QUERY_PRESENTATIONS))


CLI_FILES = ("FREE2", "COMM", "COMM3", "CASE1", "CASE2", "FACT1", "SUBWORD", "BBB")
CLI_VERDICT_PRESENTATIONS = ("FREE2", "COMM", "CASE1", "CASE2", "FACT1", "SUBWORD", "FREE2", "COMM")


def _cli_graph(rng, pres: str) -> Op:
    alphabet, _ = PRESENTATIONS[pres]
    file = pres.lower() + ".pres"
    if pres == "SUBWORD":
        w = _random_word(rng, "a", 0, 2) + (("b", 1),)
        argv = ("graph", file, text(w), "--max-vertices", "200")
        return Op("cli", pres, (text(w),), truth="budget-exceeded", argv=argv)
    if pres == "BBB":
        argv = ("graph", file, "b", "--max-vertices", "500")
        return Op("cli", pres, ("b",), truth="budget-exceeded", argv=argv)
    signed = pres == "FREE2"
    w = _random_word(rng, alphabet, 3, 8, signed)
    if pres == "FREE2":
        vertices = len(truth.munn(w)[0])
    elif pres.startswith("COMM"):
        vertices = _grid_vertices(w, alphabet)
    else:
        vertices = None
    return Op("cli", pres, (text(w),), truth="closed", vertices=vertices, argv=("graph", file, text(w)))


def _cli_verdict(rng, pres: str, kind: str, constructed: bool, oracle) -> Op:
    # Random queries are redrawn until an independent source knows the answer.
    while True:
        words, answer = _query(rng, pres, kind, constructed, oracle)
        if answer is not None:
            break
    texts = tuple(map(text, words))
    argv = (kind, pres.lower() + ".pres") + texts
    return Op("cli", pres, texts, truth=answer, argv=argv)


def cli_cold(seed: int) -> Workload:
    """40 CLI runs: check on every file, and 8 each of graph, eq, leq, idem."""
    rng = random.Random(seed)
    known = oracles()
    ops = [
        Op("cli", pres, (), truth="ok", argv=("check", pres.lower() + ".pres"), expect_line=CHECK_LINES[pres])
        for pres in CLI_FILES
    ]
    ops += [_cli_graph(rng, pres) for pres in CLI_FILES]
    for kind in ("eq", "leq", "idem"):
        for i, pres in enumerate(CLI_VERDICT_PRESENTATIONS):
            ops.append(_cli_verdict(rng, pres, kind, i % 2 == 0, known[pres]))
    rng.shuffle(ops)
    return Workload("cli-cold", [[op] for op in ops], list(CLI_FILES))


BUILDERS = {
    "thin-divergent": thin_divergent,
    "dense-closing": dense_closing,
    "query-mix": query_mix,
    "cli-cold": cli_cold,
}
