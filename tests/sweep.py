"""Seeded output sweep: every output a change to the engine should keep.

Each case draws a presentation of 1-3 relations on 2-3 letters, three
signed words of length at most 6 and a budget of 1-16 rounds and 1-300
vertices, and prints closure JSON, canonical keys, graph JSON and DOT,
site lists, eq/leq/idem verdict JSON and, for every fifth case, CLI
result lines with their exit codes.  Raw vertex ids are never printed,
so two versions of the package that differ only in how they number
vertices print the same lines.  Sites print as (read side, sewn side,
start index, end index).  It uses the public API, three functions of
the package's modules (close, find_expansions, fold), the builder's
from_word and from_graph, and linear_graph from tests/support.py, so the
same script runs against another checkout that has them:

    PYTHONPATH=src python tests/sweep.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/sweep.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from stephen_kit import (
    Budget,
    Presentation,
    Word,
    decide_equal,
    decide_natural_leq,
    is_idempotent,
    schutzenberger_automaton,
)
from stephen_kit.cli import main as cli_main
from stephen_kit.engine import close, find_expansions
from stephen_kit.word_graph import GraphBuilder, fold
from support import linear_graph

# A multi-character letter some CLI cases add to the alphabet line: "ab"
# and "ba" are spelled by declared letters, "x1" and "cd" are not.
EXTRA_LETTERS = ("ab", "ba", "x1", "cd")


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _positive(rng: random.Random, letters: str) -> Word:
    return Word(tuple((rng.choice(letters), 1) for _ in range(rng.randint(1, 4))))


def _signed(rng: random.Random, letters: str) -> Word:
    n = rng.randint(0, 6)
    return Word(tuple((rng.choice(letters), rng.choice((1, -1))) for _ in range(n)))


def _graph_lines(tag: str, g) -> list[str]:
    return [
        f"{tag} json {_dump(g.to_json())}",
        f"{tag} key {g.canonical_key()!r}",
        f"{tag} dot {g.to_dot()!r}",
        f"{tag} det {g.is_deterministic} vertices {len(g.vertices)} edges {len(g.edges)}",
    ]


def _cli_lines(rng: random.Random, letters: str, p: Presentation, words, budget) -> list[str]:
    alphabet = list(letters)
    if rng.random() < 0.5:
        alphabet.append(rng.choice(EXTRA_LETTERS))
    text = "X: " + " ".join(alphabet) + "\n"
    text += "".join(f"R: {lhs} = {rhs}\n" for lhs, rhs in p.relations)
    u, v, _ = (str(w) for w in words)
    flags = ["--max-rounds", str(budget.max_rounds), "--max-vertices", str(budget.max_vertices)]
    runs = [["check", "P"], ["graph", "P", u], ["eq", "P", u, v], ["leq", "P", u, v], ["idem", "P", u]]
    lines = [f"cli pres {text!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "p.pres").write_text(text, encoding="utf-8")
        for argv in runs:
            extra = flags if argv[0] != "check" else []
            real = [str(tmp / "p.pres") if a == "P" else a for a in argv] + extra
            real += ["--json", str(tmp / "out.json")]
            if argv[0] == "graph":
                real += ["--dot", str(tmp / "out.dot")]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main(real)
            files = {}
            for name in ("out.json", "out.dot"):
                if (tmp / name).exists():
                    files[name] = (tmp / name).read_text(encoding="utf-8")
                    (tmp / name).unlink()
            lines.append(
                f"cli {argv + extra!r} -> {code} out {stdout.getvalue()!r} "
                f"err {stderr.getvalue()!r} files {_dump(files)}"
            )
    return lines


def case_lines(seed: int, case: int) -> list[str]:
    """Every output line of one case; the case's draws depend on seed and
    case alone."""
    rng = random.Random(f"{seed}-{case}")
    letters = "abc"[: rng.randint(2, 3)]
    relations = []
    while len(relations) < rng.randint(1, 3):
        lhs, rhs = _positive(rng, letters), _positive(rng, letters)
        if lhs != rhs:
            relations.append((lhs, rhs))
    p = Presentation(tuple(letters), tuple(relations))
    budget = Budget(rng.randint(1, 16), rng.randint(1, 300))
    words = [_signed(rng, letters) for _ in range(3)]
    u, v, x = words
    lines = [f"case {case} {p} {budget!r} words {[str(w) for w in words]!r}"]

    result = schutzenberger_automaton(u, p, budget)
    lines.append(f"closure {_dump(result.to_json())}")
    lines += _graph_lines("closure graph", result.graph)
    lines.append(f"closure accepts {[result.graph.accepts(w) for w in words]}")

    chain = linear_graph(x)
    folded = fold(chain)
    lines += _graph_lines("linear", chain)
    lines += _graph_lines("folded", folded)
    index = {v: i for i, v in enumerate(folded.bfs_order())}  # raw id -> canonical
    sites = [
        (str(Word(read)), str(Word(sew)), index[start], index[end])
        for start, end, (read, sew) in find_expansions(folded, p)
    ]
    lines.append(f"folded sites {sites!r}")
    closed = close(GraphBuilder.from_graph(folded), p, budget)
    lines.append(f"folded closure {_dump(closed.to_json())}")
    lines += _graph_lines("folded closure graph", closed.graph)

    for name, verdict in (
        ("eq", decide_equal(u, v, p, budget)),
        ("leq", decide_natural_leq(u, v, p, budget)),
        ("idem", is_idempotent(x, p, budget)),
    ):
        lines.append(f"{name} {_dump(verdict.to_json())}")

    if case % 5 == 0:
        lines += _cli_lines(rng, letters, p, words, budget)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=1000)
    args = parser.parse_args(argv)
    for case in range(args.cases):
        for line in case_lines(args.seed, case):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
