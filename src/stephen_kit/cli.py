"""Command-line front end over presentation files.

Commands: check, graph, eq, leq, idem, count-r.  Exit codes encode the
verdict so batch experiments need no output parsing: 0 yes/closed/ok,
1 no, 2 parse, validation or internal error, 3 unknown/budget-exceeded.

The budgeted commands (graph, eq, leq, idem) import the engine and the
decisions in their handlers, so check and count-r load neither.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import _MAX_ROUNDS, _MAX_VERTICES
from .presentation import (
    CertificateBasis,
    Presentation,
    Word,
    count_r_word_occurrences,
    classify_finiteness,
    is_adian,
    overlap_profile,
    parse_presentation,
    parse_word,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3

_ANSWER_EXIT = {"yes": EXIT_OK, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        import json  # only here: most commands write no JSON and skip its import

        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _finiteness_text(cert) -> str:
    if cert.basis is CertificateBasis.NONE:
        return cert.verdict.value
    return f"{cert.verdict.value} ({cert.basis.value.replace('-', ' ')})"


# Each handler writes its output files and returns the exit code and the
# result line, which main prints only once every file is written.


def cmd_check(args, p: Presentation) -> tuple[int, str]:
    adian = is_adian(p)
    parts = [f"adian: {'yes' if adian else 'no'}"]
    payload: dict = {"adian": adian, "case": None, "finiteness": None}
    if adian and len(p.relations) == 1:
        u, v = p.relations[0]
        profile = overlap_profile(u, v)
        cert = classify_finiteness(p)
        parts.append(f"case: {profile.case_label.value}")
        parts.append(f"finiteness: {_finiteness_text(cert)}")
        payload["case"] = profile.case_label.value
        payload["finiteness"] = {
            "verdict": cert.verdict.value,
            "basis": None if cert.basis is CertificateBasis.NONE else cert.basis.value,
        }
    _write_json(args.json, payload)
    return EXIT_OK, "; ".join(parts)


def cmd_graph(args, p: Presentation, w: Word) -> tuple[int, str]:
    from .engine import Budget, Status, schutzenberger_automaton

    result = schutzenberger_automaton(w, p, Budget(args.max_rounds, args.max_vertices))
    g = result.graph
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(g.to_dot())
    if args.json:
        _write_json(args.json, {**result.to_json(), "graph": g.to_json()})
    line = (
        f"{result.status.value}; rounds={result.rounds}; "
        f"vertices={result.vertex_history[-1]}; edges={len(g.edges)}"
    )
    return (EXIT_OK if result.status is Status.CLOSED else EXIT_UNKNOWN), line


def cmd_verdict(decide: str, args, p: Presentation, *words: Word) -> tuple[int, str]:
    from . import decision
    from .engine import Budget

    verdict = getattr(decision, decide)(*words, p, Budget(args.max_rounds, args.max_vertices))
    _write_json(args.json, verdict.to_json())
    return _ANSWER_EXIT[verdict.answer.value], verdict.answer.value


def cmd_count_r(args, p: Presentation, w: Word) -> tuple[int, str]:
    count = count_r_word_occurrences(w, p)
    _write_json(args.json, {"word": str(w), "count": count})
    return EXIT_OK, str(count)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError, so main reports them
    on one line and returns EXIT_ERROR as it does every other error;
    --help still exits through SystemExit.  Subparsers take its class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stephen-kit",
        description="Schützenberger automata and word-problem decisions "
        "for inverse semigroup presentations.",
        epilog="exit codes: 0 yes/closed/ok, 1 no, 2 parse, validation or "
        "internal error, 3 unknown/budget-exceeded",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name, help, positionals with their help (the first is the presentation
    # file, the rest are words), budget flags, extra PATH flags, handler
    commands = (
        ("check", "Adian property, overlap case, finiteness certificate",
         {"presentation": "presentation file"}, False, {}, cmd_check),
        ("graph", "build the Schützenberger automaton of a word",
         {"presentation": None, "word": "query word; invert letters with a trailing ^"},
         True, {"--dot": "write the automaton as DOT"}, cmd_graph),
        ("eq", "decide u = v",
         {"presentation": None, "u": None, "v": None},
         True, {}, functools.partial(cmd_verdict, "decide_equal")),
        ("leq", "decide candidate >= lower in the natural order",
         {"presentation": None, "lower": None, "candidate": None},
         True, {}, functools.partial(cmd_verdict, "decide_natural_leq")),
        ("idem", "decide whether a word is idempotent",
         {"presentation": None, "word": None},
         True, {}, functools.partial(cmd_verdict, "is_idempotent")),
        ("count-r", "count relation-side occurrences in a positive word",
         {"presentation": None, "word": None}, False, {}, cmd_count_r),
    )
    for name, help_text, positionals, budgeted, extra, run in commands:
        sp = sub.add_parser(name, help=help_text)
        for arg, arg_help in positionals.items():
            sp.add_argument(arg, help=arg_help)
        if budgeted:
            sp.add_argument(
                "--max-rounds",
                type=int,
                default=_MAX_ROUNDS,
                help=f"closure round budget (default {_MAX_ROUNDS})",
            )
            sp.add_argument(
                "--max-vertices",
                type=int,
                default=_MAX_VERTICES,
                help=f"closure vertex budget (default {_MAX_VERTICES})",
            )
        for flag, flag_help in extra.items():
            sp.add_argument(flag, metavar="PATH", help=flag_help)
        sp.add_argument("--json", metavar="PATH")
        sp.set_defaults(run=run, words=tuple(positionals)[1:])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # utf-8-sig drops the byte-order mark some editors write first.
        with open(args.presentation, encoding="utf-8-sig") as f:
            p = parse_presentation(f.read())
        words = [parse_word(getattr(args, name), p.alphabet) for name in args.words]
        code, line = args.run(args, p, *words)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # an internal fault must not read as a verdict
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
