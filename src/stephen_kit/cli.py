"""Command-line front end over presentation files.

Commands: check, graph, eq, leq, idem, count-r.  Exit codes encode the
verdict so batch experiments need no output parsing: 0 yes/closed/ok,
1 no, 2 parse, validation or internal error, 3 unknown/budget-exceeded.

One table, COMMANDS, gives each command's words, flags, help and
handler: parse_args reads argv by it, print_help prints it for --help,
and main calls the handler.  The budgeted commands (graph, eq, leq,
idem) import the engine and the decisions in their handlers, so check
and count-r load neither.
"""

from __future__ import annotations

import sys
from functools import partial

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

EXIT_OK, EXIT_NO, EXIT_ERROR, EXIT_UNKNOWN = 0, 1, 2, 3

_ANSWER_EXIT = {"yes": EXIT_OK, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        import json  # only here: most commands write no JSON and skip its import

        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# Each handler writes its output files and returns the exit code and the
# result line, which main prints only once every file is written.


def cmd_check(opts: dict, p: Presentation) -> tuple[int, str]:
    adian = is_adian(p)
    line = f"adian: {'yes' if adian else 'no'}"
    payload: dict = {"adian": adian, "case": None, "finiteness": None}
    if adian and len(p.relations) == 1:
        case = payload["case"] = overlap_profile(*p.relations[0]).case_label.value
        cert = classify_finiteness(p)
        basis = None if cert.basis is CertificateBasis.NONE else cert.basis.value
        payload["finiteness"] = {"verdict": cert.verdict.value, "basis": basis}
        detail = f" ({basis.replace('-', ' ')})" if basis else ""
        line += f"; case: {case}; finiteness: {cert.verdict.value}{detail}"
    _write_json(opts.get("--json"), payload)
    return EXIT_OK, line


def cmd_graph(opts: dict, p: Presentation, w: Word) -> tuple[int, str]:
    from .engine import Budget, Status, schutzenberger_automaton

    result = schutzenberger_automaton(w, p, Budget(opts["--max-rounds"], opts["--max-vertices"]))
    g = result.graph
    if opts.get("--dot"):
        with open(opts["--dot"], "w", encoding="utf-8") as f:
            f.write(g.to_dot())
    if opts.get("--json"):
        _write_json(opts.get("--json"), {**result.to_json(), "graph": g.to_json()})
    line = (
        f"{result.status.value}; rounds={result.rounds}; "
        f"vertices={result.vertex_history[-1]}; edges={len(g.edges)}"
    )
    return (EXIT_OK if result.status is Status.CLOSED else EXIT_UNKNOWN), line


def cmd_verdict(decide: str, opts: dict, p: Presentation, *words: Word) -> tuple[int, str]:
    from . import decision
    from .engine import Budget

    budget = Budget(opts["--max-rounds"], opts["--max-vertices"])
    verdict = getattr(decision, decide)(*words, p, budget)
    _write_json(opts.get("--json"), verdict.to_json())
    return _ANSWER_EXIT[verdict.answer.value], verdict.answer.value


def cmd_count_r(opts: dict, p: Presentation, w: Word) -> tuple[int, str]:
    count = count_r_word_occurrences(w, p)
    _write_json(opts.get("--json"), {"word": str(w), "count": count})
    return EXIT_OK, str(count)


_BUDGET = {"--max-rounds": _MAX_ROUNDS, "--max-vertices": _MAX_VERTICES}  # int flags, defaults
_HELP = ("-h", "--help")

# name: (the words after the presentation file, the flags besides --json,
# help, handler); _BUDGET stands for its own keys.  A handler takes the
# flags by name, the presentation and the parsed words.
COMMANDS = {
    "check": ((), (), "Adian property, overlap case, finiteness certificate", cmd_check),
    "graph": (("word",), (*_BUDGET, "--dot"),
              "build the Schützenberger automaton of a word", cmd_graph),
    "eq": (("u", "v"), _BUDGET, "decide u = v", partial(cmd_verdict, "decide_equal")),
    "leq": (("lower", "candidate"), _BUDGET, "decide candidate >= lower in the natural order",
            partial(cmd_verdict, "decide_natural_leq")),
    "idem": (("word",), _BUDGET, "decide whether a word is idempotent",
             partial(cmd_verdict, "is_idempotent")),
    "count-r": (("word",), (), "count relation-side occurrences in a positive word", cmd_count_r),
}


def print_help() -> None:
    """Print every command with its arguments, flags and help, what the
    flags do and the exit codes, and exit 0."""
    print("usage: stephen-kit COMMAND PRESENTATION [WORD ...] [--FLAG VALUE ...]\n")
    for name, (words, flags, text, _) in COMMANDS.items():
        usage = [name, "PRESENTATION", *map(str.upper, words)]
        usage += [f"[{f} {_BUDGET.get(f, 'PATH')}]" for f in (*flags, "--json")]
        print(f"  {' '.join(usage)}\n      {text}")
    print(
        "\n--max-rounds and --max-vertices bound each closure (defaults shown); --dot writes\n"
        "the automaton as DOT and --json the result as JSON.  A flag takes its value as\n"
        "--FLAG VALUE or --FLAG=VALUE, and -- ends the flags.  A word inverts a letter with\n"
        "a trailing ^.\n\nexit codes: 0 yes/closed/ok, 1 no, 2 parse, validation or internal\n"
        "error, 3 unknown/budget-exceeded"
    )
    raise SystemExit(0)


def parse_args(argv: list[str]):
    """The handler, the positional arguments (the presentation file, then
    the words) and the flags by name that argv gives, read by COMMANDS.
    A usage error raises ValueError with a message that names the
    command and the argument at fault; -h or --help, as the command or
    after it but before --, prints the help and exits 0."""
    if not argv:
        raise ValueError("stephen-kit: the following arguments are required: command")
    name, rest = argv[0], iter(argv[1:])
    if name not in COMMANDS:
        if name in _HELP:
            print_help()
        choices = "choose from " + ", ".join(map(repr, COMMANDS))
        raise ValueError(f"stephen-kit: argument command: invalid choice: {name!r} ({choices})")
    words, flags, _, run = COMMANDS[name]
    prog, flags, names = f"stephen-kit {name}", (*flags, "--json"), ("presentation", *words)
    args, extra, opts = [], [], dict(_BUDGET)
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if arg == "--":
            args += rest
        elif arg in _HELP:
            print_help()
        elif flag not in flags:
            (extra if arg.startswith("--") or len(args) == len(names) else args).append(arg)
        else:
            value = value if eq else next(rest, "--")
            if not eq and value.startswith("--"):
                raise ValueError(f"{prog}: argument {flag}: expected one argument")
            if flag in _BUDGET:
                try:
                    value = int(value)
                except ValueError:
                    raise ValueError(f"{prog}: argument {flag}: invalid int value: {value!r}")
            opts[flag] = value
    missing, extra = names[len(args) :], extra + args[len(names) :]
    if missing:
        raise ValueError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    if extra:
        raise ValueError(f"stephen-kit: unrecognized arguments: {' '.join(extra)}")
    return run, args, opts


def main(argv: list[str] | None = None) -> int:
    try:
        run, (path, *words), opts = parse_args(sys.argv[1:] if argv is None else argv)
        # utf-8-sig drops the byte-order mark some editors write first.
        with open(path, encoding="utf-8-sig") as f:
            p = parse_presentation(f.read())
        code, line = run(opts, p, *[parse_word(w, p.alphabet) for w in words])
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
