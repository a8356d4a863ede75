import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stephen_kit import BirootedGraph, engine
from stephen_kit.cli import main


@pytest.fixture
def pres(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def comm(pres):
    return pres("comm.pres", "X: a b\nR: ab = ba\n")


@pytest.fixture
def sub(pres):
    return pres("sub.pres", "X: a b\nR: aba = b\n")


def test_check_commutative(comm, capsys):
    assert main(["check", comm]) == 0
    assert capsys.readouterr().out == "adian: yes; case: Case4; finiteness: unknown\n"


def test_check_reads_past_a_byte_order_mark(comm, tmp_path, capsys):
    bom = tmp_path / "bom.pres"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "comm.pres").read_bytes())
    assert main(["check", comm]) == 0
    plain = capsys.readouterr()
    assert main(["check", str(bom)]) == 0
    assert capsys.readouterr() == plain


def test_check_subword(sub, capsys):
    assert main(["check", sub]) == 0
    out = capsys.readouterr().out
    assert out == "adian: yes; case: Subword; finiteness: certified-infinite (subword argument)\n"


def test_check_not_adian(pres, capsys):
    path = pres("loop.pres", "X: a\nR: aa = a\n")
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == "adian: no\n"


def test_check_case1_basis(pres, capsys):
    path = pres("case1.pres", "X: a b c\nR: aba = c\n")
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert out == "adian: yes; case: Case1; finiteness: certified-finite (proposition 1)\n"


def test_check_json(comm, tmp_path, capsys):
    out_path = tmp_path / "check.json"
    assert main(["check", comm, "--json", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload == {
        "adian": True,
        "case": "Case4",
        "finiteness": {"verdict": "unknown", "basis": None},
    }


def test_check_multi_relation_reports_adian_only(pres, capsys):
    path = pres("multi.pres", "X: a b c d\nR: ab = cd\nR: ac = bd\n")
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == "adian: yes\n"


def test_graph_closed(comm, capsys):
    assert main(["graph", comm, "ab"]) == 0
    assert capsys.readouterr().out == "closed; rounds=1; vertices=4; edges=4\n"
    # The round that closes the automaton takes it past the vertex limit.
    assert main(["graph", comm, "ab", "--max-vertices", "3"]) == 0
    assert capsys.readouterr().out == "closed; rounds=1; vertices=4; edges=4\n"


def test_graph_no_occurrence(comm, capsys):
    assert main(["graph", comm, "aa"]) == 0
    assert capsys.readouterr().out == "closed; rounds=0; vertices=3; edges=2\n"


def test_graph_budget_exceeded(sub, capsys):
    assert main(["graph", sub, "ab", "--max-rounds", "5"]) == 3
    assert capsys.readouterr().out.startswith("budget-exceeded;")


def test_graph_dot_and_json_outputs(comm, tmp_path, capsys):
    dot_path = tmp_path / "g.dot"
    json_path = tmp_path / "g.json"
    assert main(["graph", comm, "ab", "--dot", str(dot_path), "--json", str(json_path)]) == 0
    capsys.readouterr()
    dot = dot_path.read_text()
    assert dot.startswith("digraph birooted {")
    assert dot.count("->") == 4
    payload = json.loads(json_path.read_text())
    assert payload["status"] == "closed"
    assert payload["rounds"] == 1
    assert payload["fold_events"] == 0
    assert payload["vertex_history"] == [3, 4]
    graph = payload["graph"]
    assert set(graph) == {"alpha", "beta", "vertices", "edges"}
    assert graph["alpha"] == 0
    assert len(graph["vertices"]) == 4
    assert len(graph["edges"]) == 4


def test_graph_without_json_exports_no_graph(comm, monkeypatch, capsys):
    def forbidden(self):
        raise AssertionError("graph exported with no --json path")

    monkeypatch.setattr(BirootedGraph, "to_json", forbidden)
    assert main(["graph", comm, "ab"]) == 0
    assert capsys.readouterr().out == "closed; rounds=1; vertices=4; edges=4\n"


def test_graph_inverse_letters(comm, capsys):
    assert main(["graph", comm, "a b b^ a^ b a"]) == 0
    capsys.readouterr()
    assert main(["graph", comm, "abb^a^ba"]) == 0


def test_eq(comm, capsys):
    assert main(["eq", comm, "ab", "ba"]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["eq", comm, "a", "b"]) == 1
    assert capsys.readouterr().out == "no\n"


def test_eq_unknown_exit_code(sub, capsys):
    assert main(["eq", sub, "ab", "ba", "--max-rounds", "1"]) == 3
    assert capsys.readouterr().out == "unknown\n"


def test_leq(comm, capsys):
    assert main(["leq", comm, "ab", "a b b^ a^ b a"]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["leq", comm, "ab", "a"]) == 1
    capsys.readouterr()
    assert main(["leq", comm, "ab", "a", "--max-vertices", "3"]) == 1
    assert capsys.readouterr().out == "no\n"


def test_idem(comm, capsys):
    assert main(["idem", comm, "a a^"]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["idem", comm, "a"]) == 1
    capsys.readouterr()
    assert main(["idem", comm, ""]) == 0


def test_count_r(comm, capsys):
    assert main(["count-r", comm, "abab"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_verdict_json_roundtrip(comm, tmp_path, capsys):
    path = tmp_path / "verdict.json"
    assert main(["eq", comm, "aab", "aba", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["answer"] == "yes"
    assert payload["witness"]["u_in_v"] is True


def test_parse_error_exit_code(pres, capsys):
    path = pres("bad.pres", "X: a\nR: ab = ba\n")
    assert main(["check", path]) == 2
    assert "undeclared letter" in capsys.readouterr().err


def test_ambiguous_alphabet_exit_code(pres, capsys):
    path = pres("ambiguous.pres", "X: a b ab\nR: ab = ba\n")
    assert main(["graph", path, "ab"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: letter 'ab' is spelled by declared letters\n"


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.pres")]) == 2
    assert "error:" in capsys.readouterr().err


def test_word_outside_alphabet(comm, capsys):
    assert main(["graph", comm, "xyz"]) == 2
    assert "undeclared" in capsys.readouterr().err


def test_single_multichar_letter_word(pres, capsys):
    path = pres("x.pres", "X: x1 x2\nR: x1 = x2 x2\n")
    assert main(["eq", path, "x1", "x2 x2"]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["graph", path, "x1^"]) == 0
    assert capsys.readouterr().out == "closed; rounds=1; vertices=3; edges=3\n"


def test_max_rounds_flag(sub, capsys):
    assert main(["graph", sub, "ab", "--max-rounds", "2"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("budget-exceeded; rounds=2;")


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "{comm}", "ab", "--dot", "{missing}/g.dot"],
        ["eq", "{comm}", "ab", "ba", "--json", "{missing}/eq.json"],
        ["check", "{comm}", "--json", "{tmp}"],
    ],
    ids=["graph-dot-missing-dir", "eq-json-missing-dir", "check-json-is-dir"],
)
def test_output_file_error_prints_no_result(argv, comm, tmp_path, capsys):
    # Output files are written before the result line, so a failed write
    # leaves stdout empty.
    paths = {"comm": comm, "missing": tmp_path / "absent", "tmp": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("fault", [MemoryError("out of rows"), RuntimeError("broken")])
def test_internal_fault_exits_2_with_one_line(fault, comm, monkeypatch, capsys):
    # Exit 1 means no, so a fault inside a command must not exit 1 with a
    # traceback; it exits 2 with one error line and no result line.
    def failing(*args):
        raise fault

    monkeypatch.setattr(engine, "schutzenberger_automaton", failing)
    assert main(["graph", comm, "ab"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal: {type(fault).__name__}: {fault}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eq", "{comm}", "a"], "stephen-kit eq: the following arguments are required: v"),
        (
            ["graph", "{comm}", "ab", "--max-rounds", "two"],
            "stephen-kit graph: argument --max-rounds: invalid int value: 'two'",
        ),
        (["check", "{comm}", "--bogus"], "stephen-kit: unrecognized arguments: --bogus"),
        ([], "stephen-kit: the following arguments are required: command"),
        (
            ["bogus", "{comm}"],
            "stephen-kit: argument command: invalid choice: 'bogus' "
            "(choose from 'check', 'graph', 'eq', 'leq', 'idem', 'count-r')",
        ),
        (["check"], "stephen-kit check: the following arguments are required: presentation"),
        (
            ["graph", "{comm}", "ab", "--max-rounds"],
            "stephen-kit graph: argument --max-rounds: expected one argument",
        ),
        (["eq", "{comm}", "a", "b", "c"], "stephen-kit: unrecognized arguments: c"),
        (["check", "{comm}", "--dot", "x"], "stephen-kit: unrecognized arguments: --dot x"),
        (["graph", "{comm}", "ab", "--max-rounds", "-3"], "budget limits must be positive"),
        (["eq", "{comm}", "a", "b", "--max-rounds", "0"], "budget limits must be positive"),
        (
            ["eq", "{comm}", "ab", "ba", "--json="],
            "stephen-kit eq: argument --json: expected one argument",
        ),
        (
            ["eq", "{comm}", "ab", "ba", "--json", ""],
            "stephen-kit eq: argument --json: expected one argument",
        ),
        (
            ["graph", "{comm}", "ab", "--dot="],
            "stephen-kit graph: argument --dot: expected one argument",
        ),
    ],
    ids=[
        "missing-word",
        "non-int-max-rounds",
        "unknown-flag",
        "no-command",
        "unknown-command",
        "check-without-file",
        "flag-without-value",
        "extra-word",
        "flag-of-another-command",
        "negative-max-rounds",
        "zero-max-rounds",
        "empty-json-path",
        "empty-json-value",
        "empty-dot-path",
    ],
)
def test_usage_error_exits_2_with_one_line(argv, message, comm, capsys):
    # A usage error reads like every other error: one line, exit 2, no
    # usage block and no SystemExit.
    assert main([arg.format(comm=comm) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "{comm}", "ab", "--max-rounds=5"],
        ["graph", "{comm}", "--", "ab"],
        ["graph", "{comm}", "ab", "--max-rounds", " 7"],
    ],
    ids=["flag-equals-value", "double-dash", "int-with-space"],
)
def test_flag_and_word_spellings_accepted(argv, comm, capsys):
    assert main([arg.format(comm=comm) for arg in argv]) == 0
    assert capsys.readouterr().out == "closed; rounds=1; vertices=4; edges=4\n"


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "2 parse, validation or internal error" in " ".join(capsys.readouterr().out.split())


def test_readme_shows_the_one_help_text(comm, capsys):
    # --help prints one text for every command, the one the README shows.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    for argv in (["--help"], ["-h"], ["graph", comm, "ab", "-h"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert f"```\n{capsys.readouterr().out}```\n" in readme


def test_cli_import_loads_no_test_code():
    # sys.modules is read before the probe imports json itself.  No command
    # needs dataclasses, inspect, json, typing, pathlib or argparse and what
    # it loads (re, shutil, gettext, locale) on import, and each adds
    # milliseconds to every start.  -S keeps site, and any .pth
    # file it runs, from loading them first.
    probe = (
        "import sys, stephen_kit.cli\n"
        "heavy = [m for m in ('dataclasses', 'inspect', 'json', 'typing', 'pathlib',"
        " 'argparse', 're', 'shutil', 'gettext', 'locale') if m in sys.modules]\n"
        "modules = sorted(m for m in sys.modules if m.split('.')[0] == 'stephen_kit')\n"
        "missing = [n for n in stephen_kit.__all__ if not hasattr(stephen_kit, n)]\n"
        "import json\n"
        "print(json.dumps([modules, missing, heavy]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    modules, missing, heavy = json.loads(out)
    assert modules == ["stephen_kit", "stephen_kit.cli", "stephen_kit.presentation"]
    assert missing == []
    assert heavy == []


def test_check_and_count_r_load_no_engine(comm):
    # Only the budgeted commands import the engine and the decisions.
    probe = (
        "import sys\n"
        "from stephen_kit.cli import main\n"
        f"main(['check', {comm!r}]), main(['count-r', {comm!r}, 'ab'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'stephen_kit'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout.splitlines()
    assert out[:2] == ["adian: yes; case: Case4; finiteness: unknown", "1"]
    assert out[2] == str(["stephen_kit", "stephen_kit.cli", "stephen_kit.presentation"])


def test_main_reads_sys_argv(comm):
    # The console script calls main() with no argv, so main reads sys.argv.
    run = subprocess.run(
        [sys.executable, "-S", "-m", "stephen_kit.cli", "graph", comm, "ab", "--max-rounds=1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (run.returncode, run.stdout, run.stderr) == (
        0,
        "closed; rounds=1; vertices=4; edges=4\n",
        "",
    )
