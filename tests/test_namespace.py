"""The package namespace holds exactly what the commands, the benchmark
and the README example use.

Everything else stays importable from its module (stephen_kit.engine,
stephen_kit.word_graph, stephen_kit.presentation).
"""

import ast
import contextlib
import io
import re
from pathlib import Path

import stephen_kit

ROOT = Path(__file__).resolve().parent.parent

NAMES = [
    "Answer",
    "BirootedGraph",
    "Budget",
    "CertificateBasis",
    "ClosureResult",
    "FinitenessCertificate",
    "FinitenessVerdict",
    "OverlapCase",
    "OverlapProfile",
    "Presentation",
    "PresentationError",
    "Status",
    "Verdict",
    "Word",
    "classify_finiteness",
    "count_r_word_occurrences",
    "decide_equal",
    "decide_natural_leq",
    "is_adian",
    "is_idempotent",
    "overlap_profile",
    "parse_presentation",
    "parse_word",
    "schutzenberger_automaton",
]


def readme_example() -> str:
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return code


def test_namespace_is_the_listed_names():
    assert stephen_kit.__all__ == NAMES
    assert all(hasattr(stephen_kit, name) for name in NAMES)


def test_benchmark_names_are_exported():
    used = set()
    for path in (ROOT / "bench").glob("*.py"):
        used |= set(re.findall(r"\bsk\.(\w+)", path.read_text()))
    assert used and used <= set(NAMES)


def test_readme_example_imports_exported_names_and_runs():
    code = readme_example()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "stephen_kit"
        for alias in node.names
    }
    assert imported and imported <= set(NAMES)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().split() == ["Answer.YES"]
