"""The package namespace holds exactly what the commands, the benchmark
and the README example use.

Everything else stays importable from its module (stephen_kit.engine,
stephen_kit.word_graph, stephen_kit.presentation).  Each name loads its
module on first use, which the probe below checks in a fresh interpreter.
"""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# Run under -S, as test_cli_import_loads_no_test_code runs its probe, so
# that no .pth file loads modules first.  sys.modules is read before the
# probe imports json itself.
LAZY_PROBE = """
import sys
def loaded():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'stephen_kit')
import stephen_kit
listed = dir(stephen_kit)
loaded_by_dir = loaded()
p = stephen_kit.parse_presentation('X: a b\\nR: aba = b\\n')
stephen_kit.parse_word('ab', p.alphabet)
stephen_kit.is_adian(p)
stephen_kit.classify_finiteness(p)
loaded_by_parsing = loaded()
heavy = [m for m in ('dataclasses', 'inspect', 'json', 'typing', 'pathlib') if m in sys.modules]
engine = stephen_kit.engine.__name__
try:
    stephen_kit.no_such_name
    unknown = None
except AttributeError as e:
    unknown = str(e)
star = {}
exec('from stephen_kit import *', star)
star.pop('__builtins__')
not_home = [
    n for n in stephen_kit.__all__
    if getattr(sys.modules[getattr(stephen_kit, n).__module__], n) is not getattr(stephen_kit, n)
    or star[n] is not getattr(stephen_kit, n)
]
homes = sorted({getattr(stephen_kit, n).__module__ for n in stephen_kit.__all__})
import json
print(json.dumps(dict(
    listed=listed, loaded_by_dir=loaded_by_dir, loaded_by_parsing=loaded_by_parsing,
    heavy=heavy, engine=engine, unknown=unknown, star=sorted(star),
    not_home=not_home, homes=homes,
)))
"""


@pytest.fixture(scope="module")
def lazy():
    out = subprocess.run(
        [sys.executable, "-S", "-c", LAZY_PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    return json.loads(out)


def test_parsing_and_classifying_load_only_presentation(lazy):
    assert lazy["loaded_by_parsing"] == ["stephen_kit", "stephen_kit.presentation"]
    assert lazy["heavy"] == []


def test_dir_lists_every_name_before_any_is_loaded(lazy):
    assert lazy["loaded_by_dir"] == ["stephen_kit"]
    assert set(NAMES) <= set(lazy["listed"])


def test_every_name_is_its_home_module_object(lazy):
    assert lazy["not_home"] == []
    assert lazy["homes"] == [
        "stephen_kit.decision",
        "stephen_kit.engine",
        "stephen_kit.presentation",
        "stephen_kit.word_graph",
    ]


def test_submodule_resolves_after_a_bare_import(lazy):
    assert lazy["engine"] == "stephen_kit.engine"


def test_unknown_name_raises_attribute_error(lazy):
    assert lazy["unknown"] == "module 'stephen_kit' has no attribute 'no_such_name'"


def test_star_import_binds_every_name(lazy):
    assert lazy["star"] == NAMES
