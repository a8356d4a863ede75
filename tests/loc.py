"""Line counts of the package's modules, the measure simplicity changes report.

For each module of the package and for the total, prints its lines and
its code lines: the lines that hold a token other than a comment, outside
docstrings.  Blank lines, comment lines and docstrings are not code; a
string that is not a docstring is.  Beside them it prints the module's
optional parameters: the parameters of its functions, methods and
lambdas that have a default, keyword-only ones included, the count of
options a simplicity change also reports.  Under that table it prints the
package's ten largest top-level functions and class methods by code
lines, nested functions counted in the function that holds them.  Last,
for each test module beside the package, it prints how many of its
test functions name a private engine or builder name (one of PRIVATE or
an attribute log), in their own body or in a top-level function of the
same module that they reach, how many test functions it has and its
lines.  Run from the repository root, or point it at another checkout's
package directory, whose tests it then reads:

    python tests/loc.py
    python tests/loc.py /path/to/other/checkout/src/stephen_kit
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stephen_kit"
PRIVATE = {
    "_compile",
    "_live",
    "_rows",
    "_pending",
    "_deduced",
    "_linked",
    "_removed",
    "_letters",
    "_order",
    "_edges",
    "_bfs",
    "_steps",
    "_known",
}
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def functions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of every top-level function and every method of a
    top-level class, a method named Class.method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append((f"{node.name}.{item.name}", item))
    return found


def optional_parameters(tree: ast.Module) -> int:
    """The parameters with a default of every function and lambda in tree."""
    return sum(
        len(node.args.defaults) + sum(default is not None for default in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )


def counts(path: Path) -> tuple[int, int, int, list[tuple[str, int]]]:
    """(lines, code lines, optional parameters, (function name, code
    lines) of each function) of one source file."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring_lines(tree)
    sizes = [
        (name, len(code.intersection(range(node.lineno, node.end_lineno + 1))))
        for name, node in functions(tree)
    ]
    return len(text.splitlines()), len(code), optional_parameters(tree), sizes


def names_private(node: ast.AST) -> bool:
    """Whether node reads a private name as a name or an attribute, an
    attribute log, or is a string equal to a private name, as a patch
    names its target."""
    return (
        isinstance(node, ast.Attribute) and (node.attr in PRIVATE or node.attr == "log")
        or isinstance(node, ast.Name) and node.id in PRIVATE
        or isinstance(node, ast.Constant) and node.value in PRIVATE
    )


def private_readers(path: Path) -> tuple[int, int, int]:
    """(test functions that name a private name, test functions, lines) of
    one test module.  A test names what its own body names and what every
    top-level function of the same module that it names, directly or
    through another such function, names."""
    text = path.read_text(encoding="utf-8")
    helpers = {
        node.name: node
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    tests = [node for name, node in helpers.items() if name.startswith("test_")]
    readers = 0
    for test in tests:
        seen, todo = {test.name}, [test]
        while todo:
            nodes = list(ast.walk(todo.pop()))
            if any(map(names_private, nodes)):
                readers += 1
                break
            for node in nodes:
                if isinstance(node, ast.Name) and node.id in helpers and node.id not in seen:
                    seen.add(node.id)
                    todo.append(helpers[node.id])
    return readers, len(tests), len(text.splitlines())


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else PACKAGE
    total_lines = total_code = total_options = 0
    largest = []
    print(f"{'module':<16} {'lines':>6} {'code':>6} {'options':>8}")
    for path in sorted(package.glob("*.py")):
        lines, code, options, sizes = counts(path)
        total_lines += lines
        total_code += code
        total_options += options
        largest += [(size, f"{path.stem}.{name}") for name, size in sizes]
        print(f"{path.name:<16} {lines:>6} {code:>6} {options:>8}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6} {total_options:>8}")
    print()
    print(f"{'largest functions':<40} {'code':>6}")
    for size, name in sorted(largest, key=lambda item: (-item[0], item[1]))[:10]:
        print(f"{name:<40} {size:>6}")
    print()
    print(f"{'tests naming private names':<32} {'private':>7} {'tests':>6} {'lines':>6}")
    for path in sorted((package.parent.parent / "tests").glob("test_*.py")):
        readers, tests, lines = private_readers(path)
        print(f"{path.name:<32} {readers:>7} {tests:>6} {lines:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
