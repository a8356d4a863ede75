"""Line counts of the package's modules, the measure simplicity changes report.

For each module of the package and for the total, prints its lines and
its code lines: the lines that hold a token other than a comment, outside
docstrings.  Blank lines, comment lines and docstrings are not code; a
string that is not a docstring is.  Beside them it prints the module's
optional parameters: the parameters of its functions, methods and
lambdas that have a default, keyword-only ones included, the count of
options a simplicity change also reports.  Under that table it prints the
package's ten largest top-level functions and class methods by code
lines, nested functions counted in the function that holds them.  Run
from the repository root, or point it at another checkout's package
directory:

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


if __name__ == "__main__":
    main(sys.argv[1:])
