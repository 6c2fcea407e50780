"""Every import in ``src/routecheck`` sits at the top level of its module.

An import inside a function hides a dependency from a reader of the
module's head, and has let one module reach into another's private names
unseen; an AST scan finds any that come back.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "routecheck"


def test_no_function_local_imports():
    local = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert local == []
