"""Every import in ``src/routecheck`` sits at the top level of its module,
and the package root holds only its docstring.

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


def test_package_root_is_a_lone_docstring():
    """Names are imported from their modules; the package root exports
    nothing, so a second way in to a name cannot grow back unseen."""
    module = ast.parse((PACKAGE / "__init__.py").read_text())
    assert len(module.body) == 1 and ast.get_docstring(module) is not None
