"""Every name defined in the package is used somewhere besides its definition.

Collects each module-level function, class and constant, and each
non-dunder method, of ``src/routecheck/*.py`` (the package ``__init__``
aside) and looks for the name as a whole word in the Python files of
``src/``, ``tests/`` and ``bench/``. The definition line itself does not
count, and neither do the re-exports in ``src/routecheck/__init__.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "routecheck"


def definitions():
    """(path, line number, name) of every definition the check covers."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.lineno, node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield path, node.lineno, target.id
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield path, item.lineno, item.name


def searched_lines():
    """(path, line number, text) of every line that may use a name."""
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            for lineno, text in enumerate(path.read_text().splitlines(), 1):
                yield path, lineno, text


def test_every_defined_name_is_used():
    defs = list(definitions())
    assert len(defs) > 200
    words: dict[str, set[tuple[Path, int]]] = {}
    for path, lineno, text in searched_lines():
        for word in set(re.findall(r"\w+", text)):
            words.setdefault(word, set()).add((path, lineno))
    unused = [
        f"{path.relative_to(ROOT)}:{lineno} {name}"
        for path, lineno, name in defs
        if not words.get(name, set()) - {(path, lineno)}
    ]
    assert unused == []
