"""Every function, class and method in the package is used by the package itself.

The same scan as ``test_dead_names``, narrowed to callables and to the
lines of ``src/``: a helper that only tests or the benchmark read is
product code that no product path runs. The definition line does not
count, and neither do the re-exports in ``src/routecheck/__init__.py``.
``TEST_ONLY`` names the few kept on purpose, each with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "routecheck"

TEST_ONLY = {
    "schedule_polls": "the reference poll schedule that the protocol tests check the controller against",
    "traversal_oracle": "the reference walk that the geo answers are checked against",
    "last_seq": "tests build the next in-sequence switch event with it",
    "field_pattern": "the hook for header-restricted queries, ROADMAP item 6",
}


def callables():
    """(path, line number, name) of every module-level function and class, and every non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield path, item.lineno, item.name


def test_every_callable_is_used_by_the_package():
    defs = list(callables())
    assert len(defs) > 150
    words: dict[str, set[tuple[Path, int]]] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        for lineno, text in enumerate(path.read_text().splitlines(), 1):
            for word in set(re.findall(r"\w+", text)):
                words.setdefault(word, set()).add((path, lineno))
    unused = sorted(
        name for path, lineno, name in defs if not words.get(name, set()) - {(path, lineno)}
    )
    assert unused == sorted(TEST_ONLY)
