"""Every function, class and method in the package is used by the package itself,
and the package reads no environment variable.

The scan reads the code of ``src/``, not its words: a method counts as
used only where it is read as an attribute (``x.name``), a classmethod
only where it is read through its own class (``Ternary.parse``) or as
``cls.name`` inside that class, and a module-level function or class
only where it is read by name, imported, or read as an attribute of its
module (``verify.answer``). A name in a docstring or comment is no use,
and neither are the re-exports in ``src/routecheck/__init__.py``. A
helper that only tests or the benchmark read is product code that no
product path runs. ``TEST_ONLY`` names the few kept on purpose, each
with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "routecheck"

TEST_ONLY = {
    "schedule_polls": "the reference poll schedule that the protocol tests check the controller against",
    "last_seq": "tests build the next in-sequence switch event with it",
    "field_pattern": "the hook for header-restricted queries, ROADMAP item 6",
    "of": "HeaderSpace.of builds a space from pattern text, the algebra and oracle tests' shorthand",
    "denote": "the set of concrete headers a term stands for, the ground truth of the algebra-law checks",
    "difference": "bench/spans.py wraps HeaderSpace.difference by name, and the algebra-law tests check it; "
    "drop it once ROADMAP item 1 unpins the benchmark's names",
    "union": "bench/spans.py wraps HeaderSpace.union by name, and the algebra-law tests check it; "
    "drop it once ROADMAP item 1 unpins the benchmark's names",
    "raw": "VerifyKey.raw lets the key tests compare provisioned keys byte for byte",
    "forward": "Network.forward predicts a packet's traces without side effects, for the simulator tests",
    "name": "Link.name gives the confidentiality test the link identifiers no report may carry",
}


def callables():
    """(path, line number, name, owner) of every module-level function and
    class, and every non-dunder method. The owner is None for a module-level
    name, "" for a method, and the class name for a classmethod."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.lineno, node.name, None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        decorators = [d.id for d in item.decorator_list if isinstance(d, ast.Name)]
                        yield path, item.lineno, item.name, node.name if "classmethod" in decorators else ""


def reads():
    """(names read or imported, attribute names read) in the code of ``src/``."""
    names: set[str] = set()
    attributes: set[str] = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names, attributes


def class_reads():
    """(class, name) of every attribute read through a class by its name
    (``Ternary.parse``, ``hspace.Ternary.parse``), or as ``cls.name`` inside
    the class, in the code of ``src/``."""
    pairs: set[tuple[str, str]] = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                pairs.update(
                    (node.name, sub.attr) for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id == "cls"
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value
                if isinstance(owner, ast.Name):
                    pairs.add((owner.id, node.attr))
                elif isinstance(owner, ast.Attribute):
                    pairs.add((owner.attr, node.attr))
    return pairs


def used(name, owner, names, attributes, through) -> bool:
    if owner is None:
        return name in names or name in attributes
    if owner:
        return (owner, name) in through
    return name in attributes


def test_every_callable_is_used_by_the_package():
    defs = list(callables())
    assert len(defs) > 150
    names, attributes = reads()
    through = class_reads()
    unused = sorted(name for _, _, name, owner in defs if not used(name, owner, names, attributes, through))
    assert unused == sorted(TEST_ONLY)


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_src_reads_no_environment_variable():
    """A run depends on its files and options alone: no name, attribute or
    import of ``src/`` reaches the process environment, so no hidden knob
    can change an artifact."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno} {n}" for n in names if n in ENVIRONMENT]
    assert found == []
