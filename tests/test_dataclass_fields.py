"""Every field of every dataclass in the package is read by the package itself.

The scan works like ``test_product_names``: it reads the code of
``src/``, and a field counts as read only where some expression reads it
as an attribute (``x.name``). Setting a field, naming it in a
constructor call or in a docstring is no use. A field that nothing in
``src/`` reads is state the product carries and never looks at.
``UNREAD`` names the few kept on purpose, each with its reason.
"""

import ast

from test_product_names import PACKAGE, reads

UNREAD: dict[str, str] = {}


def is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def dataclass_fields():
    """``Class.field`` of every annotated field of every dataclass in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{node.name}.{item.target.id}"


def test_every_dataclass_field_is_read_by_the_package():
    fields = list(dataclass_fields())
    assert len(fields) > 100
    _, attributes = reads()
    unread = sorted(f for f in fields if f.split(".", 1)[1] not in attributes)
    assert unread == sorted(UNREAD)
