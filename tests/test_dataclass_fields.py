"""Every field of every record class in the package is read by the package itself.

A record class is a dataclass or a ``NamedTuple`` subclass.

The scan works like ``test_product_names``: it reads the code of
``src/``, and a field counts as read only where some expression reads it
as an attribute (``x.name``). Setting a field, naming it in a
constructor call or in a docstring is no use. A field that nothing in
``src/`` reads is state the product carries and never looks at.
``UNREAD`` names the few kept on purpose, each with its reason.
"""

import ast

from test_product_names import PACKAGE, reads

# Both were read by ``expand`` until a join and a divert kept the flowmods
# built when their line is read; only ``bench/run.py`` reads them now, to
# name what a planted attack must expose. Drop each entry, and its field,
# once the benchmark stops reading it.
UNREAD: dict[str, str] = {
    "JoinSpec.hidden": "only the benchmark reads it: the hidden access point a planted join must expose",
    "DivertSpec.via": "only the benchmark reads it: the region a planted divert must add",
}


def is_record(node: ast.ClassDef) -> bool:
    """A ``@dataclass`` class or a ``class X(NamedTuple)``."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def dataclass_fields():
    """``Class.field`` of every annotated field of every record class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and is_record(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{node.name}.{item.target.id}"


def test_every_dataclass_field_is_read_by_the_package():
    fields = list(dataclass_fields())
    assert len(fields) > 100
    _, attributes = reads()
    unread = sorted(f for f in fields if f.split(".", 1)[1] not in attributes)
    assert unread == sorted(UNREAD)


def test_the_scan_covers_the_named_tuple_records():
    classes = {f.split(".", 1)[0] for f in dataclass_fields()}
    assert {"Directive", "SwitchEvent", "Packet", "Delivery", "TraceHop"} <= classes
