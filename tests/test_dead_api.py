"""Every function, method and slot of the package is used by another part of it."""

import ast
from pathlib import Path

import hermsig

# Entry points that only callers outside the package use, one reason each.
ALLOWED = {
    "documents.format_algebra": "document round trip, the inverse of load_algebra",
    "stepfun.is_harrison_clopen": "acceptance check 04: both nil level sets are clopen",
    "hermitian.HermitianForm.multiple": "acceptance check 07: the probe 2 * unit form",
    "hermitian.ReferenceForm.is_certified": "public state of a reference's certificate",
    "realroots.AlgebraicReal.from_rational": "public constructor of a rational point",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub


def _trees() -> "dict[str, ast.Module]":
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(hermsig.__file__).parent.glob("*.py")
        if path.stem != "__init__"  # re-exports are not uses
    }


def _slots(tree: ast.Module):
    """(qualified name, slot) of each name in a class's `__slots__` tuple."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (
                    isinstance(sub, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in sub.targets)
                ):
                    for elt in ast.literal_eval(sub.value):
                        yield f"{node.name}.{elt}", elt


def test_no_dead_api():
    trees = _trees()
    users: dict[str, set] = {}  # name -> the definitions (None: module level) using it
    for mod, tree in trees.items():
        owner = {id(n): (mod, qual) for qual, d in _definitions(tree) for n in ast.walk(d)}
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                name = n.id if isinstance(n, ast.Name) else n.attr
                users.setdefault(name, set()).add(owner.get(id(n)))
    unused = sorted(
        f"{mod}.{qual}"
        for mod, tree in trees.items()
        for qual, _node in _definitions(tree)
        if not users.get(qual.rsplit(".", 1)[-1], set()) - {(mod, qual)}
    )
    # exact match, so an entry that gains a caller inside the package is dropped
    assert unused == sorted(ALLOWED)


def test_no_unread_slot():
    trees = _trees()
    read = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = sorted(
        f"{mod}.{qual}"
        for mod, tree in trees.items()
        for qual, slot in _slots(tree)
        if slot not in read
    )
    assert unread == []
