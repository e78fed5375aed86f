"""The benchmark's tracer still finds every function it traces.

`perfbench/tracer.py` wraps hermsig functions by qualified name, and a
renamed or deleted function would otherwise show only as a layer with zero
calls in the slow `perfbench/check_trace.py`. The tracer is compiled from
its source and executed in a fresh namespace, and the bindings that
`check_trace.py` requires to be wrapped are read from its syntax tree, so
nothing under `perfbench/` is imported or written.
"""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import hermsig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def checked_bindings():
    """The `module.name` strings of the loop `for where in (...)` in
    check_trace.py: the module-level bindings it requires to be wrapped."""
    tree = ast.parse((PERFBENCH / "check_trace.py").read_text(encoding="utf-8"))
    loops = [
        node.iter
        for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and node.target.id == "where"
        and isinstance(node.iter, ast.Tuple)
    ]
    assert len(loops) == 1
    return [ast.literal_eval(elt) for elt in loops[0].elts]


def load_tracer():
    for info in pkgutil.iter_modules(hermsig.__path__):
        importlib.import_module(f"hermsig.{info.name}")
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(tracer))
    return tracer


def test_every_target_has_a_definition():
    tracer = load_tracer()
    names = [name for targets in tracer.TARGETS.values() for name in targets]
    missing = [name for name in names if not tracer.find_originals(name)]
    assert missing == []


def test_checked_bindings_are_traced_functions():
    tracer = load_tracer()
    bindings = checked_bindings()
    assert bindings and all(where.count(".") == 1 for where in bindings)
    for where in bindings:
        mod, attr = where.split(".")
        bound = getattr(importlib.import_module(f"hermsig.{mod}"), attr, None)
        assert bound in [fn for *_, fn in tracer.find_originals(attr)], where
