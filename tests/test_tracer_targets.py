"""The benchmark's tracer still finds every function it traces.

`perfbench/tracer.py` wraps hermsig functions by qualified name, and a
renamed or deleted function would otherwise show only as a layer with zero
calls in the slow `perfbench/check_trace.py`. The tracer is compiled from
its source and executed in a fresh namespace, so nothing under `perfbench/`
is imported or written.
"""

import importlib
import pkgutil
import types
from pathlib import Path

import hermsig

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the module-level bindings that check_trace.py requires to be wrapped
CHECKED_BINDINGS = (
    "hermitian.mat_mul",
    "quadform.symmetric_diagonalize",
    "azumaya.total_signature",
)


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
    for where in CHECKED_BINDINGS:
        mod, attr = where.split(".")
        bound = getattr(importlib.import_module(f"hermsig.{mod}"), attr, None)
        assert bound in [fn for *_, fn in tracer.find_originals(attr)], where
