"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install()` replaces each traced hermsig function by a wrapper in
every namespace that binds it: the defining module, every module that did
`from .x import f`, the package re-exports, and any extra namespace given
(the benchmark's own modules). Methods are replaced on their class. Each
wrapper records one span per call: the call count, the wall time of the
span minus the time its traced children covered (self time), and the sizes
named in the layer table of design.json.

A target is found by its qualified name in whichever hermsig module defines
it, so moving a function between modules keeps it traced. A target that
no longer exists reports zero calls; it does not stop the run.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from functools import update_wrapper

# metric prefix -> qualified names of the functions whose spans it sums
TARGETS = {
    "polynomials.gcd": ("Polynomial.gcd",),
    "polynomials.rf_new": ("RationalFunction.__init__",),
    "realroots.isolate_real_roots": ("isolate_real_roots",),
    "realroots.sign_at": ("sign_at",),
    "realroots.refine": ("AlgebraicReal.refine",),
    "sper.sign_of": ("sign_of",),
    "stepfun.build": ("StepFunction.build",),
    "stepfun.merge_centers": ("merge_centers",),
    "stepfun.step_combine": ("step_combine",),
    "linalg.symmetric_diagonalize": ("symmetric_diagonalize",),
    "linalg.charpoly_rational": ("charpoly_rational",),
    "linalg.int_det": ("int_det",),
    "linalg.mat_mul": ("mat_mul",),
    "linalg.charpoly_rf": ("charpoly_rf",),
    "linalg.charpoly_berkowitz": ("charpoly_berkowitz",),
    "linalg.det": ("fraction_det", "field_det", "poly_det"),
    "quadform.total_signature": ("total_signature",),
    "quadform.signature_via_diag": ("signature_via_diag",),
    "quadform.form_new": ("QuadraticForm.__init__",),
    "quadform.tensor": ("QuadraticForm.tensor",),
    "quadform.mahe_indicator": ("mahe_indicator",),
    "constructible.level_to_constructible": ("level_to_constructible",),
    "constructible.indicator": ("constructible_indicator",),
    "azumaya.mult_matrix": (
        "AlgebraPresentation.left_mult_matrix",
        "AlgebraPresentation.right_mult_matrix",
    ),
    "azumaya.validate": ("AlgebraPresentation.validate",),
    "azumaya.classification_map": ("classification_map",),
    "hermitian.star": ("star",),
    "hermitian.star_total": ("star_total",),
    "hermitian.form_new": ("HermitianForm.__init__",),
    "hermitian.reference": ("find_reference_form",),
    "hermitian.verify": ("ReferenceForm.verify",),
    # counted only inside reference searches, for hermitian.reference
    "hermitian.total_abs_signature": ("total_abs_signature",),
    "documents.load": ("load_algebra", "load_hermitian", "load_quadratic"),
    "documents.format": ("format_algebra", "format_hermitian", "format_quadratic"),
    "svgplot.render": ("render_step_svg",),
    "cli.run": ("run",),
}

UNITS = {
    "calls": "count",
    "self_s": "s",
    "bytes": "bytes",
    "useful_ratio": "ratio",
}


def _max(key):
    def record(stat, value):
        stat[key] = max(stat.get(key, 0), value)

    return record


def _add(key):
    def record(stat, value):
        stat[key] = stat.get(key, 0) + value

    return record


def _sizes(prefix: str):
    """A recorder of the sizes one call contributes, or None."""
    rmax, radd = _max, _add
    if prefix == "realroots.isolate_real_roots":
        roots, deg = radd("roots"), rmax("max_degree")
        return lambda st, args, res: (roots(st, len(res)), deg(st, args[0].degree))
    if prefix == "stepfun.build":
        bp = radd("breakpoints")
        return lambda st, args, res: bp(st, len(res.breaks))
    if prefix == "stepfun.merge_centers":
        cm = rmax("centers_max")
        return lambda st, args, res: cm(st, len(res))
    if prefix in ("linalg.symmetric_diagonalize", "linalg.charpoly_rational"):
        dm = rmax("dim_max")
        return lambda st, args, res: dm(st, len(args[0]))
    if prefix == "quadform.total_signature":
        ds = radd("dim_sum")
        return lambda st, args, res: ds(st, args[0].dim)
    if prefix == "quadform.tensor":
        om = rmax("out_dim_max")
        return lambda st, args, res: om(st, res.dim)
    if prefix == "hermitian.star":
        gm, ge = rmax("gram_dim_max"), radd("gram_entries")
        return lambda st, args, res: (gm(st, res.dim), ge(st, res.dim * res.dim))
    if prefix == "hermitian.reference":
        pc = radd("pieces")
        return lambda st, args, res: pc(st, len(res.form.parts()))
    if prefix == "documents.load":
        by = radd("bytes")
        return lambda st, args, res: by(st, len(args[0].encode()))
    if prefix in ("documents.format", "svgplot.render"):
        by = radd("bytes")
        return lambda st, args, res: by(st, len(res.encode()))
    return None


def _hermsig_modules():
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hermsig" or name.startswith("hermsig."))
    }


def find_originals(qualname: str):
    """(module name, holder, attribute, function) for each definition."""
    head, _, attr = qualname.rpartition(".")
    found = []
    for modname, mod in _hermsig_modules().items():
        if head:
            holder = vars(mod).get(head)
            if not isinstance(holder, type) or holder.__module__ != modname:
                continue
            raw = vars(holder).get(attr)
        else:
            holder = mod
            raw = vars(mod).get(attr)
        fn = getattr(raw, "__func__", raw)
        if callable(fn) and getattr(fn, "__module__", None) == modname:
            found.append((modname, holder, attr, raw))
    return found


class Tracer:
    """Spans and counters for the functions in TARGETS."""

    def __init__(self):
        self.stats = {prefix: {"calls": 0, "self_s": 0.0} for prefix in TARGETS}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        # prefix -> the original functions replaced for it
        self.originals: dict[str, list] = {prefix: [] for prefix in TARGETS}
        self.search_depth = 0
        self.search = {"candidates_tried": 0, "candidates_evaluated": 0}
        self.recording = True

    # -- installation -------------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        modules = list(_hermsig_modules().values()) + list(extra_namespaces)
        for prefix, qualnames in TARGETS.items():
            for qualname in qualnames:
                for modname, holder, attr, raw in find_originals(qualname):
                    fn = getattr(raw, "__func__", raw)
                    self.originals[prefix].append(fn)
                    if holder is not sys.modules[modname]:
                        # a method: one patch on its class serves every caller
                        wrapped = self._wrap(prefix, fn, modname)
                        if isinstance(raw, classmethod):
                            wrapped = classmethod(wrapped)
                        self._patch(holder, attr, wrapped)
                        continue
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is fn:
                                self._patch(mod, name, self._wrap(prefix, fn, mod.__name__))

    def _patch(self, holder, name: str, value) -> None:
        self._patches.append((holder, name, vars(holder)[name]))
        setattr(holder, name, value)

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (checks, untimed input draws)."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._patches):
            setattr(holder, name, value)
        self._patches.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, prefix: str, fn, namespace: str):
        stat = self.stats[prefix]
        sizes = _sizes(prefix)
        stack = self._stack
        clock = time.perf_counter
        enter = self._search_hook(prefix, namespace)
        is_search = prefix == "hermitian.reference"

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if enter is not None:
                enter()
            if is_search:
                self.search_depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += span
                stat["calls"] += 1
                stat["self_s"] += span - children
                if is_search:
                    self.search_depth -= 1
            if sizes is not None:
                sizes(stat, args, result)
            return result

        return update_wrapper(wrapper, fn)

    def _search_hook(self, prefix: str, namespace: str):
        # candidates are tried with a determinant and evaluated with an
        # absolute signature, both called from the hermitian module
        if namespace != "hermsig.hermitian":
            return None
        if prefix == "linalg.det":
            key = "candidates_tried"
        elif prefix == "hermitian.total_abs_signature":
            key = "candidates_evaluated"
        else:
            return None
        search = self.search

        def enter():
            if self.search_depth:
                search[key] += 1

        return enter

    # -- results ------------------------------------------------------------

    def metrics(self, layers) -> dict:
        """{name: {"value", "unit"}} for every (prefix, stats) layer row."""
        out = {}
        for row in layers:
            prefix = row["prefix"]
            stat = dict(self.stats[prefix])
            if prefix == "hermitian.reference":
                stat.update(self.search)
                tried = stat["candidates_tried"]
                stat["useful_ratio"] = stat.get("pieces", 0) / tried if tried else 0.0
            for key in row["stats"]:
                value = stat.get(key, 0)
                out[f"{prefix}.{key}"] = {"value": value, "unit": UNITS.get(key, "count")}
        return out
