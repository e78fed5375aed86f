"""Command-line front end.

Subcommands load documents, run the classification and signature
machinery, and emit tables, TSV, JSON, and SVG plots.  Every run is
deterministic: the same seed and inputs produce byte-identical outputs.

Exit codes: 0 success, 2 validation failure or an output path that
cannot be written, 3 parse error, 4 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence, TextIO

from .azumaya import Classification, classification_map, classify_at, nil_set
from .constructible import HalfSpace, NotSet, parse_constructible
from .documents import (
    format_hermitian,
    format_quadratic,
    load_algebra,
    load_hermitian,
    load_quadratic,
    read_document,
    write_document,
)
from .errors import (
    BudgetError,
    HermsigError,
    InconsistencyError,
    ParseError,
    ValidationError,
)
from .hermitian import (
    HermitianForm,
    ReferenceForm,
    build_discontinuous_eta,
    eta_signature_at,
    find_reference_form,
    star,
    star_total,
    total_eta_signature,
)
from .polynomials import Polynomial
from .quadform import signature_at, total_signature
from .selftest import SUITES, run_suite
from .sper import Ring, ensure_admissible, parse_ordering
from .stepfun import StepFunction, continuity_failures
from .svgplot import write_plot

FORMATS = ("table", "tsv", "json-doc")


class RunConfig:
    """Everything one invocation needs, already typed and defaulted."""

    __slots__ = (
        "command",
        "algebra",
        "form",
        "form2",
        "eta",
        "out",
        "at",
        "total",
        "fmt",
        "plot",
        "budget",
        "seed",
        "set_expr",
        "suite",
    )

    def __init__(
        self,
        command: str,
        *,
        algebra: str | None = None,
        form: str | None = None,
        form2: str | None = None,
        eta: str | None = None,
        out: str | None = None,
        at: str | None = None,
        total: bool = False,
        fmt: str = "table",
        plot: str | None = None,
        budget: int = 40,
        seed: int = 0,
        set_expr: str | None = None,
        suite: str = "all",
    ):
        if fmt not in FORMATS:
            raise ValidationError(f"unknown output format {fmt!r}")
        self.command = command
        self.algebra = algebra
        self.form = form
        self.form2 = form2
        self.eta = eta
        self.out = out
        self.at = at
        self.total = total
        self.fmt = fmt
        self.plot = plot
        self.budget = budget
        self.seed = seed
        self.set_expr = set_expr
        self.suite = suite


# -- emission ----------------------------------------------------------


def _loc_str(kind: str, location: object) -> str:
    if kind == "interval":
        lo, hi = location
        left = "-inf" if lo is None else str(lo)
        right = "+inf" if hi is None else str(hi)
        return f"({left},{right})"
    if location is None:
        return {"minus-inf": "-inf", "plus-inf": "+inf", "rational-order": "Q"}.get(
            kind, ""
        )
    return str(location)

def _step_rows(f: StepFunction, render=str) -> list[tuple[str, str, str]]:
    return [
        (kind, _loc_str(kind, loc), render(value)) for kind, loc, value in f.cells()
    ]


def _emit_rows(
    rows: list[tuple[str, str, str]],
    header: tuple[str, str, str],
    fmt: str,
    out: TextIO,
) -> None:
    if fmt == "tsv":
        out.write("\t".join(header) + "\n")
        for row in rows:
            out.write("\t".join(row) + "\n")
        return
    if fmt == "json-doc":
        doc = [dict(zip(header, row)) for row in rows]
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(3)
    ]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _emit_step(f: StepFunction, cfg: RunConfig, out: TextIO, render=str) -> None:
    _emit_rows(_step_rows(f, render), ("cell-kind", "location", "value"), cfg.fmt, out)
    if cfg.plot:
        write_plot(f, cfg.plot)


def _emit_value(value: int, cfg: RunConfig, out: TextIO) -> None:
    if cfg.fmt == "json-doc":
        out.write(json.dumps({"value": value}) + "\n")
    else:
        out.write(f"{value}\n")


# -- document plumbing -------------------------------------------------


def _algebra(cfg: RunConfig):
    if cfg.algebra is None:
        raise ValidationError("this command needs --algebra")
    a = load_algebra(read_document(cfg.algebra))
    a.validate()
    return a


def _point(cfg: RunConfig, ring: Ring):
    point = parse_ordering(cfg.at)
    ensure_admissible(ring, point)
    return point


def _need(value: str | None, flag: str) -> str:
    if value is None:
        raise ValidationError(f"this command needs {flag}")
    return value


# -- subcommands -------------------------------------------------------


def _cmd_classify(cfg: RunConfig, out: TextIO) -> int:
    a = _algebra(cfg)
    if cfg.at is not None:
        c = classify_at(a, _point(cfg, a.ring))
        _emit_rows(
            [
                ("kind", "", c.kind),
                ("cell", "", c.cell_name),
                ("state", "", "nil" if c.nil else f"divisor {c.divisor}"),
                ("trace-signature", "", str(c.trace_signature)),
            ],
            ("field", "location", "value"),
            cfg.fmt,
            out,
        )
        return 0
    cmap = classification_map(a)
    _emit_step(cmap, cfg, out, render=lambda cell: str(Classification(a.kind, cell, 0)))
    out.write(f"Nil = {nil_set(a)}\n")
    return 0


def _cmd_signature(cfg: RunConfig, out: TextIO) -> int:
    q = load_quadratic(read_document(_need(cfg.form, "--form")))
    if cfg.at is not None:
        _emit_value(signature_at(q, _point(cfg, q.ring)), cfg, out)
        return 0
    if not cfg.total:
        raise ValidationError("choose one of --at or --total")
    _emit_step(total_signature(q), cfg, out)
    return 0


def _reference_from_document(path: str, algebra) -> ReferenceForm:
    """Certify a reference form loaded from a document.

    The self-pairing signature is recomputed here; the certificate check
    runs before any signature value is produced, so an unusable form is
    rejected with a nonzero exit.
    """
    eta = load_hermitian(read_document(path), algebra)
    ref = ReferenceForm(eta, star_total(eta, eta))
    ref.verify()
    return ref


def _cmd_hsign(cfg: RunConfig, out: TextIO) -> int:
    a = _algebra(cfg)
    h = load_hermitian(read_document(_need(cfg.form, "--form")), a)
    ref = _reference_from_document(_need(cfg.eta, "--eta"), a)
    if cfg.at is not None:
        _emit_value(eta_signature_at(h, ref, _point(cfg, a.ring)), cfg, out)
        return 0
    if not cfg.total:
        raise ValidationError("choose one of --at or --total")
    _emit_step(total_eta_signature(h, ref), cfg, out)
    return 0


def _cmd_reference(cfg: RunConfig, out: TextIO) -> int:
    a = _algebra(cfg)
    ref = find_reference_form(a, budget=cfg.budget, seed=cfg.seed)
    path = _need(cfg.out, "--out")
    write_document(path, format_hermitian(ref.form, algebra_name=a.label))
    out.write(f"reference rank {ref.form.rank}, constant {ref.constant}\n")
    out.write(f"written to {path}\n")
    return 0


def _cmd_star(cfg: RunConfig, out: TextIO) -> int:
    a = _algebra(cfg)
    h1 = load_hermitian(read_document(_need(cfg.form, "--form1")), a)
    h2 = load_hermitian(read_document(_need(cfg.form2, "--form2")), a)
    q = star(h1, h2)
    path = _need(cfg.out, "--out")
    write_document(path, format_quadratic(q))
    out.write(f"quadratic form of dimension {q.dim}\n")
    out.write(f"written to {path}\n")
    return 0


def _cmd_demo(cfg: RunConfig, out: TextIO) -> int:
    a = _algebra(cfg)
    if cfg.set_expr is not None:
        u = parse_constructible(cfg.set_expr)
    else:
        # the right half line including its boundary point
        u = NotSet(HalfSpace(-Polynomial.x()))
    one = HermitianForm.unit(a)
    ref = build_discontinuous_eta(one, u)
    t = total_eta_signature(one, ref)
    _emit_step(t, cfg, out)
    failures = continuity_failures(t)
    out.write(
        "continuity fails at: " + ", ".join(str(c) for c in failures) + "\n"
    )
    out.write(f"constant absolute signature: {ref.constant}\n")
    return 0


def _cmd_selftest(cfg: RunConfig, out: TextIO) -> int:
    checks = run_suite(cfg.suite, seed=cfg.seed)
    width = max(len(name) for name, _, _ in checks)
    failures = 0
    for name, ok, detail in checks:
        status = "pass" if ok else "FAIL"
        out.write(f"{name.ljust(width)}  {status}  {detail}\n")
        failures += 0 if ok else 1
    if failures:
        out.write(f"{failures} of {len(checks)} checks failed\n")
        return 2
    out.write(f"all {len(checks)} checks passed\n")
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "signature": _cmd_signature,
    "hsign": _cmd_hsign,
    "reference": _cmd_reference,
    "star": _cmd_star,
    "demo-discontinuity": _cmd_demo,
    "selftest": _cmd_selftest,
}


def run(cfg: RunConfig, out: TextIO | None = None) -> int:
    """Dispatch one configured invocation; exceptions map to exit codes."""
    if out is None:
        out = sys.stdout
    if cfg.command not in _COMMANDS:
        raise ValidationError(f"unknown command {cfg.command!r}")
    return _COMMANDS[cfg.command](cfg, out)


# -- argument parsing --------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermsig",
        description="Signatures of hermitian forms over algebras with involution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        # options left out stay off the namespace, so RunConfig's defaults apply
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    p = command("classify", "classify an algebra over its spectrum")
    p.add_argument("--algebra", required=True)
    p.add_argument("--at", metavar="ORDERING")
    p.add_argument("--format", choices=FORMATS, dest="fmt")

    p = command("signature", "signature of a quadratic form")
    p.add_argument("--form", required=True)
    p.add_argument("--at", metavar="ORDERING")
    p.add_argument("--total", action="store_true")
    p.add_argument("--plot", metavar="SVG")
    p.add_argument("--format", choices=FORMATS, dest="fmt")

    p = command("hsign", "twisted signature of a hermitian form")
    p.add_argument("--algebra", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--at", metavar="ORDERING")
    p.add_argument("--total", action="store_true")
    p.add_argument("--plot", metavar="SVG")
    p.add_argument("--format", choices=FORMATS, dest="fmt")

    p = command("reference", "search for a reference form")
    p.add_argument("--algebra", required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = command("star", "pair two hermitian forms into a quadratic form")
    p.add_argument("--algebra", required=True)
    p.add_argument("--form1", required=True, dest="form")
    p.add_argument("--form2", required=True)
    p.add_argument("--out", required=True)

    p = command(
        "demo-discontinuity",
        "build a reference whose signature jumps across a half line",
    )
    p.add_argument("--algebra", required=True)
    p.add_argument("--set", dest="set_expr", metavar="EXPR")
    p.add_argument("--plot", metavar="SVG")
    p.add_argument("--format", choices=FORMATS, dest="fmt")

    p = command("selftest", "run the built-in verification suites")
    p.add_argument("--suite", choices=(*SUITES, "all"))
    p.add_argument("--seed", type=int)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    cfg = RunConfig(**vars(_build_parser().parse_args(argv)))
    try:
        return run(cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, InconsistencyError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except HermsigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
