"""Line-based input documents for algebras and forms.

Three formats share one shape: a header naming the base ring and the
dimensions, then sparse entry lines `keyword indices = value` with values
in the polynomial grammar. Lines starting with `#` and blank lines are
skipped. Omitted entries are zero; duplicate entries accumulate. Indices
are 0-based.

Algebra (.alg): `ring`, `rank m`, optional `label`, `unit i = c`,
`sigma i j = c` (column j of the involution), `gamma i j k = c`
(coefficient of the k-th basis vector in the product of the i-th and
j-th).

Hermitian form (.hf): `ring`, optional `algebra <name>` back reference,
`size k`, `rank m`, `entry i j l = c` (coordinate l of the matrix entry
at row i, column j). Loading takes the presentation object; the document
only cross-checks ring and rank against it.

Quadratic form (.qf): `ring`, `dim n`, `entry i j = c` with i <= j; an
off-diagonal entry fills both Gram positions.

Any other keyword, another format's optional line included, is a parse error.

Declared sizes are bounded before any table is allocated: an algebra rank
above the direct validation limit is refused as validate() would refuse
it, and a form dim or size above MAX_DOCUMENT_DIM is a parse error.

Formatting emits the canonical layout (sorted entries, canonical
polynomial text), so format(parse(text)) == text for canonical documents
and parse(format(obj)) reproduces the object.
"""

from __future__ import annotations

from pathlib import Path

from .azumaya import AlgebraPresentation, check_direct_rank
from .errors import HermsigError, ParseError, ValidationError
from .hermitian import HermitianForm
from .polynomials import Polynomial, format_polynomial, parse_polynomial
from .quadform import QuadraticForm
from .sper import Element, Ring


# Largest document, in bytes, that is read; a longer one is rejected
# before it is parsed.
MAX_DOCUMENT_BYTES = 1 << 20

# Largest `.qf` dim and `.hf` size; a dense table of this side is about the
# size of the largest document.
MAX_DOCUMENT_DIM = 1024


def read_document(path: str) -> str:
    """Read a document by path; `sample:<name>` names a shipped sample.

    At most MAX_DOCUMENT_BYTES + 1 bytes are read, so an oversized file
    costs no more than the limit. Newlines are translated as in text mode.
    """
    if path.startswith("sample:"):
        name = path[len("sample:") :]
        base = Path(__file__).resolve().parent / "samples"
        target = base / name
        if not target.is_file():
            shipped = ", ".join(sorted(p.name for p in base.iterdir()))
            raise ParseError(f"no sample {name!r}; shipped: {shipped}")
    else:
        target = Path(path)
    try:
        with open(target, "rb") as fh:
            data = fh.read(MAX_DOCUMENT_BYTES + 1)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if len(data) > MAX_DOCUMENT_BYTES:
        raise ParseError(
            f"document {path} exceeds the limit of {MAX_DOCUMENT_BYTES} bytes"
        )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"document {path} is not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_document(path: str, text: str) -> None:
    """Write text to path; a path that cannot be written is a HermsigError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise HermsigError(f"cannot write {path}: {exc.strerror or exc}") from None


def parse_ring(text: str, line: "int | None" = None) -> Ring:
    t = text.strip()
    if t == "Q":
        return Ring.rationals()
    if t == "Q[x]":
        return Ring.polynomials()
    if t.startswith("Q[x][1/") and t.endswith("]"):
        inner = t[len("Q[x][1/") : -1]
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        return Ring.localized(parse_polynomial(inner, line))
    raise ParseError(f"unknown ring descriptor {t!r}", line)


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield no, stripped


def _split_entry(no: int, rest: str, count: int) -> "tuple[list[int], str]":
    # `i j ... = value` with exactly count indices
    if "=" not in rest:
        raise ParseError("expected `= value`", no)
    head, value = rest.split("=", 1)
    fields = head.split()
    if len(fields) != count:
        raise ParseError(f"expected {count} indices, got {len(fields)}", no)
    try:
        idx = [int(f) for f in fields]
    except ValueError:
        raise ParseError(f"bad index in {head!r}", no) from None
    return idx, value.strip()


def _int_field(no: int, rest: str, what: str) -> int:
    try:
        v = int(rest.strip())
    except ValueError:
        raise ParseError(f"bad {what} {rest.strip()!r}", no) from None
    if v <= 0:
        raise ParseError(f"{what} must be positive", no)
    return v


class _Header:
    __slots__ = ("ring", "sizes", "label")

    def __init__(self):
        self.ring: "Ring | None" = None
        self.sizes: dict[str, int] = {}
        self.label: "str | None" = None


def _scan(
    text: str,
    size_keys: "tuple[str, ...]",
    entry_keys: "tuple[str, ...]",
    label_key: "str | None" = None,
):
    header = _Header()
    entries: dict[str, list] = {k: [] for k in entry_keys}
    for no, line in _lines(text):
        key, _, rest = line.partition(" ")
        if key == "ring":
            if header.ring is not None:
                raise ParseError("duplicate ring line", no)
            header.ring = parse_ring(rest, no)
        elif key == label_key:
            header.label = rest.strip()
        elif key in size_keys:
            if key in header.sizes:
                raise ParseError(f"duplicate {key} line", no)
            header.sizes[key] = _int_field(no, rest, key)
        elif key in entry_keys:
            entries[key].append((no, rest))
        else:
            raise ParseError(f"unknown keyword {key!r}", no)
    if header.ring is None:
        raise ParseError("missing ring line")
    for k in size_keys:
        if k not in header.sizes:
            raise ParseError(f"missing {k} line")
    return header, entries


def _bounded_dim(header: _Header, key: str) -> int:
    n = header.sizes[key]
    if n > MAX_DOCUMENT_DIM:
        raise ParseError(f"{key} {n} exceeds the limit of {MAX_DOCUMENT_DIM}")
    return n


def load_algebra(text: str) -> AlgebraPresentation:
    header, entries = _scan(text, ("rank",), ("unit", "sigma", "gamma"), "label")
    ring = header.ring
    m = header.sizes["rank"]
    # document algebras carry no structure hint; refuse what validate()
    # would refuse before the table is allocated
    check_direct_rank(m)
    unit = [ring.zero] * m
    for no, rest in entries["unit"]:
        idx, value = _split_entry(no, rest, 1)
        if not 0 <= idx[0] < m:
            raise ParseError(f"unit index {idx[0]} out of range", no)
        unit[idx[0]] = unit[idx[0]] + ring.coerce(parse_polynomial(value, no))
    gamma = []
    for no, rest in entries["gamma"]:
        (i, j, k), value = _split_entry(no, rest, 3)
        if not (0 <= i < m and 0 <= j < m and 0 <= k < m):
            raise ParseError(f"gamma index ({i},{j},{k}) out of range", no)
        gamma.append((i, j, k, ring.coerce(parse_polynomial(value, no))))
    sigma = []
    for no, rest in entries["sigma"]:
        (i, j), value = _split_entry(no, rest, 2)
        if not (0 <= i < m and 0 <= j < m):
            raise ParseError(f"sigma index ({i},{j}) out of range", no)
        sigma.append((i, j, ring.coerce(parse_polynomial(value, no))))
    return AlgebraPresentation.from_gamma(
        ring, m, gamma, sigma, unit, label=header.label or "algebra"
    )


def _element_poly(ring: Ring, e: Element) -> Polynomial:
    if ring.is_rational_base:
        return Polynomial((e,))
    if e.den != Polynomial.one():
        raise ValidationError(
            f"cannot serialize {e}: documents carry polynomial values only"
        )
    return e.num


def _value_lines(ring: Ring, key: str, cells) -> "list[str]":
    out = []
    for idx, e in cells:
        p = _element_poly(ring, e)
        if p.is_zero:
            continue
        place = " ".join(str(i) for i in idx)
        out.append(f"{key} {place} = {format_polynomial(p)}")
    return out


def format_algebra(a: AlgebraPresentation) -> str:
    lines = [f"ring {a.ring}", f"rank {a.m}"]
    if a.label != "algebra":
        lines.append(f"label {a.label}")
    lines += _value_lines(
        a.ring, "unit", (((i,), c) for i, c in enumerate(a.unit))
    )
    lines += _value_lines(
        a.ring,
        "sigma",
        (((i, j), c) for j, col in enumerate(a.invol_cols) for i, c in col),
    )
    lines += _value_lines(
        a.ring,
        "gamma",
        (
            ((i, j, k), c)
            for i, row in enumerate(a.mul)
            for j, cell in enumerate(row)
            for k, c in cell
        ),
    )
    return "\n".join(lines) + "\n"


def load_hermitian(text: str, algebra: AlgebraPresentation) -> HermitianForm:
    header, entries = _scan(text, ("size", "rank"), ("entry",), "algebra")
    if header.ring != algebra.ring:
        raise ParseError(
            f"document ring {header.ring} does not match the algebra ring {algebra.ring}"
        )
    m = header.sizes["rank"]
    if m != algebra.m:
        raise ParseError(f"document rank {m} does not match the algebra rank {algebra.m}")
    k = _bounded_dim(header, "size")
    ring = algebra.ring
    # one shared zero: entries are rebound below, never changed in place
    zero = ring.zero
    mat = [[[zero] * m for _ in range(k)] for _ in range(k)]
    for no, rest in entries["entry"]:
        (i, j, l), value = _split_entry(no, rest, 3)
        if not (0 <= i < k and 0 <= j < k and 0 <= l < m):
            raise ParseError(f"entry index ({i},{j},{l}) out of range", no)
        mat[i][j][l] = mat[i][j][l] + ring.coerce(parse_polynomial(value, no))
    diagonal = not any(any(mat[i][j]) for i in range(k) for j in range(k) if i != j)
    # diagonal documents get the tracked decomposition (faster signatures)
    if diagonal:
        return HermitianForm.diagonal(algebra, [mat[i][i] for i in range(k)])
    return HermitianForm(algebra, mat)


def format_hermitian(h: HermitianForm, algebra_name: "str | None" = None) -> str:
    a = h.algebra
    lines = [f"ring {a.ring}"]
    if algebra_name:
        lines.append(f"algebra {algebra_name}")
    lines += [f"size {h.rank}", f"rank {a.m}"]
    lines += _value_lines(
        a.ring,
        "entry",
        (
            ((i, j, l), c)
            for i, row in enumerate(h.entries)
            for j, vec in enumerate(row)
            for l, c in enumerate(vec)
        ),
    )
    return "\n".join(lines) + "\n"


def load_quadratic(text: str) -> QuadraticForm:
    header, entries = _scan(text, ("dim",), ("entry",))
    ring = header.ring
    n = _bounded_dim(header, "dim")
    zero = ring.zero
    gram = [[zero] * n for _ in range(n)]
    for no, rest in entries["entry"]:
        (i, j), value = _split_entry(no, rest, 2)
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"entry index ({i},{j}) out of range", no)
        if i > j:
            raise ParseError("Gram entries use the upper triangle (i <= j)", no)
        v = ring.coerce(parse_polynomial(value, no))
        gram[i][j] = gram[i][j] + v
        if i != j:
            gram[j][i] = gram[i][j]
    return QuadraticForm(ring, gram)


def format_quadratic(q: QuadraticForm) -> str:
    lines = [f"ring {q.ring}", f"dim {q.dim}"]
    lines += _value_lines(
        q.ring,
        "entry",
        (
            ((i, j), c)
            for i, row in enumerate(q.gram)
            for j, c in enumerate(row)
            if i <= j
        ),
    )
    return "\n".join(lines) + "\n"
