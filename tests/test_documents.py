"""Document parsing, formatting, and round trips."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermsig import Ring, azumaya, documents
from hermsig.azumaya import DIRECT_VALIDATION_LIMIT
from hermsig.documents import (
    MAX_DOCUMENT_BYTES,
    MAX_DOCUMENT_DIM,
    format_algebra,
    format_hermitian,
    format_quadratic,
    load_algebra,
    load_hermitian,
    load_quadratic,
    parse_ring,
    read_document,
)
from hermsig.errors import HermsigError, ParseError, ValidationError
from hermsig.polynomials import Polynomial

ALGEBRA_SAMPLES = (
    "m2.alg",
    "quat-x.alg",
    "hamilton.alg",
    "gauss-x.alg",
    "quat-nil.alg",
)


class TestRing:
    def test_descriptors(self):
        assert parse_ring("Q") == Ring.rationals()
        assert parse_ring("Q[x]") == Ring.polynomials()
        x = Polynomial((0, 1))
        assert parse_ring("Q[x][1/(x)]") == Ring.localized(x)
        assert parse_ring("Q[x][1/x]") == Ring.localized(x)
        assert parse_ring("Q[x][1/(x^2-1)]") == Ring.localized(x * x - Polynomial.one())

    def test_bad_descriptor(self):
        with pytest.raises(ParseError, match="ring"):
            parse_ring("Z[x]", line=3)


class TestSamples:
    @pytest.mark.parametrize("name", ALGEBRA_SAMPLES)
    def test_algebra_round_trip(self, name):
        text = read_document(f"sample:{name}")
        a = load_algebra(text)
        assert format_algebra(a) == text
        a.validate()

    def test_hermitian_round_trip(self):
        m2 = load_algebra(read_document("sample:m2.alg"))
        for name in ("one.hf", "x.hf"):
            text = read_document(f"sample:{name}")
            h = load_hermitian(text, m2)
            assert format_hermitian(h, algebra_name="m2") == text
            # diagonal documents carry the decomposition
            assert h._parts is not None

    def test_quadratic_round_trip(self):
        text = read_document("sample:xq.qf")
        q = load_quadratic(text)
        assert format_quadratic(q) == text
        assert q.dim == 2

    def test_unknown_sample(self):
        with pytest.raises(ParseError, match="shipped"):
            read_document("sample:nope.alg")

    def test_size_limit(self, tmp_path):
        text = read_document("sample:xq.qf")
        doc = tmp_path / "big.qf"
        pad = MAX_DOCUMENT_BYTES - len(text.encode())
        # at the limit: read and parsed in full
        doc.write_bytes(text.encode() + b"#" * (pad - 1) + b"\n")
        assert load_quadratic(read_document(str(doc))).dim == 2
        # one byte more is rejected, naming the limit
        doc.write_bytes(text.encode() + b"#" * pad + b"\n")
        with pytest.raises(ParseError, match=f"limit of {MAX_DOCUMENT_BYTES} bytes"):
            read_document(str(doc))

    def test_newlines_and_encoding(self, tmp_path):
        doc = tmp_path / "crlf.qf"
        doc.write_bytes(read_document("sample:xq.qf").replace("\n", "\r\n").encode())
        assert read_document(str(doc)) == read_document("sample:xq.qf")
        doc.write_bytes(b"ring Q\xff\n")
        with pytest.raises(ParseError, match="UTF-8"):
            read_document(str(doc))

    def test_missing_file(self):
        with pytest.raises(ParseError, match="cannot read"):
            read_document("/no/such/file.alg")


class TestAlgebraDocuments:
    def test_comments_and_accumulation(self):
        text = (
            "# a 1-dimensional algebra\n"
            "ring Q\n"
            "rank 1\n"
            "\n"
            "unit 0 = 1/2\n"
            "unit 0 = 1/2\n"
            "sigma 0 0 = 1\n"
            "gamma 0 0 0 = 1\n"
        )
        a = load_algebra(text)
        assert a.unit[0] == 1
        a.validate()

    def test_missing_ring(self):
        with pytest.raises(ParseError, match="ring"):
            load_algebra("rank 1\nunit 0 = 1\n")

    def test_duplicate_rank(self):
        with pytest.raises(ParseError, match="duplicate rank"):
            load_algebra("ring Q\nrank 1\nrank 2\n")

    def test_unknown_keyword(self):
        with pytest.raises(ParseError, match="keyword"):
            load_algebra("ring Q\nrank 1\nfnord 0 = 1\n")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            load_algebra("ring Q\nrank 1\ngamma 0 0 1 = 1\n")

    def test_wrong_index_count(self):
        with pytest.raises(ParseError, match="indices"):
            load_algebra("ring Q\nrank 1\ngamma 0 0 = 1\n")

    def test_missing_value(self):
        with pytest.raises(ParseError, match="value"):
            load_algebra("ring Q\nrank 1\nunit 0\n")

    def test_bad_polynomial_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            load_algebra("ring Q\nrank 1\nunit 0 = 3//4\n")


class TestHeaderKeywords:
    """Each format admits only its own optional header line: `label` in an
    `.alg`, `algebra` in an `.hf`, none in a `.qf`."""

    @pytest.mark.parametrize(
        "suffix, text",
        [
            (".qf", "ring Q[x]\nlabel x\ndim 1\nentry 0 0 = 1\n"),
            (".qf", "ring Q[x]\nalgebra m2\ndim 1\nentry 0 0 = 1\n"),
            (".hf", "ring Q[x]\nlabel x\nsize 1\nrank 4\nentry 0 0 0 = 1\n"),
            (".alg", "ring Q\nalgebra m2\nrank 1\nunit 0 = 1\n"),
        ],
        ids=["qf-label", "qf-algebra", "hf-label", "alg-algebra"],
    )
    def test_foreign_header_line_is_unknown(self, suffix, text):
        load = {
            ".qf": load_quadratic,
            ".hf": lambda t: load_hermitian(t, load_algebra(read_document("sample:m2.alg"))),
            ".alg": load_algebra,
        }[suffix]
        key = text.splitlines()[1].split()[0]
        with pytest.raises(ParseError, match=f"unknown keyword '{key}' \\(line 2\\)"):
            load(text)


class TestHermitianDocuments:
    def setup_method(self):
        self.m2 = load_algebra(read_document("sample:m2.alg"))

    def test_ring_mismatch(self):
        text = "ring Q\nsize 1\nrank 4\nentry 0 0 0 = 1\n"
        with pytest.raises(ParseError, match="ring"):
            load_hermitian(text, self.m2)

    def test_rank_mismatch(self):
        text = "ring Q[x]\nsize 1\nrank 3\nentry 0 0 0 = 1\n"
        with pytest.raises(ParseError, match="rank"):
            load_hermitian(text, self.m2)

    def test_non_hermitian_is_validation_error(self):
        # e01 on the diagonal is not involution-fixed
        text = "ring Q[x]\nsize 1\nrank 4\nentry 0 0 1 = 1\n"
        with pytest.raises(ValidationError):
            load_hermitian(text, self.m2)

    def test_off_diagonal_entries(self):
        text = (
            "ring Q[x]\nsize 2\nrank 4\n"
            "entry 0 0 0 = 1\nentry 0 0 3 = 1\n"
            "entry 0 1 1 = 1\nentry 1 0 2 = 1\n"
            "entry 1 1 0 = 1\nentry 1 1 3 = 1\n"
        )
        h = load_hermitian(text, self.m2)
        assert h.rank == 2
        assert h._parts is None

    def test_header_only_is_the_zero_form(self):
        h = load_hermitian("ring Q[x]\nsize 128\nrank 4\n", self.m2)
        assert h._parts is not None
        zero = tuple(self.m2.zero_vector())
        assert h.entries == ((zero,) * 128,) * 128


class TestQuadraticDocuments:
    def test_lower_triangle_rejected(self):
        with pytest.raises(ParseError, match="upper triangle"):
            load_quadratic("ring Q\ndim 2\nentry 1 0 = 1\n")

    def test_mirror_fill(self):
        q = load_quadratic("ring Q\ndim 2\nentry 0 1 = 3\n")
        assert q.gram[0][1] == 3 and q.gram[1][0] == 3

    def test_serialize_rejects_quotients(self):
        rx = Ring.localized(Polynomial((0, 1)))
        from hermsig.quadform import QuadraticForm

        q = QuadraticForm.diagonal(rx, [rx.coerce(1) / rx.coerce(Polynomial((0, 1)))])
        with pytest.raises(ValidationError, match="polynomial"):
            format_quadratic(q)


class TestHeaderBounds:
    """Declared sizes are bounded before any table is allocated."""

    OFF_DIAGONAL_HF = (
        "ring Q[x]\nsize {k}\nrank 4\n"
        "entry 0 0 0 = 1\nentry 0 0 3 = 1\n"
        "entry 0 1 1 = 1\nentry 1 0 2 = 1\n"
        "entry 1 1 0 = 1\nentry 1 1 3 = 1\n"
    )

    @staticmethod
    def _rejected_quickly(load, error, match):
        start = time.monotonic()
        with pytest.raises(error, match=match):
            load()
        assert time.monotonic() - start < 0.3

    def test_limits_at_the_real_constants(self):
        m2 = load_algebra(read_document("sample:m2.alg"))
        over = MAX_DOCUMENT_DIM + 1
        self._rejected_quickly(
            lambda: load_algebra(f"ring Q\nrank {DIRECT_VALIDATION_LIMIT + 1}\n"),
            ValidationError,
            "direct validation limit",
        )
        self._rejected_quickly(
            lambda: load_quadratic(f"ring Q\ndim {over}\n"),
            ParseError,
            f"dim {over} exceeds the limit of {MAX_DOCUMENT_DIM}",
        )
        self._rejected_quickly(
            lambda: load_hermitian(self.OFF_DIAGONAL_HF.format(k=over), m2),
            ParseError,
            f"size {over} exceeds the limit of {MAX_DOCUMENT_DIM}",
        )
        assert load_algebra(f"ring Q\nrank {DIRECT_VALIDATION_LIMIT}\n").m == DIRECT_VALIDATION_LIMIT

    def test_rank_boundary(self, monkeypatch):
        monkeypatch.setattr(azumaya, "DIRECT_VALIDATION_LIMIT", 4)
        text = read_document("sample:m2.alg")
        assert load_algebra(text).m == 4
        with pytest.raises(ValidationError, match="direct validation limit 4"):
            load_algebra(text.replace("rank 4", "rank 5"))

    def test_dim_and_size_boundary(self, monkeypatch):
        monkeypatch.setattr(documents, "MAX_DOCUMENT_DIM", 2)
        assert load_quadratic("ring Q\ndim 2\nentry 0 1 = 3\n").dim == 2
        with pytest.raises(ParseError, match="limit of 2"):
            load_quadratic("ring Q\ndim 3\nentry 0 1 = 3\n")
        m2 = load_algebra(read_document("sample:m2.alg"))
        assert load_hermitian(self.OFF_DIAGONAL_HF.format(k=2), m2).rank == 2
        with pytest.raises(ParseError, match="limit of 2"):
            load_hermitian(self.OFF_DIAGONAL_HF.format(k=3), m2)


#### fuzzing the form loaders

FORM_VALUES = ("0", "1", "-1", "2", "x", "-x", "x+1", "1/2", "1/x", "x^2-3")
M2 = load_algebra(read_document("sample:m2.alg"))


# sigma on the matrix-unit basis e00, e01, e10, e11 of sample:m2.alg
M2_TRANSPOSE = (0, 2, 1, 3)


@st.composite
def random_form_text(draw, hermitian: bool):
    """A `.hf` text against sample:m2.alg, or a `.qf` text. A structured one
    has a ring the form can live over, sizes that fit, and entries in place
    in symmetric pairs (h_ji = sigma(h_ij)); a raw one has any ring line,
    header sizes and entry indices from -1 to 4."""
    structured = draw(st.booleans())
    size = draw(st.integers(1 if structured else 0, 3))
    if structured:
        ring = "Q[x]" if hermitian else draw(st.sampled_from(("Q", "Q[x]", "Q[x][1/x]")))
        values = ("0", "1", "-1", "2", "1/2") if ring == "Q" else FORM_VALUES[:-2]
    else:
        ring = draw(st.sampled_from(("Q[x]", "Q", "Q[x][1/x]", "Z")))
        values = FORM_VALUES
    lines = [f"ring {ring}"]
    if hermitian:
        if draw(st.booleans()):
            lines.append("algebra m2")
        rank = 4 if structured else draw(st.sampled_from((4, 4, 4, 3)))
        lines += [f"size {size}", f"rank {rank}"]
    else:
        lines.append(f"dim {size}")
    idx = st.integers(0, size - 1) if structured else st.integers(-1, 4)
    for _ in range(draw(st.integers(0, 4))):
        i, j, value = draw(idx), draw(idx), draw(st.sampled_from(values))
        if structured:
            i, j = min(i, j), max(i, j)
        if hermitian:
            l = draw(st.integers(0, 3) if structured else st.integers(-1, 4))
            pairs = [(i, j, l)]
            if structured and (i, j, l) != (j, i, M2_TRANSPOSE[l]):
                pairs.append((j, i, M2_TRANSPOSE[l]))
        else:
            pairs = [(i, j)]
        lines += [f"entry {' '.join(map(str, key))} = {value}" for key in pairs]
    return "\n".join(lines) + "\n"


@st.composite
def mutated_form_text(draw):
    """sample:x.hf, sample:one.hf or sample:xq.qf with one line deleted,
    duplicated, given another value or index, or replaced by short text."""
    name = draw(st.sampled_from(("x.hf", "one.hf", "xq.qf")))
    lines = read_document(f"sample:{name}").splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    how = draw(st.sampled_from(("delete", "duplicate", "value", "index", "text")))
    if how == "delete":
        new = []
    elif how == "duplicate":
        new = [line, line]
    elif how == "value" and "=" in line:
        new = [line.split("=")[0] + "= " + draw(st.sampled_from(FORM_VALUES))]
    elif how == "index" and "=" in line:
        fields = line.split()
        pos = draw(st.integers(1, fields.index("=") - 1))
        fields[pos] = str(draw(st.integers(-1, 4)))
        new = [" ".join(fields)]
    else:
        new = [draw(st.text(alphabet=" 0123=-+x/aegimnrstyzQ[]()", max_size=14))]
    return name, "\n".join(lines[:at] + new + lines[at + 1 :]) + "\n"


def check_form_text(text: str, hermitian: bool) -> None:
    """The text loads or raises a HermsigError; a loaded form, formatted
    and loaded again, formats to the same text."""
    if hermitian:
        load, fmt = (lambda t: load_hermitian(t, M2)), format_hermitian
    else:
        load, fmt = load_quadratic, format_quadratic
    try:
        form = load(text)
    except HermsigError:
        return
    out = fmt(form)
    assert fmt(load(out)) == out


class TestFormLoaderFuzz:
    @settings(max_examples=120, derandomize=True, deadline=250)
    @given(random_form_text(hermitian=True))
    def test_random_hermitian_documents(self, text):
        check_form_text(text, True)

    @settings(max_examples=120, derandomize=True, deadline=250)
    @given(random_form_text(hermitian=False))
    def test_random_quadratic_documents(self, text):
        check_form_text(text, False)

    @settings(max_examples=120, derandomize=True, deadline=250)
    @given(mutated_form_text())
    def test_mutated_samples(self, named):
        name, text = named
        check_form_text(text, name.endswith(".hf"))
