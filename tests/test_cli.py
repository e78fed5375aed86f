"""Command-line behavior: dispatch, formats, exit codes, determinism."""

import io
import time

import pytest

from hermsig import cli
from hermsig.cli import main, run
from hermsig.documents import MAX_DOCUMENT_BYTES, load_hermitian, load_quadratic, read_document
from hermsig.errors import ValidationError


def _main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExamples:
    def test_classify_quat_x(self, capsys):
        code, out, _ = _main(capsys, "classify", "--algebra", "sample:quat-x.alg")
        assert code == 0
        assert out.splitlines()[-1] == "Nil = H(x)"
        assert "symplectic / quaternionic (divisor 2)" in out
        assert "symplectic / real-split (nil)" in out

    def test_hsign_at_right_cut(self, capsys):
        code, out, _ = _main(
            capsys,
            "hsign",
            "--algebra", "sample:m2.alg",
            "--form", "sample:one.hf",
            "--eta", "sample:one.hf",
            "--at", "0+",
        )
        assert code == 0
        assert out == "2\n"

    def test_signature_total_tsv(self, capsys):
        code, out, _ = _main(
            capsys, "signature", "--form", "sample:xq.qf", "--total",
            "--format", "tsv",
        )
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert rows[0] == ["cell-kind", "location", "value"]
        assert ["interval", "(-inf,0)", "0"] in rows
        assert ["point", "0", "1"] in rows
        assert ["interval", "(0,+inf)", "2"] in rows

    def test_classify_at_point(self, capsys):
        code, out, _ = _main(
            capsys, "classify", "--algebra", "sample:quat-x.alg", "--at", "-1",
        )
        assert code == 0
        assert "quaternionic" in out and "divisor 2" in out
        assert "trace-signature" in out


class TestExitCodes:
    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--form", "(" * 5000 + "x" + ")" * 5000),
            ("--form", "x^99999999"),
            ("--form", "*".join(["(x+1)^1000"] * 8)),
            ("--form", "2^99999999"),
            ("--form", "*".join(["2^7142"] * 400)),
            ("--form", " + ".join(f"(x+{i})^500*(x+{i + 1})^500" for i in range(1, 41))),
            ("--form", "1/(x+1)^300 + 1/(x+2)^300"),
            ("--form", "(x+1)^1000/(x+2)^1000"),
            ("--form", "(x+1)^500/(x+2)^500"),
            ("--set", "(" * 5000),
            ("--set", "not " * 5000 + "H(x)"),
            ("--form", "x" + " + x" * (MAX_DOCUMENT_BYTES // 4)),
            ("--at", "1e10000000"),
            ("--at", "1e-10000000+"),
            ("--at", "root(x^2-2,[1,2e10000000])"),
        ],
        ids=[
            "deep-entry", "huge-power", "product-of-powers", "huge-constant",
            "product-of-constants", "sum-of-products", "sum-of-fractions",
            "quotient-of-powers", "quotient-of-half-powers", "deep-set", "deep-not", "huge-document",
            "huge-exponent-point", "huge-exponent-cut", "huge-exponent-root-endpoint",
        ],
    )
    def test_hostile_input_is_3(self, capsys, tmp_path, flag, text):
        if flag == "--form":
            doc = tmp_path / "bad.qf"
            doc.write_text(f"ring Q[x]\ndim 1\nentry 0 0 = {text}\n")
            argv = ["signature", "--form", str(doc), "--total"]
        elif flag == "--at":
            argv = ["signature", "--form", "sample:xq.qf", "--at", text]
        else:
            argv = ["demo-discontinuity", "--algebra", "sample:m2.alg", "--set", text]
        start = time.monotonic()
        code, out, err = _main(capsys, *argv)
        assert time.monotonic() - start < 5
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and err.startswith("parse error:")

    @pytest.mark.parametrize(
        "name, text, code",
        [
            ("big.alg", "ring Q\nrank 100000\n", 2),
            ("big.qf", "ring Q\ndim 100000\n", 3),
            ("big.hf", "ring Q[x]\nsize 100000\nrank 4\n", 3),
        ],
        ids=["huge-rank", "huge-dim", "huge-size"],
    )
    def test_huge_header_is_rejected(self, capsys, tmp_path, name, text, code):
        doc = tmp_path / name
        doc.write_text(text)
        argv = {
            ".alg": ["classify", "--algebra", str(doc)],
            ".qf": ["signature", "--form", str(doc), "--total"],
            ".hf": [
                "hsign", "--algebra", "sample:m2.alg", "--form", str(doc),
                "--eta", "sample:one.hf", "--at", "0+",
            ],
        }[doc.suffix]
        start = time.monotonic()
        got, out, err = _main(capsys, *argv)
        assert time.monotonic() - start < 5
        assert (got, out) == (code, "")
        assert err.count("\n") == 1 and "limit" in err

    def test_parse_error_is_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("ring Q[x]\nrank 1\nfnord\n")
        code, _, err = _main(capsys, "classify", "--algebra", str(bad))
        assert code == 3
        assert "line 3" in err

    def test_inadmissible_point_is_2(self, capsys):
        code, _, err = _main(
            capsys, "classify", "--algebra", "sample:quat-x.alg", "--at", "0",
        )
        assert code == 2
        assert "no such ordering" in err

    def test_budget_is_4(self, capsys, tmp_path):
        code, _, err = _main(
            capsys,
            "reference",
            "--algebra", "sample:m2.alg",
            "--budget", "0",
            "--out", str(tmp_path / "r.hf"),
        )
        assert code == 4
        assert "uncovered" in err

    def test_uncertified_eta_is_2(self, capsys):
        # x.hf pairs to zero on half the line, so it is no reference
        code, _, err = _main(
            capsys,
            "hsign",
            "--algebra", "sample:m2.alg",
            "--form", "sample:one.hf",
            "--eta", "sample:x.hf",
            "--at", "0+",
        )
        assert code == 2
        assert "nil locus" in err

    def test_missing_mode_is_2(self, capsys):
        code, _, err = _main(capsys, "signature", "--form", "sample:xq.qf")
        assert code == 2
        assert "--at or --total" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["reference", "--algebra", "sample:m2.alg", "--out"],
            ["star", "--algebra", "sample:m2.alg", "--form1", "sample:one.hf",
             "--form2", "sample:one.hf", "--out"],
            ["signature", "--form", "sample:xq.qf", "--total", "--plot"],
        ],
        ids=["reference-out", "star-out", "plot"],
    )
    def test_unwritable_output_is_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "result"
        code, _, err = _main(capsys, *argv, str(path))
        assert code == 2
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_unexpected_error_is_one_line_2(self, capsys, monkeypatch):
        def boom(cfg, out):
            raise ZeroDivisionError("division\nby zero")

        monkeypatch.setitem(cli._COMMANDS, "classify", boom)
        code, out, err = _main(capsys, "classify", "--algebra", "sample:quat-x.alg")
        assert (code, out) == (2, "")
        assert err == "internal error: ZeroDivisionError: division by zero\n"

    def test_bad_ordering_expression_is_3(self, capsys):
        code, _, _ = _main(
            capsys, "classify", "--algebra", "sample:quat-x.alg", "--at", "0++",
        )
        assert code == 3


class TestArtifacts:
    def test_reference_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "ref.hf"
        code, out, _ = _main(
            capsys, "reference", "--algebra", "sample:m2.alg", "--out", str(out_path),
        )
        assert code == 0
        assert "constant 2" in out
        from hermsig.documents import load_algebra

        a = load_algebra(read_document("sample:m2.alg"))
        h = load_hermitian(out_path.read_text(), a)
        assert h.rank == 1

    def test_star_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "st.qf"
        code, out, _ = _main(
            capsys,
            "star",
            "--algebra", "sample:m2.alg",
            "--form1", "sample:one.hf",
            "--form2", "sample:x.hf",
            "--out", str(out_path),
        )
        assert code == 0
        q = load_quadratic(out_path.read_text())
        assert q.dim == 4
        from hermsig.polynomials import Polynomial

        x = Polynomial.x()
        assert q.diagonal_entries()[0].num == x

    def test_demo_output(self, capsys):
        code, out, _ = _main(
            capsys, "demo-discontinuity", "--algebra", "sample:m2.alg",
        )
        assert code == 0
        assert "continuity fails at: 0" in out
        assert "constant absolute signature: 4" in out

    def test_plot_written_and_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for p in (p1, p2):
            code, _, _ = _main(
                capsys,
                "signature", "--form", "sample:xq.qf", "--total",
                "--plot", str(p),
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        # open markers for the cut values, one filled marker for the point
        assert text.count('fill="#ffffff"') >= 2
        assert '<circle' in text and '</svg>' in text

    def test_stdout_deterministic(self, capsys):
        outs = set()
        for _ in range(2):
            _, out, _ = _main(
                capsys, "classify", "--algebra", "sample:quat-x.alg",
            )
            outs.add(out)
        assert len(outs) == 1


class TestFormats:
    def test_json_doc_step(self, capsys):
        import json

        code, out, _ = _main(
            capsys, "signature", "--form", "sample:xq.qf", "--total",
            "--format", "json-doc",
        )
        assert code == 0
        doc = json.loads(out)
        assert {"cell-kind": "point", "location": "0", "value": "1"} in doc

    def test_json_doc_value(self, capsys):
        code, out, _ = _main(
            capsys, "signature", "--form", "sample:xq.qf", "--at", "5",
            "--format", "json-doc",
        )
        assert code == 0
        assert out == '{"value": 2}\n'


_GOLDEN_QF = """ring Q
dim 3
entry 0 0 = 1
entry 0 1 = 1/2
entry 1 1 = -2
entry 2 2 = -3
"""

_GOLDEN_SVG = """<svg xmlns="http://www.w3.org/2000/svg" width="640" height="360" viewBox="0 0 640 360">
<rect width="640" height="360" fill="#ffffff"/>
<line x1="52.00" y1="20.00" x2="52.00" y2="320.00" stroke="#888888" stroke-width="1"/>
<line x1="52.00" y1="320.00" x2="620.00" y2="320.00" stroke="#888888" stroke-width="1"/>
<line x1="48.00" y1="320.00" x2="52.00" y2="320.00" stroke="#888888" stroke-width="1"/>
<text x="44.00" y="320.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">-2</text>
<line x1="48.00" y1="170.00" x2="52.00" y2="170.00" stroke="#888888" stroke-width="1"/>
<text x="44.00" y="170.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">-1</text>
<line x1="48.00" y1="20.00" x2="52.00" y2="20.00" stroke="#888888" stroke-width="1"/>
<text x="44.00" y="20.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">0</text>
<line x1="52.00" y1="170.00" x2="620.00" y2="170.00" stroke="#1f5fa8" stroke-width="2"/>
<text x="336.00" y="160.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="middle">-1</text>
</svg>
"""


class TestGoldenBaseQ:
    """Exact output of step functions over Q: one rational-order cell."""

    def test_classify_hamilton(self, capsys):
        code, out, _ = _main(capsys, "classify", "--algebra", "sample:hamilton.alg")
        assert code == 0
        assert out == (
            "cell-kind       location  value\n"
            "rational-order  Q         symplectic / quaternionic (divisor 2)\n"
            "Nil = H(-1)\n"
        )

    def test_classify_hamilton_json_doc(self, capsys):
        code, out, _ = _main(
            capsys, "classify", "--algebra", "sample:hamilton.alg",
            "--format", "json-doc",
        )
        assert code == 0
        assert out == (
            '[\n  {\n    "cell-kind": "rational-order",\n    "location": "Q",\n'
            '    "value": "symplectic / quaternionic (divisor 2)"\n  }\n]\n'
            "Nil = H(-1)\n"
        )

    @pytest.mark.parametrize(
        "fmt, want",
        [
            ("table", "cell-kind       location  value\nrational-order  Q         -1\n"),
            ("tsv", "cell-kind\tlocation\tvalue\nrational-order\tQ\t-1\n"),
            (
                "json-doc",
                '[\n  {\n    "cell-kind": "rational-order",\n    "location": "Q",\n'
                '    "value": "-1"\n  }\n]\n',
            ),
        ],
    )
    def test_signature_total(self, capsys, tmp_path, fmt, want):
        doc = tmp_path / "g.qf"
        doc.write_text(_GOLDEN_QF)
        code, out, _ = _main(
            capsys, "signature", "--form", str(doc), "--total", "--format", fmt,
        )
        assert code == 0
        assert out == want

    def test_signature_total_plot(self, capsys, tmp_path):
        doc, svg = tmp_path / "g.qf", tmp_path / "g.svg"
        doc.write_text(_GOLDEN_QF)
        code, out, _ = _main(
            capsys, "signature", "--form", str(doc), "--total", "--plot", str(svg),
        )
        assert code == 0
        assert out == "cell-kind       location  value\nrational-order  Q         -1\n"
        assert svg.read_bytes() == _GOLDEN_SVG.encode()


_XQ_SIGNATURE = (
    "cell-kind  location  value\n"
    "minus-inf  -inf      0\n"
    "interval   (-inf,0)  0\n"
    "left-cut   0-        0\n"
    "point      0         1\n"
    "right-cut  0+        2\n"
    "interval   (0,+inf)  2\n"
    "plus-inf   +inf      2\n"
)

_XQ_SVG = """<svg xmlns="http://www.w3.org/2000/svg" width="640" height="360" viewBox="0 0 640 360">
<rect width="640" height="360" fill="#ffffff"/>
<line x1="52.00" y1="20.00" x2="52.00" y2="320.00" stroke="#888888" stroke-width="1"/>
<line x1="52.00" y1="320.00" x2="620.00" y2="320.00" stroke="#888888" stroke-width="1"/>
<line x1="48.00" y1="320.00" x2="52.00" y2="320.00" stroke="#888888" stroke-width="1"/>
<text x="44.00" y="320.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">0</text>
<line x1="48.00" y1="170.00" x2="52.00" y2="170.00" stroke="#888888" stroke-width="1"/>
<text x="44.00" y="170.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">1</text>
<line x1="48.00" y1="20.00" x2="52.00" y2="20.00" stroke="#888888" stroke-width="1"/>
<text x="44.00" y="20.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">2</text>
<line x1="52.00" y1="320.00" x2="336.00" y2="320.00" stroke="#1f5fa8" stroke-width="2"/>
<line x1="336.00" y1="20.00" x2="620.00" y2="20.00" stroke="#1f5fa8" stroke-width="2"/>
<circle cx="336.00" cy="320.00" r="4" fill="#ffffff" stroke="#1f5fa8" stroke-width="2"/>
<circle cx="336.00" cy="20.00" r="4" fill="#ffffff" stroke="#1f5fa8" stroke-width="2"/>
<circle cx="336.00" cy="170.00" r="4" fill="#1f5fa8" stroke="#1f5fa8" stroke-width="2"/>
<text x="336.00" y="336.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="middle">0</text>
<line x1="336.00" y1="320.00" x2="336.00" y2="324.00" stroke="#888888" stroke-width="1"/>
<rect x="48.00" y="316.00" width="8" height="8" fill="#1f5fa8"/>
<rect x="616.00" y="16.00" width="8" height="8" fill="#1f5fa8"/>
<text x="52.00" y="336.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="start">-inf</text>
<text x="620.00" y="336.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">+inf</text>
</svg>
"""


class TestGoldenLine:
    """Exact output over Q[x] on the shipped samples: the pairing, the
    reference search and the total signatures run the Q(x) kernels."""

    @pytest.mark.parametrize(
        "form1, form2, want",
        [
            ("one.hf", "x.hf", "x"),
            ("x.hf", "x.hf", "x^2"),
        ],
    )
    def test_star(self, capsys, tmp_path, form1, form2, want):
        qf = tmp_path / "s.qf"
        code, out, _ = _main(
            capsys, "star", "--algebra", "sample:m2.alg",
            "--form1", f"sample:{form1}", "--form2", f"sample:{form2}", "--out", str(qf),
        )
        assert code == 0
        assert out == f"quadratic form of dimension 4\nwritten to {qf}\n"
        entries = "".join(f"entry {i} {i} = {want}\n" for i in range(4))
        assert qf.read_text() == "ring Q[x]\ndim 4\n" + entries

    def test_hsign_total_against_written_reference(self, capsys, tmp_path):
        ref = tmp_path / "ref.hf"
        code, out, _ = _main(
            capsys, "reference", "--algebra", "sample:m2.alg", "--out", str(ref),
        )
        assert (code, out) == (0, f"reference rank 1, constant 2\nwritten to {ref}\n")
        code, out, _ = _main(
            capsys, "hsign", "--algebra", "sample:m2.alg", "--form", "sample:x.hf",
            "--eta", str(ref), "--total",
        )
        assert code == 0
        assert out == (
            "cell-kind  location  value\n"
            "minus-inf  -inf      -2\n"
            "interval   (-inf,0)  -2\n"
            "left-cut   0-        -2\n"
            "point      0         0\n"
            "right-cut  0+        2\n"
            "interval   (0,+inf)  2\n"
            "plus-inf   +inf      2\n"
        )

    @pytest.mark.parametrize(
        "name, ring, rank",
        [("quat-x", "Q[x][1/(x)]", 4), ("gauss-x", "Q[x]", 2)],
    )
    def test_reference(self, capsys, tmp_path, name, ring, rank):
        ref = tmp_path / "ref.hf"
        code, out, _ = _main(
            capsys, "reference", "--algebra", f"sample:{name}.alg", "--out", str(ref),
        )
        assert (code, out) == (0, f"reference rank 1, constant 1\nwritten to {ref}\n")
        assert ref.read_text() == (
            f"ring {ring}\nalgebra {name}\nsize 1\nrank {rank}\nentry 0 0 0 = 1\n"
        )

    def test_signature_total_plot(self, capsys, tmp_path):
        svg = tmp_path / "xq.svg"
        code, out, _ = _main(
            capsys, "signature", "--form", "sample:xq.qf", "--total", "--plot", str(svg),
        )
        assert (code, out) == (0, _XQ_SIGNATURE)
        assert svg.read_bytes() == _XQ_SVG.encode()


_PUNCT_QF = """ring Q[x][1/(x)]
dim 2
entry 0 0 = x^2 - 2
entry 1 1 = -x
"""

_PUNCT_SIGNATURE = (
    "cell-kind  location                          value\n"
    "minus-inf  -inf                              2\n"
    "interval   (-inf,root(x^2 - 2,[-3/2,-3/4]))  2\n"
    "left-cut   root(x^2 - 2,[-3/2,-3/4])-        2\n"
    "point      root(x^2 - 2,[-3/2,-3/4])         1\n"
    "right-cut  root(x^2 - 2,[-3/2,-3/4])+        0\n"
    "interval   (root(x^2 - 2,[-3/2,-3/4]),0)     0\n"
    "left-cut   0-                                0\n"
    "right-cut  0+                                -2\n"
    "interval   (0,root(x^2 - 2,[3/4,3/2]))       -2\n"
    "left-cut   root(x^2 - 2,[3/4,3/2])-          -2\n"
    "point      root(x^2 - 2,[3/4,3/2])           -1\n"
    "right-cut  root(x^2 - 2,[3/4,3/2])+          0\n"
    "interval   (root(x^2 - 2,[3/4,3/2]),+inf)    0\n"
    "plus-inf   +inf                              0\n"
)

_PUNCT_SVG = """<svg xmlns="http://www.w3.org/2000/svg" width="640" height="360" viewBox="0 0 640 360">
<rect width="640" height="360" fill="#ffffff"/>
<line x1="52.00" y1="20.00" x2="52.00" y2="320.00" stroke="#888888" stroke-width="1"/>
<line x1="52.00" y1="320.00" x2="620.00" y2="320.00" stroke="#888888" stroke-width="1"/>
<line x1="48.00" y1="320.00" x2="52.00" y2="320.00" stroke="#888888" stroke-width="1"/>
<text x="44.00" y="320.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">-2</text>
<line x1="48.00" y1="245.00" x2="52.00" y2="245.00" stroke="#888888" stroke-width="1"/>
<text x="44.00" y="245.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">-1</text>
<line x1="48.00" y1="170.00" x2="52.00" y2="170.00" stroke="#888888" stroke-width="1"/>
<text x="44.00" y="170.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">0</text>
<line x1="48.00" y1="95.00" x2="52.00" y2="95.00" stroke="#888888" stroke-width="1"/>
<text x="44.00" y="95.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">1</text>
<line x1="48.00" y1="20.00" x2="52.00" y2="20.00" stroke="#888888" stroke-width="1"/>
<text x="44.00" y="20.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">2</text>
<line x1="52.00" y1="20.00" x2="207.33" y2="20.00" stroke="#1f5fa8" stroke-width="2"/>
<line x1="207.33" y1="170.00" x2="336.00" y2="170.00" stroke="#1f5fa8" stroke-width="2"/>
<line x1="336.00" y1="320.00" x2="464.67" y2="320.00" stroke="#1f5fa8" stroke-width="2"/>
<line x1="464.67" y1="170.00" x2="620.00" y2="170.00" stroke="#1f5fa8" stroke-width="2"/>
<circle cx="207.33" cy="20.00" r="4" fill="#ffffff" stroke="#1f5fa8" stroke-width="2"/>
<circle cx="207.33" cy="170.00" r="4" fill="#ffffff" stroke="#1f5fa8" stroke-width="2"/>
<circle cx="207.33" cy="95.00" r="4" fill="#1f5fa8" stroke="#1f5fa8" stroke-width="2"/>
<text x="207.33" y="336.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="middle">~-1.41</text>
<line x1="207.33" y1="320.00" x2="207.33" y2="324.00" stroke="#888888" stroke-width="1"/>
<circle cx="336.00" cy="170.00" r="4" fill="#ffffff" stroke="#1f5fa8" stroke-width="2"/>
<circle cx="336.00" cy="320.00" r="4" fill="#ffffff" stroke="#1f5fa8" stroke-width="2"/>
<text x="336.00" y="336.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="middle">0</text>
<line x1="336.00" y1="320.00" x2="336.00" y2="324.00" stroke="#888888" stroke-width="1"/>
<circle cx="464.67" cy="320.00" r="4" fill="#ffffff" stroke="#1f5fa8" stroke-width="2"/>
<circle cx="464.67" cy="170.00" r="4" fill="#ffffff" stroke="#1f5fa8" stroke-width="2"/>
<circle cx="464.67" cy="245.00" r="4" fill="#1f5fa8" stroke="#1f5fa8" stroke-width="2"/>
<text x="464.67" y="336.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="middle">~1.41</text>
<line x1="464.67" y1="320.00" x2="464.67" y2="324.00" stroke="#888888" stroke-width="1"/>
<rect x="48.00" y="16.00" width="8" height="8" fill="#1f5fa8"/>
<rect x="616.00" y="166.00" width="8" height="8" fill="#1f5fa8"/>
<text x="52.00" y="336.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="start">-inf</text>
<text x="620.00" y="336.00" font-family="monospace" font-size="12" fill="#222222" text-anchor="end">+inf</text>
</svg>
"""


class TestGoldenPunctured:
    """Exact output over Q[x][1/x]: the value jumps across the puncture at 0
    (0- is 0, 0+ is -2), and the points +-sqrt(2) differ from both cuts."""

    def test_signature_total_plot(self, capsys, tmp_path):
        doc, svg = tmp_path / "p.qf", tmp_path / "p.svg"
        doc.write_text(_PUNCT_QF)
        code, out, _ = _main(
            capsys, "signature", "--form", str(doc), "--total", "--plot", str(svg),
        )
        assert (code, out) == (0, _PUNCT_SIGNATURE)
        assert svg.read_bytes() == _PUNCT_SVG.encode()


class TestSelftestCommand:
    def test_paper_values(self, capsys):
        code, out, _ = _main(capsys, "selftest", "--suite", "paper-values")
        assert code == 0
        assert "trace-signatures" in out
        assert out.splitlines()[-1] == "all 4 checks passed"


class TestRun:
    def test_bad_format_exits_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--algebra", "sample:quat-x.alg", "--format", "yaml"])
        assert exc.value.code == 2
        assert "invalid choice: 'yaml'" in capsys.readouterr().err

    def test_unknown_command_exits_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"], out=io.StringIO())
        assert exc.value.code == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["-3", "x"])
    def test_bad_budget_exits_through_argparse(self, capsys, tmp_path, budget):
        out = tmp_path / "r.hf"
        with pytest.raises(SystemExit) as exc:
            main(["reference", "--algebra", "sample:m2.alg", "--out", str(out), "--budget", budget])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--budget: expected a nonnegative integer, got '{budget}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("ordering", ["-inf", "-1/2", "-1-", "-1e-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--algebra", "sample:m2.alg"],
            ["signature", "--form", "sample:xq.qf"],
            ["hsign", "--algebra", "sample:m2.alg", "--form", "sample:x.hf",
             "--eta", "sample:one.hf"],
        ],
        ids=["classify", "signature", "hsign"],
    )
    def test_at_value_may_start_with_a_dash(self, capsys, argv, ordering):
        joined = _main(capsys, *argv, f"--at={ordering}")
        spaced = _main(capsys, *argv, "--at", ordering)
        assert joined[0] == 0
        assert spaced == joined

    @pytest.mark.parametrize("tail", [[], ["--total"]], ids=["last", "before-flag"])
    def test_at_without_value_exits_through_argparse(self, capsys, tail):
        with pytest.raises(SystemExit) as exc:
            run(["signature", "--form", "sample:xq.qf", "--at", *tail], out=io.StringIO())
        assert exc.value.code == 2
        assert "argument --at: expected one argument" in capsys.readouterr().err

    def test_run_writes_to_stream(self, capsys):
        buf = io.StringIO()
        code = run(["classify", "--algebra", "sample:quat-x.alg", "--at", "-1"], out=buf)
        assert code == 0
        assert "quaternionic" in buf.getvalue()
        assert capsys.readouterr().out == ""

    def test_run_raises_package_errors(self):
        with pytest.raises(ValidationError, match="--at or --total"):
            run(["signature", "--form", "sample:xq.qf"], out=io.StringIO())
