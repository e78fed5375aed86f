"""Quadratic forms: signatures at orderings, certificates, indicator forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermsig.constructible import constructible_indicator, parse_constructible
from hermsig.errors import AdmissibilityError, ValidationError
from hermsig.polynomials import Polynomial, parse_polynomial, parse_rational_function
from hermsig.quadform import (
    DiagonalWitness,
    QuadraticForm,
    mahe_indicator,
    pad_indicator,
    signature_at,
    signature_via_diag,
    total_signature,
)
from hermsig.realroots import AlgebraicReal, isolate_real_roots
from hermsig.sper import (
    AlgebraicPoint,
    CutLeft,
    CutRight,
    MinusInfinity,
    PlusInfinity,
    RationalPoint,
    Ring,
    TheOrdering,
    parse_ordering,
    sign_of,
)
from hermsig.stepfun import StepFunction, interval_samples

QQ = Ring.rationals()
QX = Ring.polynomials()


def P(t):
    return parse_polynomial(t)


def RF(t):
    return parse_rational_function(t)


def sqrt2():
    return AlgebraicPoint(isolate_real_roots(P("x^2 - 2"))[1])


class TestQuadraticForm:
    def test_validation(self):
        with pytest.raises(ValidationError):
            QuadraticForm(QQ, [[1, 2]])
        with pytest.raises(ValidationError):
            QuadraticForm(QQ, [[1, 2], [3, 4]])
        with pytest.raises(ValidationError):
            QuadraticForm(QQ, [[P("x")]])

    def test_constructors(self):
        q = QuadraticForm.diagonal(QX, [RF("x"), RF("1")])
        assert q.dim == 2
        assert q.is_diagonal
        assert q.diagonal_entries() == [RF("x"), RF("1")]
        assert QuadraticForm.unit_form(QQ, 3).diagonal_entries() == [1, 1, 1]

    def test_operations(self):
        a = QuadraticForm.diagonal(QQ, [1, -2])
        b = QuadraticForm.diagonal(QQ, [3])
        assert a.direct_sum(b).diagonal_entries() == [1, -2, 3]
        assert a.tensor(b).diagonal_entries() == [3, -6]
        assert a.scaled(-1) == a.negated()
        assert a.negated().diagonal_entries() == [-1, 2]
        t = QuadraticForm.diagonal(QQ, [1, -1]).tensor(QuadraticForm.diagonal(QQ, [1, 1]))
        assert t.diagonal_entries() == [1, 1, -1, -1]

    def test_tensor_general(self):
        h = QuadraticForm(QQ, [[0, 1], [1, 0]])
        hh = h.tensor(h)
        assert hh.dim == 4
        assert signature_at(hh, TheOrdering()) == 0

    def test_ring_mismatch(self):
        with pytest.raises(ValidationError):
            QuadraticForm.diagonal(QQ, [1]).direct_sum(QuadraticForm.diagonal(QX, [1]))


class TestSignatureAt:
    def test_rational_base(self):
        assert signature_at(QuadraticForm.diagonal(QQ, [1, 1]), TheOrdering()) == 2
        assert signature_at(QuadraticForm.diagonal(QQ, [1, -1]), TheOrdering()) == 0
        assert signature_at(QuadraticForm(QQ, [[0, 1], [1, 0]]), TheOrdering()) == 0
        assert signature_at(QuadraticForm(QQ, [[1, 1], [1, 1]]), TheOrdering()) == 1
        assert signature_at(QuadraticForm(QQ, [[2, 1], [1, 2]]), TheOrdering()) == 2

    def test_polynomial_points(self):
        q = QuadraticForm.diagonal(QX, [RF("x")])
        assert signature_at(q, RationalPoint(2)) == 1
        assert signature_at(q, RationalPoint(-2)) == -1
        assert signature_at(q, RationalPoint(0)) == 0
        assert signature_at(q, CutRight(0)) == 1
        assert signature_at(q, CutLeft(0)) == -1
        assert signature_at(q, MinusInfinity()) == -1
        assert signature_at(q, PlusInfinity()) == 1

    def test_algebraic_point(self):
        q = QuadraticForm.diagonal(QX, [RF("x^2 - 2"), RF("x - 1")])
        assert signature_at(q, sqrt2()) == 1

    def test_nondiagonal_polynomial(self):
        # eigenvalues x + 1 and x - 1
        q = QuadraticForm(QX, [[RF("x"), RF("1")], [RF("1"), RF("x")]])
        assert signature_at(q, RationalPoint(2)) == 2
        assert signature_at(q, RationalPoint(0)) == 0
        assert signature_at(q, RationalPoint(-2)) == -2
        assert signature_at(q, RationalPoint(1)) == 1
        assert signature_at(q, CutLeft(1)) == 0
        assert signature_at(q, CutRight(1)) == 2

    def test_blocks_add(self):
        g = [
            [RF("x"), RF("1"), RF("0")],
            [RF("1"), RF("x"), RF("0")],
            [RF("0"), RF("0"), RF("-1")],
        ]
        q = QuadraticForm(QX, g)
        assert signature_at(q, RationalPoint(5)) == 1

    def test_inadmissible(self):
        ring = Ring.localized(P("x"))
        q = QuadraticForm.diagonal(ring, [RF("1/x")])
        with pytest.raises(AdmissibilityError):
            signature_at(q, RationalPoint(0))
        with pytest.raises(AdmissibilityError):
            signature_at(QuadraticForm.diagonal(QQ, [1]), RationalPoint(0))


class TestTotalSignature:
    def test_sign_of_x(self):
        q = QuadraticForm.diagonal(QX, [RF("x")])
        expected = StepFunction.build(QX, [Fraction(0)], lambda pt: sign_of(RF("x"), pt))
        assert total_signature(q) == expected

    def test_nondiagonal(self):
        q = QuadraticForm(QX, [[RF("x"), RF("1")], [RF("1"), RF("x")]])
        expected = StepFunction.build(
            QX,
            [Fraction(-1), Fraction(1)],
            lambda pt: sign_of(RF("x + 1"), pt) + sign_of(RF("x - 1"), pt),
        )
        ts = total_signature(q)
        assert ts == expected
        # the u1 root at 0 must have fused away
        assert len(ts.breaks) == 2
        # singular: <2x> plus a zero line
        q = QuadraticForm(QX, [[RF("x"), RF("x")], [RF("x"), RF("x")]])
        assert total_signature(q) == StepFunction.build(QX, [Fraction(0)], lambda pt: sign_of(RF("x"), pt))

    def test_rational_base(self):
        ts = total_signature(QuadraticForm.diagonal(QQ, [2, 3, -1]))
        assert ts.constant == 1
        assert ts.value_at(TheOrdering()) == 1

    def test_localized_puncture(self):
        ring = Ring.localized(P("x"))
        q = QuadraticForm.diagonal(ring, [RF("1/x")])
        ts = total_signature(q)
        assert len(ts.breaks) == 1
        assert ts.breaks[0].at_point is None
        assert ts.value_at(CutLeft(0)) == -1
        assert ts.value_at(CutRight(0)) == 1

    def test_algebraic_breaks(self):
        q = QuadraticForm.diagonal(QX, [RF("x^2 - 2")])
        ts = total_signature(q)
        assert len(ts.breaks) == 2
        assert ts.value_at(RationalPoint(0)) == -1
        assert ts.value_at(PlusInfinity()) == 1
        assert ts.value_at(sqrt2()) == 0


def random_symmetric(draw_rows):
    n = len(draw_rows)
    return [
        [Fraction(draw_rows[i][j] + draw_rows[j][i]) for j in range(n)]
        for i in range(n)
    ]


int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestSignatureViaDiag:
    @given(int_matrices)
    @settings(max_examples=60, deadline=None)
    def test_matches_charpoly_over_q(self, rows):
        g = random_symmetric(rows)
        q = QuadraticForm(QQ, g)
        w = signature_via_diag(q, TheOrdering())
        assert w.signature == signature_at(q, TheOrdering())
        w.verify(q)

    def test_all_point_kinds(self):
        q = QuadraticForm(QX, [[RF("x"), RF("1")], [RF("1"), RF("x")]])
        points = [
            RationalPoint(3),
            RationalPoint(Fraction(-1, 2)),
            CutLeft(1),
            CutRight(-1),
            MinusInfinity(),
            PlusInfinity(),
            sqrt2(),
        ]
        for pt in points:
            w = signature_via_diag(q, pt)
            assert w.signature == signature_at(q, pt), str(pt)
            w.verify(q)

    def test_algebraic_zero_pivot(self):
        q = QuadraticForm.diagonal(QX, [RF("x^2 - 2"), RF("1")])
        w = signature_via_diag(q, sqrt2())
        assert w.signature == 1
        w.verify(q)

    def test_algebraic_cross_term(self):
        g = [[RF("x^2 - 2"), RF("1")], [RF("1"), RF("2 - x^2")]]
        q = QuadraticForm(QX, g)
        w = signature_via_diag(q, sqrt2())
        assert w.signature == 0
        assert w.signature == signature_at(q, sqrt2())
        w.verify(q)

    def test_algebraic_vanishing_block(self):
        e = RF("x^2 - 2")
        q = QuadraticForm(QX, [[e, e], [e, e]])
        w = signature_via_diag(q, sqrt2())
        assert w.signature == 0
        assert signature_at(q, sqrt2()) == 0
        w.verify(q)

    def test_localized_scale(self):
        ring = Ring.localized(P("x"))
        q = QuadraticForm(ring, [[RF("1/x"), RF("1")], [RF("1"), RF("x")]])
        theta = AlgebraicPoint(isolate_real_roots(P("x^2 - 3"))[1])
        w = signature_via_diag(q, theta)
        assert w.signature == signature_at(q, theta)
        w.verify(q)

    def test_tampered_witness_fails(self):
        q = QuadraticForm.diagonal(QQ, [1, -1])
        w = signature_via_diag(q, TheOrdering())
        bad = DiagonalWitness(w.point, w.transform, w.diagonal, w.scale, w.modulus, w.signature + 2)
        with pytest.raises(ValidationError):
            bad.verify(q)
        bad2 = DiagonalWitness(
            w.point, w.transform, [Fraction(1), Fraction(1)], w.scale, w.modulus, 2
        )
        with pytest.raises(ValidationError):
            bad2.verify(q)

    def test_singular_transform_fails(self):
        q = QuadraticForm.diagonal(QQ, [1, 1])
        z = Fraction(0)
        bad = DiagonalWitness(
            TheOrdering(), [[z, z], [z, z]], [z, z], Fraction(1), None, 0
        )
        with pytest.raises(ValidationError):
            bad.verify(q)


POINT_POOL = [
    RationalPoint(Fraction(7, 3)),
    RationalPoint(-1),
    CutLeft(0),
    CutRight(0),
    CutLeft(Fraction(1, 2)),
    MinusInfinity(),
    PlusInfinity(),
]

ENTRY_POOL = [
    RF("x"),
    RF("x - 1"),
    RF("x + 2"),
    RF("x^2 - 2"),
    RF("1"),
    RF("-1"),
    RF("0"),
    RF("x^2 + 1"),
]


def outer(v, c="1"):
    """c * v v^T: a rank-1 Gram matrix."""
    return [[RF(c) * a * b for b in v] for a in v]


def mat_add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def direct_sum(a, b):
    zero = RF("0")
    return [r + [zero] * len(b) for r in a] + [[zero] * len(a) + r for r in b]


# (ring, singular blocks that are not diagonal, a nonsingular block): the
# trailing characteristic-polynomial coefficients of the singular ones vanish
SINGULAR_BLOCKS = [
    (
        QX,
        [
            [[RF("x"), RF("x")], [RF("x"), RF("x")]],
            outer([RF("1"), RF("x"), RF("3")], "x^2 - 2"),
            mat_add(outer([RF("x"), RF("1"), RF("0")]), outer([RF("1"), RF("0"), RF("x + 1")], "x - 1")),
        ],
        [[RF("x"), RF("1"), RF("0")], [RF("1"), RF("x^2 - 2"), RF("1")], [RF("0"), RF("1"), RF("-x")]],
    ),
    (
        Ring.localized(P("x")),
        [
            [[RF("1/x"), RF("1")], [RF("1"), RF("x")]],
            outer([RF("1/x"), RF("1"), RF("x")], "(x - 1)/x"),
            mat_add(outer([RF("1"), RF("1/x"), RF("0")]), outer([RF("0"), RF("1"), RF("x - 3")], "-1/x")),
        ],
        [[RF("1/x"), RF("1")], [RF("1"), RF("-x")]],
    ),
]


class TestRoutesAgree:
    @given(
        st.lists(st.sampled_from(ENTRY_POOL), min_size=1, max_size=4),
        st.sampled_from(POINT_POOL),
    )
    @settings(max_examples=60, deadline=None)
    def test_diagonal_forms(self, entries, pt):
        q = QuadraticForm.diagonal(QX, entries)
        w = signature_via_diag(q, pt)
        assert w.signature == signature_at(q, pt)
        w.verify(q)

    @given(
        st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3),
        st.sampled_from(POINT_POOL),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_entry_forms(self, rows, pt):
        x = RF("x")
        g = [
            [x * (rows[i][j] + rows[j][i]) + (i == j) for j in range(3)]
            for i in range(3)
        ]
        q = QuadraticForm(QX, g)
        w = signature_via_diag(q, pt)
        assert w.signature == signature_at(q, pt)
        w.verify(q)

    def test_total_signature_vs_diag_route(self):
        # every cell, against both routes; singular blocks alone and next to
        # a nonsingular one, over Q[x] and Q[x][1/x]
        forms = [QuadraticForm(QX, [[RF("x"), RF("x^2 - 2")], [RF("x^2 - 2"), RF("1")]])]
        for ring, singular, regular in SINGULAR_BLOCKS:
            for gram in [*singular, regular, *(direct_sum(g, regular) for g in singular)]:
                forms.append(QuadraticForm(ring, gram))
        for q in forms:
            ts = total_signature(q)
            samples = iter(interval_samples([b.center for b in ts.breaks]))
            for kind, loc, value in ts.cells():
                pt = RationalPoint(next(samples)) if kind == "interval" else loc
                assert signature_at(q, pt) == value, f"{kind} at {loc}"
                w = signature_via_diag(q, pt)
                assert w.signature == value, f"{kind} at {loc}"
                w.verify(q)


class TestMaheIndicator:
    def check_indicator(self, text, ring=QX):
        u = parse_constructible(text)
        q, k = mahe_indicator(u, ring)
        assert q.is_diagonal
        ts = total_signature(q)
        for v in ts.value_map():
            assert v in (0, 2 ** k)
        assert ts.map_values(lambda v: 1 if v == 0 else 0) == constructible_indicator(ring, u)
        return q, k

    def test_halfspace(self):
        q, k = self.check_indicator("H(x)")
        assert k == 1
        assert q.dim == 4

    def test_complement(self):
        q, k = self.check_indicator("not H(-x)")
        assert k == 1
        assert q.dim == 6

    def test_union(self):
        q, k = self.check_indicator("H(x) or H(-x - 1)")
        assert k == 2
        assert q.dim == 16

    def test_intersection_de_morgan(self):
        q, k = self.check_indicator("H(x) and H(1 - x)")
        assert k == 2

    def test_nested(self):
        self.check_indicator("not (H(x) or H(-x - 1))")
        self.check_indicator("H(x + 1) and not H(x - 1)")

    def test_rational_base(self):
        u = parse_constructible("H(3)")
        q, k = mahe_indicator(u, QQ)
        assert signature_at(q, TheOrdering()) == 0
        u2 = parse_constructible("H(-3)")
        q2, k2 = mahe_indicator(u2, QQ)
        assert signature_at(q2, TheOrdering()) == 2 ** k2

    def test_localized(self):
        ring = Ring.localized(P("x"))
        u = parse_constructible("H(x)")
        q, k = mahe_indicator(u, ring)
        ts = total_signature(q)
        assert ts.map_values(lambda v: 1 if v == 0 else 0) == constructible_indicator(ring, u)

    def test_pad(self):
        u = parse_constructible("H(x)")
        q, k = mahe_indicator(u, QX)
        q2, k2 = pad_indicator(q, k, 2)
        assert k2 == 3
        assert q2.dim == 4 * q.dim
        ts = total_signature(q2)
        assert ts.value_at(MinusInfinity()) == 8
        assert ts.value_at(PlusInfinity()) == 0

    def test_pad_zero(self):
        u = parse_constructible("H(x)")
        q, k = mahe_indicator(u, QX)
        q2, k2 = pad_indicator(q, k, 0)
        assert (q2, k2) == (q, k)
