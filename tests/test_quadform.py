"""Quadratic forms: signatures at orderings, certificates, indicator forms."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermsig.constructible import constructible_indicator, parse_constructible
from hermsig.errors import AdmissibilityError, ValidationError
from hermsig.polynomials import (
    Polynomial,
    RationalFunction,
    parse_polynomial,
    parse_rational_function,
    poly_lcm,
)
from hermsig.quadform import (
    DiagonalWitness,
    QuadraticForm,
    mahe_indicator,
    pad_indicator,
    signature_at,
    signature_via_diag,
    total_signature,
)
from hermsig.realroots import AlgebraicReal, isolate_real_roots, sgn, sign_at
from hermsig.sper import (
    AlgebraicPoint,
    CutLeft,
    CutRight,
    MinusInfinity,
    PlusInfinity,
    RationalPoint,
    Ring,
    TheOrdering,
    ensure_admissible,
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
        for q, pt, sig in TAMPER_INPUTS:
            w = signature_via_diag(q, pt)
            assert w.signature == sig
            w.verify(q)
            bad = DiagonalWitness(pt, w.transform, w.diagonal, w.scale, w.modulus, w.signature + 2)
            with pytest.raises(ValidationError, match="signature"):
                bad.verify(q)
            wrong = [-w.diagonal[0], *w.diagonal[1:]]
            bad2 = DiagonalWitness(pt, w.transform, wrong, w.scale, w.modulus, w.signature)
            with pytest.raises(ValidationError, match="congruence fails"):
                bad2.verify(q)

    def test_singular_transform_fails(self):
        for q, pt, _sig in TAMPER_INPUTS:
            w = signature_via_diag(q, pt)
            z = w.transform[0][0] * 0
            bad = DiagonalWitness(pt, [[z, z], [z, z]], [z, z], w.scale, w.modulus, 0)
            with pytest.raises(ValidationError, match="singular"):
                bad.verify(q)

    def test_malformed_witness_raises_validation_error(self):
        # [[1/x, 1], [1, x]] over Q[x][1/x]: x^2 clears its denominators
        ring = Ring.localized(P("x"))
        q = QuadraticForm(ring, [[RF("1/x"), RF("1")], [RF("1"), RF("x")]])
        theta = AlgebraicPoint(isolate_real_roots(P("x^2 - 3"))[1])
        w = signature_via_diag(q, theta)
        cut = signature_via_diag(q, CutLeft(1))
        junk = "junk"
        cases = [
            (w, dict(scale=1), "scale does not clear"),
            (w, dict(scale=Polynomial.one()), "scale does not clear"),
            (w, dict(scale=junk), "not an element of Q\\(x\\)"),
            (w, dict(modulus=Polynomial.zero()), "modulus is zero"),
            (w, dict(transform=[[RF("1/x"), RF("0")], [RF("0"), RF("1")]]), "not a polynomial"),
            (w, dict(diagonal=[junk, Polynomial.one()]), "not an element"),
            (cut, dict(transform=[[RF("1")], [RF("0")]]), "size does not match"),
            (cut, dict(transform=[[RF("1"), RF("0"), RF("0")], [RF("0"), RF("1")]]), "size"),
            (cut, dict(transform=[[junk, RF("0")], [RF("0"), RF("1")]]), "not an element of Q\\(x\\)"),
            (cut, dict(diagonal=[None, RF("1")]), "not an element"),
        ]
        for base, change, message in cases:
            fields = dict(
                point=base.point, transform=base.transform, diagonal=base.diagonal,
                scale=base.scale, modulus=base.modulus, signature=base.signature,
            )
            fields.update(change)
            with pytest.raises(ValidationError, match=message):
                DiagonalWitness(**fields).verify(q)
        over_q = QuadraticForm.diagonal(QQ, [1, -1])
        with pytest.raises(ValidationError, match="not an element of Q$"):
            DiagonalWitness(TheOrdering(), [[RF("1"), 0], [0, 1]], [1, -1], 1, None, 0).verify(over_q)

    def test_hand_made_witnesses_in_other_arithmetic(self):
        # entries are coerced into the field of the check: an int or
        # Fraction identity certifies a diagonal form at a cut, Q or a point
        F = Fraction
        d = QuadraticForm.diagonal(Ring.localized(P("x")), [RF("x"), RF("-1/x")])
        for pt, diag in [(CutLeft(1), d.diagonal_entries()), (RationalPoint(2), [F(2), F(-1, 2)])]:
            for one, zero in [(F(1), F(0)), (1, 0)]:
                DiagonalWitness(pt, [[one, zero], [zero, one]], diag, F(1), None, 0).verify(d)
        DiagonalWitness(CutLeft(1), [[1, 0], [0, 1]], [F(1), F(-1)], 1, None, 0).verify(
            QuadraticForm.diagonal(QX, [1, -1])
        )
        DiagonalWitness(TheOrdering(), [[1, 0], [0, 1]], [1, -1], 1, None, 0).verify(
            QuadraticForm.diagonal(QQ, [1, -1])
        )


# (form, ordering, signature): two forms over Q, and a nondiagonal form of
# signature +2 at a cut, an end, a rational point of a line and an
# algebraic point
TAMPER_INPUTS = [
    (QuadraticForm.diagonal(QQ, [1, -1]), TheOrdering(), 0),
    (QuadraticForm(QQ, [[2, 1], [1, 2]]), TheOrdering(), 2),
    (QuadraticForm(QX, [[RF("x"), RF("1")], [RF("1"), RF("x")]]), CutRight(1), 2),
    (QuadraticForm(QX, [[RF("x"), RF("1")], [RF("1"), RF("x")]]), PlusInfinity(), 2),
    (QuadraticForm(QX, [[RF("x"), RF("1")], [RF("1"), RF("x")]]), RationalPoint(3), 2),
    (QuadraticForm(QX, [[RF("x"), RF("1")], [RF("1"), RF("x")]]), sqrt2(), 2),
]


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


#### the diagonalizers as they were before both ran one elimination
#### (`linalg.congruence_diagonalize`): the reference for every witness field


def reference_symmetric_diagonalize(g, seen):
    """The field diagonalizer; `seen` counts the moves it makes."""
    n = len(g)
    if n == 0:
        return [], []
    one = RationalFunction(1) if isinstance(g[0][0], RationalFunction) else Fraction(1)
    zero = one - one
    d = [list(row) for row in g]
    c = [[one if i == j else zero for j in range(n)] for i in range(n)]

    def col_op(dst, src, f):
        for r in range(n):
            d[r][dst] = d[r][dst] + f * d[r][src]
        for r in range(n):
            d[dst][r] = d[dst][r] + f * d[src][r]
        for r in range(n):
            c[r][dst] = c[r][dst] + f * c[r][src]

    def swap(i, j):
        for r in range(n):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        d[i], d[j] = d[j], d[i]
        for r in range(n):
            c[r][i], c[r][j] = c[r][j], c[r][i]

    for k in range(n):
        if not d[k][k]:
            for l in range(k + 1, n):
                if d[l][l]:
                    seen["field swap"] += 1
                    swap(k, l)
                    break
            else:
                found = None
                for l in range(k, n):
                    for m_ in range(l + 1, n):
                        if d[l][m_]:
                            found = (l, m_)
                            break
                    if found:
                        break
                if found is None:
                    seen["field zero block"] += 1
                    break
                seen["field cross term"] += 1
                l, m_ = found
                col_op(l, m_, one)
                if l != k:
                    swap(k, l)
        pivot = d[k][k]
        if not pivot:
            continue
        for j in range(k + 1, n):
            if d[k][j]:
                col_op(j, k, -d[k][j] / pivot)
    return [d[i][i] for i in range(n)], c


def reference_diagonalize_at_algebraic(form, point, seen):
    """The modular diagonalizer; `seen` counts the moves it makes."""
    theta = point.value
    f = theta.defining
    n = form.dim
    scale = Polynomial.one()
    for row in form.gram:
        for e in row:
            scale = poly_lcm(scale, e.den)
    g = [[(e * scale * scale).as_polynomial() % f for e in row] for row in form.gram]
    v = [[Polynomial.one() if i == j else Polynomial.zero() for j in range(n)] for i in range(n)]

    def zero_at(p):
        return p.is_zero or sign_at(p, theta) == 0

    def col_op(dst, src, p, a):
        for r in range(n):
            g[r][dst] = (p * g[r][dst] - a * g[r][src]) % f
        for r in range(n):
            g[dst][r] = (p * g[dst][r] - a * g[src][r]) % f
        for r in range(n):
            v[r][dst] = (p * v[r][dst] - a * v[r][src]) % f

    def swap(i, j):
        for r in range(n):
            g[r][i], g[r][j] = g[r][j], g[r][i]
        g[i], g[j] = g[j], g[i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    one = Polynomial.one()
    for k in range(n):
        if zero_at(g[k][k]):
            for l in range(k + 1, n):
                if not zero_at(g[l][l]):
                    seen["modular swap"] += 1
                    swap(k, l)
                    break
            else:
                found = None
                for l in range(k, n):
                    for m_ in range(l + 1, n):
                        if not zero_at(g[l][m_]):
                            found = (l, m_)
                            break
                    if found:
                        break
                if found is None:
                    active = [g[i][j] for i in range(k, n) for j in range(k, n)]
                    seen["modular block vanishing at the point" if any(active) else "modular zero block"] += 1
                    break
                seen["modular cross term"] += 1
                l, m_ = found
                col_op(l, m_, one, -one)
                if l != k:
                    swap(k, l)
        pivot = g[k][k]
        for j in range(k + 1, n):
            if not g[k][j].is_zero:
                col_op(j, k, pivot, g[k][j])
    diag = [g[i][i] for i in range(n)]
    sig = sum(sign_at(d, theta) for d in diag)
    return DiagonalWitness(point, v, diag, scale, f, sig)


def reference_witness(form, point, seen):
    ensure_admissible(form.ring, point)
    if isinstance(point, (TheOrdering, RationalPoint)):
        if form.ring.is_rational_base:
            g = [list(row) for row in form.gram]
        else:
            g = [[e(point.value) for e in row] for row in form.gram]
        diag, c = reference_symmetric_diagonalize(g, seen)
        return DiagonalWitness(point, c, diag, Fraction(1), None, sum(sgn(d) for d in diag))
    if isinstance(point, AlgebraicPoint):
        return reference_diagonalize_at_algebraic(form, point, seen)
    diag, c = reference_symmetric_diagonalize([list(r) for r in form.gram], seen)
    return DiagonalWitness(point, c, diag, form.ring.one, None, sum(sign_of(d, point) for d in diag))


def witness_fields(w):
    """Every field of a witness, each entry with its type."""

    def typed(v):
        if isinstance(v, list):
            return [typed(e) for e in v]
        return (type(v).__name__, v)

    return [typed(w.transform), typed(w.diagonal), typed(w.scale), typed(w.modulus), w.signature]


PARITY_S = P("x^2 - 2")
PARITY_RINGS = [QQ, QX, Ring.localized(PARITY_S)]
ROOTS_3, ROOTS_2 = isolate_real_roots(P("x^2 - 3")), isolate_real_roots(PARITY_S)
CUBIC = isolate_real_roots(P("x^3 - x - 1"))
# sqrt(3) defined by a reducible cubic: reduced entries that are not zero
# may vanish there
REDUCIBLE = isolate_real_roots(P("(x^2 - 3)*(x - 1)"))
PARITY_POINTS = [
    RationalPoint(0), RationalPoint(Fraction(7, 3)), CutLeft(0), CutRight(Fraction(1, 2)),
    CutLeft(ROOTS_3[1]), CutRight(ROOTS_2[0]), MinusInfinity(), PlusInfinity(),
    AlgebraicPoint(ROOTS_3[1]), AlgebraicPoint(REDUCIBLE[2]), AlgebraicPoint(CUBIC[0]),
    AlgebraicPoint(ROOTS_2[1]),
]


def parity_gram(rng, ring, n):
    """A random symmetric Gram matrix: dense, of rank at most 2, of zero
    diagonal, times x^2 - 3, or with a trailing block times x^2 - 3."""

    def entry():
        if ring is QQ:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        num = Polynomial(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))
        den = PARITY_S ** rng.randint(1, 2) if ring.s != 1 and rng.random() < 0.4 else 1
        return RationalFunction(num, den)

    g = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.7:
                g[i][j] = g[j][i] = entry()
    kind = rng.randrange(5)
    if kind == 1:
        v, w = [entry() for _ in range(n)], [entry() for _ in range(n)]
        g = [[v[i] * v[j] - w[i] * w[j] for j in range(n)] for i in range(n)]
    elif kind == 2:
        for i in range(n):
            g[i][i] = ring.zero
    elif kind >= 3 and ring is not QQ:
        t = ring.coerce(P("x^2 - 3"))
        cut = 0 if kind == 3 else rng.randrange(n)
        g = [[e * t if max(i, j) >= cut else e for j, e in enumerate(row)] for i, row in enumerate(g)]
    return g


class TestDiagonalizerParity:
    """signature_via_diag gives the witness the two diagonalizers gave before
    they shared one elimination, field for field, at every kind of
    ordering."""

    def test_witnesses_match_the_reference(self):
        seen = Counter()
        rng = random.Random(24)
        compared = 0
        for trial in range(60):
            ring = PARITY_RINGS[trial % 3]
            q = QuadraticForm(ring, parity_gram(rng, ring, rng.randint(1, 5)))
            for pt in [TheOrdering()] if ring is QQ else PARITY_POINTS:
                try:
                    want = reference_witness(q, pt, seen)
                except AdmissibilityError:
                    with pytest.raises(AdmissibilityError):
                        signature_via_diag(q, pt)
                    continue
                got = signature_via_diag(q, pt)
                assert witness_fields(got) == witness_fields(want), (q, pt)
                got.verify(q)
                compared += 1
        assert compared >= 400
        moves = ("swap", "cross term", "zero block")
        for name in [f"field {m}" for m in moves] + [f"modular {m}" for m in moves]:
            assert seen[name] >= 10, (name, seen)
        assert seen["modular block vanishing at the point"] >= 10, seen


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
