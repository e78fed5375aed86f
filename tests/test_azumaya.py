"""Algebra presentations: arithmetic, validation, classification."""

import time
from fractions import Fraction

import pytest

from hermsig import (
    CutLeft,
    CutRight,
    MinusInfinity,
    PlusInfinity,
    RationalPoint,
    Ring,
    TheOrdering,
    sets_equal,
)
from hermsig.azumaya import (
    CELL_COMPLEX,
    CELL_NAMES,
    CELL_QUATERNION_PAIR,
    CELL_QUATERNIONIC,
    CELL_REAL_PAIR,
    CELL_REAL_SPLIT,
    AlgebraPresentation,
    classification_map,
    classify_at,
    divisor_map,
    fiber_presentation,
    matrix_algebra,
    nil_set,
    product_with_exchange,
    quaternion_algebra,
    split_model,
    tensor_product,
    _solve_in_span,
)
from hermsig.constructible import HalfSpace
from hermsig.documents import load_algebra, read_document
from hermsig.errors import ValidationError
from hermsig.linalg import field_det, mat_mul
from hermsig.polynomials import Polynomial
from hermsig.quadform import signature_at

Q = Ring.rationals()
X = Polynomial((0, 1))
RX = Ring.localized(X)
QX = Ring.polynomials()


def trace_of(mat):
    acc = mat[0][0]
    for i in range(1, len(mat)):
        acc = acc + mat[i][i]
    return acc


class TestArithmetic:
    def test_quaternion_table(self):
        h = quaternion_algebra(Q, Fraction(2), Fraction(-3))
        one, i, j, k = (h.basis_vector(t) for t in range(4))
        assert h.multiply(i, i) == [Fraction(2), 0, 0, 0]
        assert h.multiply(j, j) == [Fraction(-3), 0, 0, 0]
        assert h.multiply(i, j) == k
        assert h.multiply(j, i) == [0, 0, 0, Fraction(-1)]
        # k^2 = -ab
        assert h.multiply(k, k) == [Fraction(6), 0, 0, 0]

    def test_conjugation(self):
        h = quaternion_algebra(Q, -1, -1)
        v = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
        assert h.apply_involution(v) == [Fraction(1), Fraction(-2), Fraction(-3), Fraction(-4)]
        # conjugation reverses products
        w = [Fraction(0), Fraction(1), Fraction(1), Fraction(0)]
        lhs = h.apply_involution(h.multiply(v, w))
        rhs = h.multiply(h.apply_involution(w), h.apply_involution(v))
        assert lhs == rhs

    def test_mult_matrices_agree_with_multiply(self):
        a = matrix_algebra(Q, 2)
        u = [Fraction(n) for n in (1, 2, 0, -1)]
        v = [Fraction(n) for n in (3, 0, 1, 1)]
        want = [[e] for e in a.multiply(u, v)]
        assert mat_mul(a.left_mult_matrix(u), [[e] for e in v]) == want
        assert mat_mul(a.right_mult_matrix(v), [[e] for e in u]) == want

    def test_matrix_units(self):
        a = matrix_algebra(Q, 3)
        e01 = a.basis_vector(0 * 3 + 1)
        e12 = a.basis_vector(1 * 3 + 2)
        e02 = a.basis_vector(0 * 3 + 2)
        assert a.multiply(e01, e12) == e02
        assert a.multiply(e12, e01) == a.zero_vector()
        # transpose involution
        assert a.apply_involution(e01) == a.basis_vector(1 * 3 + 0)

    def test_unit_is_identity(self):
        for alg in (matrix_algebra(Q, 2), quaternion_algebra(Q, 2, 3)):
            v = [Fraction(i + 1) for i in range(alg.m)]
            assert alg.multiply(list(alg.unit), v) == v
            assert alg.multiply(v, list(alg.unit)) == v


class TestTraces:
    def test_trace_matrix_against_dense_trace(self):
        # oracle: T[i][j] is the matrix trace of left multiplication by e_i e_j
        for alg in (
            quaternion_algebra(Q, 2, -3),
            matrix_algebra(Q, 2),
            fiber_presentation(Q, "gauss"),
        ):
            t = alg.trace_matrix()
            for i in range(alg.m):
                for j in range(alg.m):
                    prod = alg.multiply(alg.basis_vector(i), alg.basis_vector(j))
                    assert t[i][j] == trace_of(alg.left_mult_matrix(prod))

    def test_quaternion_trace_form(self):
        a, b = Fraction(2), Fraction(-3)
        h = quaternion_algebra(Q, a, b)
        assert h.trace_form().diagonal_entries() == [2, 2 * a, 2 * b, -2 * a * b]

    def test_hamilton_trace_form(self):
        h = quaternion_algebra(Q, -1, -1)
        assert h.trace_form().diagonal_entries() == [2, -2, -2, -2]

    def test_matrix_trace_form(self):
        a = matrix_algebra(Q, 2)
        g = a.trace_form().gram
        # reduced trace of e_pq e_rs is 1 when q = r and s = p, else 0
        for p in range(2):
            for q in range(2):
                for r in range(2):
                    for s in range(2):
                        want = Fraction(1) if (q == r and s == p) else Fraction(0)
                        assert g[p * 2 + q][r * 2 + s] == want


class TestValidation:
    def test_constructors_validate(self):
        for alg in (
            matrix_algebra(Q, 3),
            quaternion_algebra(Q, 2, -3),
            quaternion_algebra(RX, X, -1),
            fiber_presentation(Q, "gauss"),
            fiber_presentation(Q, "rational"),
            tensor_product(matrix_algebra(Q, 2), quaternion_algebra(Q, -1, -1)),
            product_with_exchange(quaternion_algebra(Q, -1, -1)),
        ):
            report = alg.validate()
            assert report.checks

    def test_report_mentions_unit_determinant(self):
        rep = quaternion_algebra(RX, X, -1).validate()
        text = str(rep)
        assert "unit" in text and "classification" in text

    def test_corrupted_table_fails(self):
        good = quaternion_algebra(Q, -1, -1)
        mul = [list(row) for row in good.mul]
        mul[1][2] = ((3, Fraction(2)),)  # ij = 2k breaks the hint and associativity
        bad = AlgebraPresentation(
            Q, mul, good.invol_cols, good.unit, hint=good.hint, label="bad"
        )
        with pytest.raises(ValidationError):
            bad.validate()

    @pytest.mark.parametrize(
        "build, kind",
        [
            (lambda: matrix_algebra(Q, 3), "matrix-units?"),
            (lambda: tensor_product(matrix_algebra(Q, 2), quaternion_algebra(Q, -1, -1)), "tensor"),
            (lambda: product_with_exchange(quaternion_algebra(Q, -1, -1)), "exchange"),
        ],
        ids=["matrix-units", "tensor", "exchange"],
    )
    def test_corrupted_hinted_table_fails(self, build, kind):
        good = build()
        mul = [list(row) for row in good.mul]
        assert mul[1][2] != ((3, Fraction(2)),)
        mul[1][2] = ((3, Fraction(2)),)  # one cell off the table the hint implies
        bad = AlgebraPresentation(
            Q, mul, good.invol_cols, good.unit, hint=good.hint, label="bad"
        )
        with pytest.raises(ValidationError, match=f"{kind} hint"):
            bad.validate()

    @pytest.mark.parametrize(
        "hint, table, match",
        [
            (("matrix-units", 10**6), 2, "hint disagrees with the rank"),
            (("matrix-units", 3), 2, "hint disagrees with the rank"),
            (("tensor", matrix_algebra(Q, 2), matrix_algebra(Q, 2)), 2, "hint disagrees with the rank"),
            (("exchange", matrix_algebra(Q, 2)), 2, "hint disagrees with the rank"),
            (("quaternion", Fraction(-1), Fraction(-1)), 3, "quaternion hint"),
        ],
        ids=["matrix-units-huge", "matrix-units", "tensor", "exchange", "quaternion"],
    )
    def test_hint_of_another_rank_fails_fast(self, hint, table, match):
        # the table is that of M_2 or M_3, of rank 4 or 9
        good = matrix_algebra(Q, table)
        bad = AlgebraPresentation(
            Q, good.mul, good.invol_cols, good.unit, hint=hint, label="bad"
        )
        start = time.monotonic()
        with pytest.raises(ValidationError, match=match):
            bad.validate()
        assert time.monotonic() - start < 1

    def test_unknown_hint_fails(self):
        good = matrix_algebra(Q, 2)
        bad = AlgebraPresentation(
            Q, good.mul, good.invol_cols, good.unit, hint=("diagonal", 2), label="bad"
        )
        with pytest.raises(ValidationError, match="unknown structure hint"):
            bad.validate()

    def test_corrupted_involution_fails(self):
        good = quaternion_algebra(Q, -1, -1)
        cols = list(good.invol_cols)
        cols[1] = ((1, Fraction(1)),)  # fixing i alone is not anti-multiplicative
        bad = AlgebraPresentation(Q, good.mul, cols, good.unit, label="bad")
        with pytest.raises(ValidationError, match="anti"):
            bad.validate()

    def test_wrong_unit_fails(self):
        good = quaternion_algebra(Q, -1, -1)
        bad = AlgebraPresentation(
            Q, good.mul, good.invol_cols, good.basis_vector(1), label="bad"
        )
        with pytest.raises(ValidationError, match="identity"):
            bad.validate()

    def test_size_guard_without_hint(self):
        big = matrix_algebra(Q, 5)
        stripped = AlgebraPresentation(
            Q, big.mul, big.invol_cols, big.unit, label="stripped"
        )
        with pytest.raises(ValidationError, match="hint"):
            stripped.validate()

    def test_identity_involution_rejected_on_quadratic_centre(self):
        # Q[t]/(t^2 - 2) with the identity involution: the fixed centre is too big
        gamma = [
            (0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 2),
        ]
        sigma = [(0, 0, 1), (1, 1, 1)]
        alg = AlgebraPresentation.from_gamma(Q, 2, gamma, sigma, [1, 0], label="Q(sqrt2) id")
        with pytest.raises(ValidationError, match="fixed"):
            alg.validate()

    def test_quadratic_field_with_flip(self):
        gamma = [
            (0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 2),
        ]
        sigma = [(0, 0, 1), (1, 1, -1)]
        alg = AlgebraPresentation.from_gamma(Q, 2, gamma, sigma, [1, 0], label="Q(sqrt2)")
        alg.validate()
        assert alg.kind == "unitary"
        c = classify_at(alg, TheOrdering())
        assert c.cell == CELL_REAL_PAIR and c.nil

    def test_from_gamma_accumulates_duplicates(self):
        gamma = [(0, 0, 0, Fraction(1, 2)), (0, 0, 0, Fraction(1, 2))]
        sigma = [(0, 0, 1)]
        alg = AlgebraPresentation.from_gamma(Q, 1, gamma, sigma, [1])
        alg.validate()
        assert alg.multiply([Fraction(1)], [Fraction(1)]) == [Fraction(1)]

    def test_non_azumaya_quaternion(self):
        # (x, -1) over plain Q[x]: x is not a unit, the table is degenerate at 0
        bad = quaternion_algebra(Ring.polynomials(), X, -1)
        with pytest.raises(ValidationError, match="unit"):
            bad.validate()

    def test_gamma_index_range(self):
        with pytest.raises(ValidationError, match="range"):
            AlgebraPresentation.from_gamma(Q, 1, [(0, 0, 1, 1)], [(0, 0, 1)], [1])


class TestCentre:
    def test_central_simple_examples(self):
        for alg in (matrix_algebra(Q, 2), quaternion_algebra(Q, 2, -3)):
            assert alg.centre_rank == 1
            assert alg.degree == 2

    def test_quadratic_centre_examples(self):
        g = fiber_presentation(Q, "gauss")
        assert g.centre_rank == 2 and g.degree == 1
        e = product_with_exchange(matrix_algebra(Q, 2))
        assert e.centre_rank == 2 and e.degree == 2

    def test_tensor_centre(self):
        a = tensor_product(matrix_algebra(Q, 2), quaternion_algebra(Q, -1, -1))
        assert a.centre_rank == 1 and a.degree == 4

    def test_direct_centre_matches_hinted(self):
        hinted = quaternion_algebra(Q, 2, -3)
        bare = AlgebraPresentation(
            Q, hinted.mul, hinted.invol_cols, hinted.unit, label="bare"
        )
        assert len(bare.centre_basis()) == 1
        z = bare.centre_basis()[0]
        assert bare._commutes_with_all(z)


class TestSymmetricElements:
    def test_dimensions(self):
        assert len(quaternion_algebra(Q, -1, -1).symmetric_element_basis()) == 1
        assert len(quaternion_algebra(Q, -1, -1, twist=True).symmetric_element_basis()) == 3
        assert len(matrix_algebra(Q, 2).symmetric_element_basis()) == 3
        assert len(matrix_algebra(Q, 3).symmetric_element_basis()) == 6

    def test_basis_elements_are_fixed(self):
        for alg in (matrix_algebra(Q, 2), quaternion_algebra(RX, X, -1)):
            for v in alg.symmetric_element_basis():
                assert alg.is_symmetric_element(v)


class TestClassification:
    def test_matrix_algebras(self):
        for n in (1, 2, 3, 4):
            a = matrix_algebra(Q, n)
            c = classify_at(a, TheOrdering())
            assert a.kind == "orthogonal"
            assert c.trace_signature == n
            assert c.cell == CELL_REAL_SPLIT
            assert not c.nil and c.divisor == 1

    def test_hamilton(self):
        c = classify_at(quaternion_algebra(Q, -1, -1), TheOrdering())
        assert c.kind == "symplectic"
        assert c.cell == CELL_QUATERNIONIC
        assert c.trace_signature == -2
        assert not c.nil and c.divisor == 2

    def test_twisted_hamilton_is_nil(self):
        c = classify_at(quaternion_algebra(Q, -1, -1, twist=True), TheOrdering())
        assert c.kind == "orthogonal"
        assert c.cell == CELL_QUATERNIONIC
        assert c.nil and c.divisor == 0

    def test_split_quaternion_cells(self):
        for a, b in ((1, 1), (2, -3), (-1, 5)):
            c = classify_at(quaternion_algebra(Q, a, b), TheOrdering())
            assert c.cell == CELL_REAL_SPLIT
            assert c.kind == "symplectic" and c.nil

    def test_exchange_products_are_nil_everywhere(self):
        for base in (matrix_algebra(Q, 2), quaternion_algebra(Q, -1, -1)):
            e = product_with_exchange(base)
            c = classify_at(e, TheOrdering())
            assert e.kind == "unitary" and c.nil
        assert classify_at(
            product_with_exchange(matrix_algebra(Q, 2)), TheOrdering()
        ).cell == CELL_REAL_PAIR
        assert classify_at(
            product_with_exchange(quaternion_algebra(Q, -1, -1)), TheOrdering()
        ).cell == CELL_QUATERNION_PAIR

    def test_gauss_fiber_is_complex(self):
        c = classify_at(fiber_presentation(Q, "gauss"), TheOrdering())
        assert c.cell == CELL_COMPLEX and not c.nil and c.divisor == 1

    def test_quaternion_over_line(self):
        b = quaternion_algebra(RX, X, -1)
        cmap = classification_map(b)
        assert cmap.value_at(RationalPoint(Fraction(-2))) == CELL_QUATERNIONIC
        assert cmap.value_at(RationalPoint(Fraction(3))) == CELL_REAL_SPLIT
        assert cmap.value_at(CutLeft(Fraction(0))) == CELL_QUATERNIONIC
        assert cmap.value_at(CutRight(Fraction(0))) == CELL_REAL_SPLIT
        assert cmap.value_at(MinusInfinity()) == CELL_QUATERNIONIC
        assert cmap.value_at(PlusInfinity()) == CELL_REAL_SPLIT

    def test_nil_set_over_line(self):
        b = quaternion_algebra(RX, X, -1)
        assert sets_equal(RX, nil_set(b), HalfSpace(X))

    def test_divisor_map_over_line(self):
        d = divisor_map(quaternion_algebra(RX, X, -1))
        assert d.value_at(RationalPoint(Fraction(-1))) == 2
        assert d.value_at(RationalPoint(Fraction(1))) == 0
        assert sorted(d.value_map()) == [0, 2]

    def test_cell_names_cover_codes(self):
        assert set(CELL_NAMES) == {
            CELL_REAL_SPLIT,
            CELL_QUATERNIONIC,
            CELL_COMPLEX,
            CELL_REAL_PAIR,
            CELL_QUATERNION_PAIR,
        }


class TestSplitModels:
    def test_three_kinds(self):
        assert split_model(Q, 2, "rational").kind == "orthogonal"
        assert split_model(Q, 2, "gauss").kind == "unitary"
        assert split_model(Q, 2, "hamilton").kind == "symplectic"

    def test_validation_and_split_data(self):
        s = split_model(Q, 3, "hamilton")
        s.validate()
        assert s.split_data is not None
        assert s.split_data.n == 3
        assert s.split_data.fiber.m == 4
        assert s.m == 36

    def test_symmetric_psi(self):
        s = split_model(Q, 2, "rational", [[[0], [1]], [[1], [0]]])
        s.validate()
        assert s.kind == "orthogonal"
        # sigma maps e_00 to psi e_00^t psi^{-1} = e_11
        e00 = s.basis_vector(0)
        assert s.apply_involution(e00) == s.basis_vector(3)

    def test_skew_psi_gives_symplectic(self):
        s = split_model(Q, 2, "rational", [[[0], [1]], [[-1], [0]]])
        s.validate()
        assert s.kind == "symplectic"
        assert classify_at(s, TheOrdering()).nil

    def test_gauss_psi_hermitian(self):
        psi = [[[1, 0], [0, 1]], [[0, -1], [2, 0]]]
        s = split_model(Q, 2, "gauss", psi)
        s.validate()
        assert s.kind == "unitary"

    def test_bad_psi_rejected(self):
        with pytest.raises(ValidationError, match="hermitian"):
            split_model(Q, 2, "rational", [[[0], [1]], [[0], [0]]])
        with pytest.raises(ValidationError, match="invertible"):
            split_model(Q, 2, "rational", [[[1], [1]], [[1], [1]]])

    def test_localized_split_model(self):
        s = split_model(RX, 2, "rational", [[[Fraction(1)], [0]], [[0], [X]]])
        with pytest.raises(ValidationError, match="invertible"):
            # x is a unit in the localization but psi entries must stay in the ring
            split_model(Ring.polynomials(), 2, "rational", [[[Fraction(1)], [0]], [[0], [X]]])
        s.validate()
        assert s.kind == "orthogonal"

    def test_unknown_fiber(self):
        with pytest.raises(ValidationError, match="fiber"):
            split_model(Q, 2, "octonion")


#### oracles for the Azumaya test: validate() certifies it by the trace form


def two_sided_det(alg):
    """Determinant of the two-sided multiplication map A (x) A^op -> End(A).

    For a tensor hint A (x) B it is, up to sign, det_A^(m_B^2) * det_B^(m_A^2),
    the determinant of a Kronecker product; otherwise the m^2 x m^2 matrix
    of x -> e_i x e_j is built and its determinant taken.
    """
    h = alg.hint
    if h is not None and h[0] == "tensor":
        a, b = h[1], h[2]
        return two_sided_det(a) ** (b.m * b.m) * two_sided_det(b) ** (a.m * a.m)
    m = alg.m
    lmats = [alg.left_mult_matrix(alg.basis_vector(i)) for i in range(m)]
    rmats = [alg.right_mult_matrix(alg.basis_vector(j)) for j in range(m)]
    big = [[alg.ring.zero] * (m * m) for _ in range(m * m)]
    for i in range(m):
        for j in range(m):
            e = mat_mul(lmats[i], rmats[j])
            for p in range(m):
                for q in range(m):
                    big[p * m + q][i * m + j] = e[p][q]
    return field_det(big)


def centre_discriminant(alg):
    """Determinant of the trace form of a rank-2 centre on itself."""
    z = alg.centre_basis()
    gram = [[alg.ring.zero] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            prod = alg.multiply(z[i], z[j])
            for k in range(2):
                ck = _solve_in_span(alg.ring, z, alg.multiply(prod, z[k]))
                gram[i][j] = gram[i][j] + ck[k]
    return field_det(gram)


def is_unit(ring, value) -> bool:
    return ring.is_unit(ring.coerce(value))


def validates(alg) -> bool:
    try:
        alg.validate()
    except ValidationError:
        return False
    return True


def sqrt_x(ring):
    """ring[t] / (t^2 - x) with the involution t -> -t."""
    gamma = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, X)]
    sigma = [(0, 0, 1), (1, 1, -1)]
    return AlgebraPresentation.from_gamma(ring, 2, gamma, sigma, [1, 0], label="sqrt x")


def sample(name):
    return load_algebra(read_document(f"sample:{name}.alg"))


# name -> (constructor, whether validate() accepts it)
VERDICTS = {
    **{
        f"sample:{name}": (lambda name=name: sample(name), True)
        for name in ("gauss-x", "hamilton", "m2", "quat-nil", "quat-x")
    },
    **{
        f"M_{n} over {ring}": (lambda n=n, ring=ring: matrix_algebra(ring, n), True)
        for ring in (Q, QX)
        for n in (1, 2, 3)
    },
    "(2,-3) over Q": (lambda: quaternion_algebra(Q, 2, -3), True),
    "(x,-1) over Q[x]": (lambda: quaternion_algebra(QX, X, -1), False),
    "(x^2+1,x-3) over Q[x]": (lambda: quaternion_algebra(QX, X * X + 1, X - 3), False),
    "M_2 (x) (x,-1) over Q[x]": (
        lambda: tensor_product(matrix_algebra(QX, 2), quaternion_algebra(QX, X, -1)),
        False,
    ),
    "(x,-1) x op over Q[x]": (
        lambda: product_with_exchange(quaternion_algebra(QX, X, -1)),
        False,
    ),
    "sqrt x over Q[x]": (lambda: sqrt_x(QX), False),
    "sqrt x over Q[x][1/x]": (lambda: sqrt_x(RX), True),
}


class TestAzumayaOracles:
    @pytest.mark.parametrize("build, accepted", list(VERDICTS.values()), ids=list(VERDICTS))
    def test_verdict_against_oracles(self, build, accepted):
        alg = build()
        assert validates(alg) == accepted
        if alg.centre_rank == 1:
            assert is_unit(alg.ring, two_sided_det(alg)) == accepted
        else:
            assert alg.centre_rank == 2
            if accepted:
                assert is_unit(alg.ring, centre_discriminant(alg))

    def test_trace_form_rejects_an_etale_centre(self):
        # the centre of (x,-1) x op is etale, but the algebra is not Azumaya;
        # without its hint the factor (x,-1) is not validated first
        hinted = product_with_exchange(quaternion_algebra(QX, X, -1))
        alg = AlgebraPresentation(QX, hinted.mul, hinted.invol_cols, hinted.unit, label="bare")
        assert is_unit(QX, centre_discriminant(alg))
        with pytest.raises(ValidationError, match="trace form"):
            alg.validate()

    def test_sqrt_x_discriminant_follows_the_base(self):
        assert not is_unit(QX, centre_discriminant(sqrt_x(QX)))
        assert is_unit(RX, centre_discriminant(sqrt_x(RX)))

    def test_tensor_oracle_matches_the_direct_determinant(self):
        gauss = fiber_presentation(Q, "gauss")
        alg = tensor_product(gauss, gauss)
        bare = AlgebraPresentation(Q, alg.mul, alg.invol_cols, alg.unit, label="bare")
        assert two_sided_det(alg) in (two_sided_det(bare), -two_sided_det(bare))

    def test_hinted_matrix_algebras_past_the_direct_limit_validate(self):
        for alg in (matrix_algebra(Q, 5), split_model(Q, 5, "rational")):
            report = alg.validate()
            assert "separable" in str(report)
