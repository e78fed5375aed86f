"""Algebra presentations: arithmetic, validation, classification."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _cell_of,
)
from hermsig.constructible import HalfSpace
from hermsig.documents import load_algebra, read_document
from hermsig.errors import AdmissibilityError, HermsigError, ValidationError
from hermsig.linalg import field_det, kernel_basis, mat_mul, rank, solve_square
from hermsig.polynomials import Polynomial
from hermsig.quadform import signature_at
from hermsig.sper import parse_ordering

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
            alg.validate()

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
        for j in range(bare.m):
            e = bare.basis_vector(j)
            assert bare.multiply(z, e) == bare.multiply(e, z)

    @pytest.mark.parametrize("ring", [Q, QX], ids=["Q", "Qx"])
    def test_degenerate_quaternion_hint_keeps_the_centre(self, ring):
        # k is central in (0, 0), so its centre has rank 2, hint or no hint
        q00 = quaternion_algebra(ring, 0, 0)
        for alg in (q00, tensor_product(matrix_algebra(ring, 2), q00)):
            bare = stripped(alg)
            assert alg.centre_rank == bare.centre_rank == 2
            with pytest.raises(ValidationError) as hinted_exc:
                alg.validate()
            with pytest.raises(ValidationError) as bare_exc:
                bare.validate()
            assert str(hinted_exc.value) == str(bare_exc.value)

    def test_centre_facts_on_the_corpus(self):
        # validate() relies on these facts without re-checking them
        checked = 0
        for _, alg in centre_corpus():
            if validates(alg):
                assert_centre_facts(alg)
                checked += 1
        assert checked >= 50


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

    @pytest.mark.parametrize(
        "source",
        ["quat-x", "m2", "gauss-x", "unvalidated-m2-tensor-h"],
    )
    def test_one_ordering_reads_the_map(self, source):
        if source == "unvalidated-m2-tensor-h":
            a = tensor_product(matrix_algebra(Q, 2), quaternion_algebra(Q, -1, -1))
        else:
            a = load_algebra(read_document(f"sample:{source}.alg"))
        if a.ring.is_rational_base:
            points = [TheOrdering()]
        else:
            texts = ("-inf", "+inf", "-3/2", "root(x^2-2,[1,2])", "0-", "0+")
            points = [parse_ordering(t) for t in texts]
        for p in points:
            t = signature_at(a.trace_form(), p)
            c = classify_at(a, p)
            assert (c.kind, c.cell, c.trace_signature) == (a.kind, _cell_of(a, t), t)

    def test_one_ordering_at_a_puncture(self):
        a = load_algebra(read_document("sample:quat-x.alg"))
        with pytest.raises(AdmissibilityError):
            classify_at(a, RationalPoint(Fraction(0)))

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

    @pytest.mark.parametrize("centre_first", [False, True])
    def test_validation_keeps_no_integer_image(self, centre_first):
        # the Q(i) fiber has no hint, so its table is checked on its integer
        # image; its centre is computed during the model's validation, or
        # before it, and neither the model nor a factor keeps an image
        s = split_model(Q, 2, "gauss")
        fiber = s.hint[2]
        assert fiber.hint is None
        if centre_first:
            fiber.centre_basis()
        s.validate()
        for alg in (s, *s.hint[1:]):
            assert "image" not in alg._cache

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
    # two coordinates on which z is independent determine a centre element
    cols = [[z[0][i], z[1][i]] for i in range(alg.m)]
    pick = next(
        (i, j)
        for i in range(alg.m)
        for j in range(i + 1, alg.m)
        if field_det([cols[i], cols[j]])
    )
    gram = [[alg.ring.zero] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            prod = alg.multiply(z[i], z[j])
            for k in range(2):
                w = alg.multiply(prod, z[k])
                ck = solve_square([cols[p] for p in pick], [w[p] for p in pick])
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


def stripped(alg):
    """The same presentation without its structure hint."""
    return AlgebraPresentation(alg.ring, alg.mul, alg.invol_cols, alg.unit, label="bare")


# tables whose hint lets validate() skip the direct associativity check
HINTED_TABLES = {
    **{
        f"M_{n} over {ring}": (lambda n=n, ring=ring: matrix_algebra(ring, n))
        for ring in (Q, QX)
        for n in (1, 2, 3, 4)
    },
    "(2,-3)": lambda: quaternion_algebra(Q, 2, -3),
    "(-1,-1)": lambda: quaternion_algebra(Q, -1, -1),
    "M_2 (x) H": lambda: tensor_product(matrix_algebra(Q, 2), quaternion_algebra(Q, -1, -1)),
    "H x op": lambda: product_with_exchange(quaternion_algebra(Q, -1, -1)),
}


def centre_corpus():
    """(name, algebra): VERDICTS and HINTED_TABLES with and without their
    hint, and the split models M_n(D) over Q and Q[x] for n = 1..3."""
    builds = {name: build for name, (build, _) in VERDICTS.items()}
    builds.update(HINTED_TABLES)
    for name, build in builds.items():
        yield name, build()
        yield f"{name}, no hint", stripped(build())
    for ring in (Q, QX):
        for n in (1, 2, 3):
            for kind in ("rational", "gauss", "hamilton"):
                yield f"M_{n}({kind}) over {ring}", split_model(ring, n, kind)


def assert_centre_facts(alg):
    """The centre basis of a validated algebra is central and independent,
    holds the unit, and the involution maps its span into itself."""
    z = alg.centre_basis()
    for v in z:
        for j in range(alg.m):
            e = alg.basis_vector(j)
            assert alg.multiply(v, e) == alg.multiply(e, v)
    r = rank(z)
    assert r == len(z)
    assert rank(z + [list(alg.unit)]) == r
    assert rank(z + [alg.apply_involution(v) for v in z]) == r


def q_cubed():
    """Q x Q x Q with the identity involution."""
    gamma = [(i, i, i, 1) for i in range(3)]
    sigma = [(i, i, 1) for i in range(3)]
    return AlgebraPresentation.from_gamma(Q, 3, gamma, sigma, [1, 1, 1], label="QxQxQ")


def q_times_m2():
    """Q x M_2(Q): e_0 spans Q, e_{1+2p+q} is the matrix unit e_pq."""
    gamma = [(0, 0, 0, 1)]
    sigma = [(0, 0, 1)]
    for p in range(2):
        for q in range(2):
            sigma.append((1 + 2 * q + p, 1 + 2 * p + q, 1))
            for s in range(2):
                gamma.append((1 + 2 * p + q, 1 + 2 * q + s, 1 + 2 * p + s, 1))
    return AlgebraPresentation.from_gamma(Q, 5, gamma, sigma, [1, 1, 0, 0, 1], label="QxM2")


def with_involution(alg, signs):
    """alg with the diagonal involution e_i -> signs[i] e_i."""
    cols = [((i, Fraction(s)),) for i, s in enumerate(signs)]
    return AlgebraPresentation(alg.ring, alg.mul, cols, alg.unit, label="twisted")


HAMILTON = quaternion_algebra(Q, -1, -1)

# algebra -> the exact message validate() rejects it with
MESSAGES = {
    "wrong unit": (
        lambda: AlgebraPresentation(
            Q, HAMILTON.mul, HAMILTON.invol_cols, HAMILTON.basis_vector(1), label="bad"
        ),
        "stored unit is not a two-sided identity",
    ),
    "sigma not of order two": (
        lambda: with_involution(HAMILTON, (1, 2, -1, -1)),
        "involution is not of order two",
    ),
    "sigma = -id on H": (
        lambda: with_involution(HAMILTON, (-1, -1, -1, -1)),
        "involution does not fix the identity",
    ),
    "sigma = id on H": (
        lambda: with_involution(HAMILTON, (1, 1, 1, 1)),
        "involution is not an anti-homomorphism on pair (1,2)",
    ),
    "QxQxQ": (q_cubed, "centre rank 3 is not 1 or 2"),
    "Q x M_2(Q)": (
        q_times_m2,
        "rank 5 with centre rank 2 is not of the form n^2 * centre rank",
    ),
    "Q(sqrt2) with sigma = id": (
        lambda: AlgebraPresentation.from_gamma(
            Q, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 2)],
            [(0, 0, 1), (1, 1, 1)], [1, 0],
        ),
        "involution-fixed part of the centre has rank 2; the base ring itself was expected",
    ),
    "(x,-1) over Q[x]": (
        lambda: quaternion_algebra(QX, X, -1),
        "trace form determinant -16*x^2 is not a unit",
    ),
}


@pytest.mark.parametrize("build, message", list(MESSAGES.values()), ids=list(MESSAGES))
def test_rejection_messages(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build().validate()


SAMPLES = ("gauss-x", "hamilton", "m2", "quat-nil", "quat-x")
SMALL_VALUES = ("0", "1", "-1", "2", "x", "-x", "x+1", "1/2")


@st.composite
def random_alg_text(draw):
    """An `.alg` text of rank 1-4 with small integer entries. A structured
    one has e_0 as its unit, sigma = diag(1, +-1, ...), and random products
    e_i e_j for i, j > 0; a raw one has random unit, sigma and gamma entries."""
    m = draw(st.integers(1, 4))
    idx = st.integers(0, m - 1)
    val = st.integers(-2, 2)
    lines = [draw(st.sampled_from(("ring Q", "ring Q[x]"))), f"rank {m}"]
    if draw(st.booleans()):
        units = [(0, 1)]
        sigma = [(0, 0, 1)] + [(j, j, draw(st.sampled_from((1, -1)))) for j in range(1, m)]
        products = [(i, j, i + j, 1) for i in range(m) for j in range(m) if 0 in (i, j)]
        if m > 1:
            pos = st.integers(1, m - 1)
            products += draw(st.lists(st.tuples(pos, pos, idx, val), max_size=3 * m))
    else:
        units = draw(st.lists(st.tuples(idx, val), max_size=m))
        sigma = draw(st.lists(st.tuples(idx, idx, val), max_size=2 * m))
        products = draw(st.lists(st.tuples(idx, idx, idx, val), max_size=3 * m))
    lines += [f"unit {i} = {v}" for i, v in units]
    lines += [f"sigma {i} {j} = {v}" for i, j, v in sigma]
    lines += [f"gamma {i} {j} {k} = {v}" for i, j, k, v in products]
    return "\n".join(lines) + "\n"


@st.composite
def mutated_sample_text(draw):
    """A shipped sample with one line deleted, duplicated, given another
    value or index, or replaced by short text."""
    lines = read_document(f"sample:{draw(st.sampled_from(SAMPLES))}.alg").splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    how = draw(st.sampled_from(("delete", "duplicate", "value", "index", "text")))
    if how == "delete":
        new = []
    elif how == "duplicate":
        new = [line, line]
    elif how == "value" and "=" in line:
        new = [line.split("=")[0] + "= " + draw(st.sampled_from(SMALL_VALUES))]
    elif how == "index" and "=" in line:
        fields = line.split()
        pos = draw(st.integers(1, fields.index("=") - 1))
        fields[pos] = str(draw(st.integers(-1, 5)))
        new = [" ".join(fields)]
    else:
        new = [draw(st.text(alphabet=" 0123=-+x/agmnrsuiQ[]()", max_size=14))]
    return "\n".join(lines[:at] + new + lines[at + 1 :]) + "\n"


class TestLoaderFuzz:
    """A loaded `.alg` validates or raises a HermsigError, never another
    exception; a validated one satisfies the centre facts."""

    def check(self, text):
        try:
            alg = load_algebra(text)
        except HermsigError:
            return
        assert outcome(alg) == outcome(reference_copy(alg))
        if validates(alg):
            assert_centre_facts(alg)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(random_alg_text())
    def test_random_documents(self, text):
        self.check(text)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(mutated_sample_text())
    def test_mutated_samples(self, text):
        self.check(text)


class TestTableRule:
    @pytest.mark.parametrize("build", list(HINTED_TABLES.values()), ids=list(HINTED_TABLES))
    def test_constructor_tables_validate_without_their_hint(self, build):
        # without the hint every basis triple is checked for associativity
        stripped(build()).validate()

    def test_nonassociative_factor_fails(self):
        h = quaternion_algebra(Q, -1, -1)
        mul = [list(row) for row in h.mul]
        mul[1][2] = ((3, Fraction(2)),)  # ij = 2k: (ij)j = -2i but i(jj) = -i
        bad = AlgebraPresentation(Q, mul, h.invol_cols, h.unit, label="bad")
        with pytest.raises(ValidationError, match="associativity"):
            tensor_product(matrix_algebra(Q, 2), bad).validate()

    @pytest.mark.parametrize(
        "name", ["M_2 (x) (x,-1) over Q[x]", "(x,-1) x op over Q[x]"]
    )
    def test_product_of_a_non_azumaya_factor_fails_its_trace_form(self, name):
        # the factor (x,-1) is not Azumaya, and neither product is: e.g.
        # det(T_A (x) T_B) = det(T_A)^(m_B) * det(T_B)^(m_A) is no unit
        build, accepted = VERDICTS[name]
        assert not accepted
        with pytest.raises(ValidationError, match="trace form"):
            build().validate()


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
        # the centre of (x,-1) x op is etale, but the algebra is not Azumaya,
        # with or without its hint
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
            alg.validate()


#### the ring-element reference: the unit, associativity, involution and
#### commutator-kernel checks in Fraction and RationalFunction arithmetic,
#### as validate() ran them before it checked the integer image


def reference_row_echelon(rows):
    """In-place reduced row echelon form over a field; the pivot columns."""
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def reference_kernel(rows, zero, one):
    """The kernel basis the reduced row echelon form gives."""
    work = [list(r) for r in rows]
    pivots = reference_row_echelon(work)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        v = [zero] * len(rows[0])
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


def _dense(cell, m, zero):
    out = [zero] * m
    for k, v in cell:
        out[k] = out[k] + v
    return out


class Reference(AlgebraPresentation):
    """A presentation whose unit, associativity, involution and centre
    kernel are checked on its ring elements; the packed view of the integer
    image that validate() passes to the checks is ignored."""

    def _check_unit(self, view):
        for j in range(self.m):
            e = self.basis_vector(j)
            if self.multiply(list(self.unit), e) != e or self.multiply(e, list(self.unit)) != e:
                raise ValidationError("stored unit is not a two-sided identity")

    def _check_associativity(self, view):
        m, zero = self.m, self.ring.zero
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    left = [zero] * m
                    for l, c in self.mul[i][j]:
                        for n, v in self.mul[l][k]:
                            left[n] = left[n] + c * v
                    right = [zero] * m
                    for l, c in self.mul[j][k]:
                        for n, v in self.mul[i][l]:
                            right[n] = right[n] + c * v
                    if left != right:
                        raise ValidationError(
                            f"associativity fails on basis triple ({i},{j},{k})"
                        )

    def _check_involution(self, view):
        m, zero = self.m, self.ring.zero
        cols = [_dense(col, m, zero) for col in self.invol_cols]
        for j in range(m):
            if self.apply_involution(cols[j]) != self.basis_vector(j):
                raise ValidationError("involution is not of order two")
        if self.apply_involution(list(self.unit)) != list(self.unit):
            raise ValidationError("involution does not fix the identity")
        for i in range(m):
            for j in range(m):
                lhs = self.apply_involution(_dense(self.mul[i][j], m, zero))
                if lhs != self.multiply(cols[j], cols[i]):
                    raise ValidationError(
                        f"involution is not an anti-homomorphism on pair ({i},{j})"
                    )

    def _commutator_kernel(self):
        rows = []
        for e in map(self.basis_vector, range(self.m)):
            left = self.left_mult_matrix(e)
            for rr, lr in zip(self.right_mult_matrix(e), left):
                rows.append([a - b for a, b in zip(rr, lr)])
        return reference_kernel(rows, self.ring.zero, self.ring.one)


def reference_copy(alg):
    """alg, and the factors its hint names, as Reference presentations."""
    hint = alg.hint
    if hint is not None:
        hint = tuple(reference_copy(h) if isinstance(h, AlgebraPresentation) else h for h in hint)
    return Reference(
        alg.ring, alg.mul, alg.invol_cols, alg.unit,
        hint=hint, split_data=alg.split_data, label=alg.label,
    )


def outcome(alg):
    """What validate() says, the centre basis and the symmetric basis, as
    text; the symmetric basis of a Reference comes from the reference
    kernel."""
    out = []
    for step in (alg.validate, alg.centre_basis):
        try:
            out.append(str(step()))
        except HermsigError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    ring, m = alg.ring, alg.m
    s = alg.involution_matrix()
    rows = [[s[i][j] - (ring.one if i == j else ring.zero) for j in range(m)] for i in range(m)]
    if isinstance(alg, Reference):
        sym = reference_kernel(rows, ring.zero, ring.one)
    else:
        sym = kernel_basis(rows)
    out.append(str(sym))
    return out


def mutants(alg, rng):
    """Hint-less copies of alg with one table coefficient changed by +-1, two
    products swapped, or one involution column negated."""
    bare = stripped(alg)
    m = alg.m
    cells = [(i, j) for i in range(m) for j in range(m) if alg.mul[i][j]]
    out = []
    for _ in range(2):
        i, j = rng.choice(cells)
        mul = [list(row) for row in alg.mul]
        at = rng.randrange(len(mul[i][j]))
        cell = list(mul[i][j])
        k, v = cell[at]
        cell[at] = (k, v + rng.choice((1, -1)))
        mul[i][j] = tuple(cell)
        out.append(
            AlgebraPresentation(alg.ring, mul, bare.invol_cols, bare.unit, label="coefficient")
        )
        (i, j), (k, l) = rng.sample([(i, j) for i in range(m) for j in range(m)], 2)
        mul = [list(row) for row in alg.mul]
        mul[i][j], mul[k][l] = mul[k][l], mul[i][j]
        out.append(AlgebraPresentation(alg.ring, mul, bare.invol_cols, bare.unit, label="swapped"))
        j = rng.randrange(m)
        cols = list(alg.invol_cols)
        cols[j] = tuple((i, -v) for i, v in cols[j])
        out.append(AlgebraPresentation(alg.ring, alg.mul, cols, bare.unit, label="negated"))
    return out


def parity_corpus():
    """(name, algebra): the centre corpus and, for each table in it of rank
    at most 9, six mutants."""
    rng = random.Random(23)
    for name, alg in centre_corpus():
        yield name, alg
        if alg.m <= 9 and alg.m > 1:
            for mutant in mutants(alg, rng):
                yield f"{name}, {mutant.label}", mutant


class TestIntegerImage:
    """validate() on the integer image says what the ring-element checks say."""

    def test_parity_with_the_ring_element_checks(self):
        verdicts = set()
        count = 0
        for name, alg in parity_corpus():
            got, want = outcome(alg), outcome(reference_copy(alg))
            assert got == want, name
            verdicts.add(got[0])
            count += 1
        # the corpus reaches every check, accepting and rejecting
        assert count >= 300
        assert "None" in verdicts
        for message in ("unit", "associativity", "order two", "anti-homomorphism", "centre"):
            assert any(message in v for v in verdicts), message

    @pytest.mark.parametrize("name", list(MESSAGES))
    def test_messages_match_the_reference(self, name):
        build, _ = MESSAGES[name]
        assert outcome(build()) == outcome(reference_copy(build()))

    def test_a_difference_that_vanishes_at_a_narrower_slot_is_caught(self):
        # e1 e1 = e2, e1 e2 = 2^w e0, e2 e1 = x e0: (e1 e1) e1 - e1 (e1 e1) is
        # (x - 2^w) e0, which vanishes at x = 2^w
        w = 10
        gamma = [(0, j, j, 1) for j in range(3)] + [(j, 0, j, 1) for j in range(1, 3)]
        gamma += [(1, 1, 2, 1), (1, 2, 0, 2**w), (2, 1, 0, X)]
        sigma = [(j, j, 1) for j in range(3)]
        alg = AlgebraPresentation.from_gamma(QX, 3, gamma, sigma, [1, 0, 0])
        *_, k = alg._packed_view()
        assert k > w
        message = r"^associativity fails on basis triple \(1,1,1\)$"
        with pytest.raises(ValidationError, match=message):
            alg.validate()
        assert outcome(alg) == outcome(reference_copy(alg))

    @staticmethod
    def scaled_cases():
        """(name, algebra, verdict): the table, the involution and the unit
        cleared by different scales, and units off by a constant."""

        def line(ring, c, unit):
            # e0 e0 = c e0 with sigma = id: the unit is e0 / c
            return AlgebraPresentation.from_gamma(ring, 1, [(0, 0, 0, c)], [(0, 0, 1)], [unit])

        def rescaled_unit(alg, c):
            return AlgebraPresentation(alg.ring, alg.mul, alg.invol_cols, [c * u for u in alg.unit])

        x = RX.coerce(X)
        twisted = [
            split_model(RX, 2, "rational", [[[1], [0]], [[0], [X]]]),
            split_model(Q, 2, "rational", [[[1], [0]], [[0], [2]]]),
        ]
        bad_unit = "ValidationError: stored unit is not a two-sided identity"
        yield "4 e0 over Q", line(Q, 4, Fraction(1, 4)), "None"
        yield "4 e0 over Q[x]", line(QX, 4, Fraction(1, 4)), "None"
        yield "x e0 over Q[x][1/x]", line(RX, x, 1 / x), "None"
        yield "4 e0 over Q, unit e0 / 2", line(Q, 4, Fraction(1, 2)), bad_unit
        yield "4 e0 over Q[x], unit e0 / 2", line(QX, 4, Fraction(1, 2)), bad_unit
        yield "x e0 over Q[x][1/x], unit 2 e0 / x", line(RX, x, 2 / x), bad_unit
        for alg in twisted:
            yield f"twisted M_2(Q) over {alg.ring}", alg, "None"
            yield f"twisted M_2(Q) over {alg.ring}, no hint", stripped(alg), "None"
            yield f"twisted M_2(Q) over {alg.ring}, unit doubled", rescaled_unit(alg, 2), bad_unit

    def test_scales_of_their_own(self):
        # each check multiplies by the scales of the pieces it reads: s_u s_t
        # for the unit, s_i^2 for sigma^2, s_i s_u for sigma(1) and s_t s_i^2
        # for the anti-homomorphism
        for name, alg, verdict in self.scaled_cases():
            got = outcome(alg)
            assert got[0] == verdict, name
            assert got == outcome(reference_copy(alg)), name
        images = [alg._integer_image() for _, alg, _ in self.scaled_cases()]
        # the scales differ: s_t from s_u, and s_i from s_t
        assert any(im[3] != im[8] for im in images)
        assert any(im[3] != im[6] for im in images)

    def test_an_image_past_the_budget_stays_unpacked(self):
        # with 10^4000 x^1000 among the entries, packed, each of the 1001 slots
        # of that entry would be about 40,000 bits wide
        value = Polynomial((10**4000,)) * X**1000 + 1
        sqrt = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, value)]
        cube = [(0, j, j, 1) for j in range(3)] + [(j, 0, j, 1) for j in range(1, 3)]
        cube += [(1, 1, 2, 1), (1, 2, 0, value), (2, 1, 0, value + 1)]
        cases = [
            (2, sqrt, [(0, 0, 1), (1, 1, 1)], "involution-fixed part of the centre has rank 2"),
            (2, sqrt, [(0, 0, 1), (1, 0, 1)], "involution is not of order two"),
            (3, cube, [(j, j, 1) for j in range(3)], "associativity fails on basis triple (1,1,1)"),
        ]
        for m, gamma, sigma, message in cases:
            alg = AlgebraPresentation.from_gamma(QX, m, gamma, sigma, [1] + [0] * (m - 1))
            assert alg._packed_view()[-1] is None
            got = outcome(alg)
            assert got[0].startswith(f"ValidationError: {message}")
            assert got == outcome(reference_copy(alg))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: quaternion_algebra(Q, 2, -3),
            lambda: quaternion_algebra(RX, X, -1),
            lambda: tensor_product(quaternion_algebra(RX, X, -1), fiber_presentation(RX, "gauss")),
            lambda: fiber_presentation(RX, "gauss"),
        ],
        ids=["(2,-3)", "(x,-1)", "(x,-1) (x) Q(i)", "Q(i)"],
    )
    def test_dense_commutator_rows(self, build):
        # in the basis f_0 = e_0, f_j = e_j + e_(j-1) most products have
        # several terms, so few commutator rows fix one coordinate
        alg = rebased(build())
        assert any(len(cell) > 1 for row in alg.mul for cell in row)
        assert outcome(alg) == outcome(reference_copy(alg))


def rebased(alg):
    """alg, without its hint, in the basis f_0 = e_0, f_j = e_j + e_(j-1)."""
    ring, m = alg.ring, alg.m
    f = [[ring.one if i in (j, j - 1) else ring.zero for i in range(m)] for j in range(m)]

    def coordinates(v):
        # v = sum c_j f_j: c_(m-1) = v_(m-1), c_j = v_j - c_(j+1)
        c = [ring.zero] * m
        for j in reversed(range(m)):
            c[j] = v[j] - (c[j + 1] if j + 1 < m else ring.zero)
        return c

    def sparse(v):
        return [(k, c) for k, c in enumerate(coordinates(v)) if c]

    mul = [[sparse(alg.multiply(f[i], f[j])) for j in range(m)] for i in range(m)]
    invol = [sparse(alg.apply_involution(f[j])) for j in range(m)]
    return AlgebraPresentation(ring, mul, invol, coordinates(list(alg.unit)), label="rebased")
