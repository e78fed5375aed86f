"""Determinants, elimination, congruence diagonalization, characteristic polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermsig.errors import ValidationError
from hermsig.linalg import (
    charpoly_berkowitz,
    charpoly_coefficients,
    charpoly_diagonal,
    charpoly_rational,
    charpoly_rf,
    field_det,
    fraction_det,
    identity,
    int_det,
    kernel_basis,
    mat_mul,
    mat_vec,
    poly_det,
    rank,
    solve_square,
    submatrix,
    symmetric_blocks,
    symmetric_diagonalize,
    transpose,
)
from hermsig.polynomials import Polynomial, RationalFunction, parse_polynomial, parse_rational_function


def P(text):
    return parse_polynomial(text)


def RF(text):
    return parse_rational_function(text)


def F(v):
    return Fraction(v)


def frac_rows(rows):
    return [[Fraction(e) for e in row] for row in rows]


#### expansion-by-minors oracle, independent of the elimination code


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        e = rows[0][j]
        if not e:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = e * cofactor_det(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return rows[0][0] - rows[0][0]
    return acc


int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestDeterminants:
    def test_int_det_known(self):
        assert int_det([[2, 0], [0, 3]]) == 6
        assert int_det([[1, 2], [3, 4]]) == -2
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
        assert int_det([]) == 1

    @given(int_matrices)
    @settings(max_examples=80)
    def test_int_det_vs_cofactors(self, rows):
        assert int_det(rows) == cofactor_det(rows)

    def test_fraction_det(self):
        rows = frac_rows([[1, 2], [3, 4]])
        rows[0][0] = F(1) / 2
        assert fraction_det(rows) == F(1) / 2 * 4 - 2 * 3

    def test_poly_det(self):
        x = Polynomial.x()
        rows = [[x, Polynomial.one()], [Polynomial.one(), x]]
        assert poly_det(rows) == P("x^2 - 1")
        rows = [[x + 1, x], [x, x - 1]]
        assert poly_det(rows) == P("-1")

    def test_field_det_rf(self):
        rows = [[RF("1/x"), RF("1")], [RF("1"), RF("x")]]
        assert field_det(rows) == RF("0")
        rows = [[RF("1/x"), RF("0")], [RF("3"), RF("x^2")]]
        assert field_det(rows) == RF("x")

    @given(int_matrices)
    @settings(max_examples=40)
    def test_poly_det_matches_int(self, rows):
        prows = [[Polynomial.constant(e) for e in row] for row in rows]
        assert poly_det(prows).constant_value() == int_det(rows)


class TestElimination:
    def test_rank(self):
        assert rank(frac_rows([[1, 2], [2, 4]])) == 1
        assert rank(frac_rows([[1, 0], [0, 1]])) == 2
        assert rank(frac_rows([[0, 0], [0, 0]])) == 0
        assert rank([[RF("x"), RF("x^2")], [RF("1"), RF("x")]]) == 1

    def test_kernel(self):
        k = kernel_basis(frac_rows([[1, 2, 3]]))
        assert len(k) == 2
        for v in k:
            assert sum(a * b for a, b in zip([1, 2, 3], v)) == 0
        assert kernel_basis(frac_rows([[1, 0], [0, 1]])) == []

    def test_solve(self):
        a = frac_rows([[2, 1], [1, 3]])
        x = solve_square(a, [F(5), F(10)])
        assert mat_vec(a, x) == [F(5), F(10)]
        with pytest.raises(ValidationError):
            solve_square(frac_rows([[1, 2], [2, 4]]), [F(1), F(1)])

    @given(int_matrices)
    @settings(max_examples=40)
    def test_rank_det_consistency(self, rows):
        full = rank(frac_rows(rows)) == len(rows)
        assert full == (int_det(rows) != 0)


class TestSymmetricDiagonalize:
    def check(self, g):
        diag, c = symmetric_diagonalize(g)
        d = [[diag[i] if i == j else (g[0][0] - g[0][0]) for j in range(len(g))] for i in range(len(g))]
        assert mat_mul(transpose(c), mat_mul(g, c)) == d
        return diag

    def test_simple(self):
        assert self.check(frac_rows([[1, 0], [0, -1]])) == [1, -1]

    def test_hyperbolic(self):
        # all-zero diagonal forces the cross-term move
        diag = self.check(frac_rows([[0, 1], [1, 0]]))
        signs = sorted(1 if d > 0 else -1 for d in diag)
        assert signs == [-1, 1]

    def test_singular(self):
        diag = self.check(frac_rows([[1, 1], [1, 1]]))
        assert sorted(diag) == [0, 1]

    def test_rf_entries(self):
        g = [[RF("x"), RF("1")], [RF("1"), RF("0")]]
        diag, c = symmetric_diagonalize(g)
        zero = RF("0")
        d = [[diag[i] if i == j else zero for j in range(2)] for i in range(2)]
        assert mat_mul(transpose(c), mat_mul(g, c)) == d

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            symmetric_diagonalize(frac_rows([[0, 1], [2, 0]]))

    @given(int_matrices)
    @settings(max_examples=60)
    def test_random_symmetric(self, rows):
        n = len(rows)
        g = [[Fraction(rows[i][j] + rows[j][i]) for j in range(n)] for i in range(n)]
        self.check(g)


class TestBlocks:
    def test_blocks(self):
        g = frac_rows(
            [
                [1, 0, 2, 0],
                [0, 3, 0, 0],
                [2, 0, 1, 0],
                [0, 0, 0, 5],
            ]
        )
        blocks = symmetric_blocks(g)
        assert blocks == [[0, 2], [1], [3]]
        assert submatrix(g, [0, 2]) == frac_rows([[1, 2], [2, 1]])

    def test_dense(self):
        g = frac_rows([[1, 1], [1, 1]])
        assert symmetric_blocks(g) == [[0, 1]]


class TestCharpoly:
    def test_diagonal(self):
        # (X - 1)(X - 2) = X^2 - 3X + 2
        assert charpoly_diagonal([F(1), F(2)]) == [F(-3), F(2)]
        assert charpoly_diagonal([]) == []

    def test_rational_2x2(self):
        # [[0, 1], [1, 0]]: X^2 - 1
        assert charpoly_rational(frac_rows([[0, 1], [1, 0]])) == [F(0), F(-1)]

    def test_rational_with_denominators(self):
        rows = [[F(1) / 2, F(1)], [F(1), F(1) / 3]]
        u = charpoly_rational(rows)
        # trace 5/6, det 1/6 - 1
        assert u == [Fraction(-5, 6), Fraction(-5, 6)]

    def test_berkowitz_known(self):
        x = Polynomial.x()
        rows = [[x, Polynomial.one()], [Polynomial.one(), x]]
        u = charpoly_berkowitz(rows)
        assert u == [P("-2*x"), P("x^2 - 1")]

    def test_rf_entries(self):
        rows = [[RF("1/x"), RF("1")], [RF("1"), RF("x")]]
        u = charpoly_rf(rows)
        assert u[0] == -(RF("1/x") + RF("x"))
        assert u[1] == RF("0")

    @given(int_matrices)
    @settings(max_examples=40, deadline=None)
    def test_rational_vs_berkowitz(self, rows):
        fr = frac_rows(rows)
        pr = [[Polynomial.constant(e) for e in row] for row in rows]
        u1 = charpoly_rational(fr)
        u2 = charpoly_berkowitz(pr)
        assert [Polynomial.constant(a) for a in u1] == u2

    @given(int_matrices)
    @settings(max_examples=30, deadline=None)
    def test_cayley_hamilton(self, rows):
        fr = frac_rows(rows)
        n = len(fr)
        u = charpoly_coefficients(fr)
        total = [[F(0)] * n for _ in range(n)]
        # X^n + u1 X^(n-1) + ... + un evaluated at the matrix itself
        coeffs = [F(1)] + list(u)
        powers = [identity(n)]
        for _ in range(n):
            powers.append(mat_mul(powers[-1], fr))
        for i, c in enumerate(coeffs):
            p = powers[n - i]
            for a in range(n):
                for b in range(n):
                    total[a][b] += c * p[a][b]
        assert all(v == 0 for row in total for v in row)

    def test_dispatch(self):
        assert charpoly_coefficients([[F(2), F(0)], [F(0), F(3)]]) == [F(-5), F(6)]
        u = charpoly_coefficients([[RF("x"), RF("0")], [RF("0"), RF("x")]])
        assert u == [RF("-2*x"), RF("x^2")]
