"""Determinants, elimination, congruence diagonalization, the integer
signature kernel, characteristic polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermsig.linalg
import hermsig.quadform
from hermsig.azumaya import classify_at
from hermsig.errors import ValidationError
from hermsig.hermitian import abs_signature_at, classical_signature_oracle, star_signature
from hermsig.linalg import (
    charpoly_berkowitz,
    charpoly_coefficients,
    charpoly_rational,
    charpoly_rf,
    field_det,
    fraction_det,
    identity,
    int_det,
    kernel_basis,
    mat_mul,
    poly_det,
    rank,
    rational_signature,
    solve_square,
    submatrix,
    symmetric_blocks,
    symmetric_diagonalize,
    transpose,
)
from hermsig.polynomials import Polynomial, RationalFunction, parse_polynomial, parse_rational_function
from hermsig.quadform import QuadraticForm, signature_via_diag
from hermsig.realroots import isolate_real_roots
from hermsig.selftest import random_diagonal, split_models
from hermsig.sper import Ring, TheOrdering


def P(text):
    return parse_polynomial(text)


def RF(text):
    return parse_rational_function(text)


def F(v):
    return Fraction(v)


QQ = Ring.rationals()


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


#### plain loops over a field (Fraction or RationalFunction entries)


def plain_mul(a, b):
    zero = type(a[0][0])(0)
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = zero
            for l, v in enumerate(row):
                acc = acc + v * b[l][j]
            out[-1].append(acc)
    return out


def leverrier(a):
    """[u1..un] of det(XI - a) by Faddeev-LeVerrier: M_k = A M_(k-1) +
    c_(k-1) I, c_k = -tr(A M_k) / k, c_0 = 1."""
    n = len(a)
    zero = type(a[0][0])(0)
    c = type(a[0][0])(1)
    m = [[zero] * n for _ in range(n)]
    out = []
    for k in range(1, n + 1):
        am = plain_mul(a, m)
        m = [[am[i][j] + (c if i == j else zero) for j in range(n)] for i in range(n)]
        am = plain_mul(a, m)
        c = -sum((am[i][i] for i in range(n)), zero) / k
        out.append(c)
    return out


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
        assert mat_mul(a, [[v] for v in x]) == [[F(5)], [F(10)]]
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


#### the integer signature kernel, against the diagonalization oracle


def diag_signature(g):
    diag, _c = symmetric_diagonalize(g)
    return sum((d > 0) - (d < 0) for d in diag)


def random_symmetric(rng, n):
    g = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return g


def low_rank(rng, n):
    # B^T D B with B of r < n rows: rank deficient, with denominators
    r = rng.randint(1, max(1, n - 1))
    b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(r)]
    d = [Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2)) for _ in range(r)]
    return [[sum(b[k][i] * d[k] * b[k][j] for k in range(r)) for j in range(n)] for i in range(n)]


def zero_diagonal_tail(rng, n):
    # [[A, C], [C^T, S + C^T A^-1 C]] with A diagonal and invertible and S
    # of zero diagonal: once A is eliminated the active block is a
    # multiple of S, so the kernel needs v_i + v_j after earlier pivots
    a = rng.randint(1, n - 2)
    t = n - a
    diag = [Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)) for _ in range(a)]
    c = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(t)] for _ in range(a)]
    s = [[F(0)] * t for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            s[i][j] = s[j][i] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    g = [[F(0)] * n for _ in range(n)]
    for i in range(a):
        g[i][i] = diag[i]
        for j in range(t):
            g[i][a + j] = g[a + j][i] = c[i][j]
    for i in range(t):
        for j in range(t):
            g[a + i][a + j] = s[i][j] + sum(c[k][i] * c[k][j] / diag[k] for k in range(a))
    return g


class TestRationalSignature:
    def test_hand_cases(self):
        assert rational_signature([]) == 0
        assert rational_signature(frac_rows([[0, 0, 0]] * 3)) == 0
        assert rational_signature(frac_rows([[0, 1], [1, 0]])) == 0
        # hyperbolic plane plus <-1>
        assert rational_signature(frac_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]])) == -1
        assert rational_signature([[Fraction(-1, 3)]]) == -1
        assert rational_signature(frac_rows([[1, 1], [1, 1]])) == 1

    def test_matches_diagonalization(self, monkeypatch):
        # repairs records the steps k > 0 at which the active diagonal is
        # zero but the active block is not
        repairs = []
        bring = hermsig.linalg._bring_pivot

        def spy(m, k):
            active = range(k, len(m))
            if k and not any(m[i][i] for i in active) and any(
                m[i][j] for i in active for j in active if i < j
            ):
                repairs.append(k)
            return bring(m, k)

        monkeypatch.setattr(hermsig.linalg, "_bring_pivot", spy)
        rng = random.Random(20240611)
        kinds = {"dense": 0, "low-rank": 0, "zero-diagonal": 0}
        for trial in range(600):
            n = rng.randint(1, 9)
            if trial % 3 == 0:
                g, kind = random_symmetric(rng, n), "dense"
            elif trial % 3 == 1 or n < 3:
                g, kind = low_rank(rng, n), "low-rank"
            else:
                g, kind = zero_diagonal_tail(rng, n), "zero-diagonal"
            assert rational_signature(g) == diag_signature(g), g
            kinds[kind] += 1
        assert sum(kinds.values()) == 600 and min(kinds.values()) >= 100
        assert len(repairs) >= 50

    @given(int_matrices)
    @settings(max_examples=60)
    def test_random_integer_symmetric(self, rows):
        n = len(rows)
        g = [[Fraction(rows[i][j] + rows[j][i]) for j in range(n)] for i in range(n)]
        assert rational_signature(g) == diag_signature(g)

    def test_hot_path_skips_the_oracle(self, monkeypatch):
        # star_signature and abs_signature_at over Q never diagonalize
        ordering = TheOrdering()
        rng = random.Random(5)
        cases = []
        for a in split_models((1, 2)):
            lam = classify_at(a, ordering).divisor
            h1, h2 = random_diagonal(a, rng), random_diagonal(a, rng, rank=2)
            s1, s2 = classical_signature_oracle(h1), classical_signature_oracle(h2)
            cases.append((a, h1, h2, a.centre_rank * lam * lam * s1 * s2, abs(s2)))

        def oracle_only(g):
            raise AssertionError("the one-ordering signature over Q diagonalized")

        monkeypatch.setattr(hermsig.quadform, "symmetric_diagonalize", oracle_only)
        for a, h1, h2, pairing, absolute in cases:
            assert star_signature(h1, h2, ordering) == pairing, a.label
            assert abs_signature_at(h2, ordering) == absolute, a.label


class TestRationalMatMul:
    def plain(self, a, b):
        return [
            [sum((a[i][l] * b[l][j] for l in range(len(b))), F(0)) for j in range(len(b[0]))]
            for i in range(len(a))
        ]

    def test_against_triple_sum(self):
        rng = random.Random(77)
        for _ in range(200):
            n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            density = rng.random()

            def entry():
                if rng.random() > density:
                    return F(0)
                return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

            a = [[entry() for _ in range(k)] for _ in range(n)]
            b = [[entry() for _ in range(m)] for _ in range(k)]
            got = mat_mul(a, b)
            assert got == self.plain(a, b)
            assert all(isinstance(e, Fraction) for row in got for e in row)

    def test_zero_and_shapes(self):
        zero = frac_rows([[0, 0, 0], [0, 0, 0]])
        b = [[Fraction(1, 2), F(3)], [F(0), Fraction(-2, 7)], [F(5), F(1)]]
        assert mat_mul(zero, b) == [[F(0), F(0)], [F(0), F(0)]]
        row = [[Fraction(1, 2), Fraction(1, 3), F(-1)]]
        col = [[F(6)], [F(6)], [Fraction(1, 5)]]
        assert mat_mul(row, col) == [[Fraction(24, 5)]]
        assert mat_mul(col, row) == self.plain(col, row)
        assert mat_mul(row, b) == self.plain(row, b)
        assert mat_mul([], b) == []


class TestRationalFunctionKernels:
    """The integer-polynomial kernels over Q(x) against plain loops on
    RationalFunction arithmetic: a triple sum, Faddeev-LeVerrier and
    expansion by minors."""

    X = Polynomial.x()
    DENOMINATORS = {
        "Q[x]": [Polynomial.one()],
        "Q[x][1/x]": [Polynomial.one(), X, X * X],
        "mixed": [Polynomial.one(), Polynomial((3,)), Polynomial((Fraction(1, 2),)),
                  X, X * X, Polynomial((1, 1))],
    }

    def entry(self, rng, dens, density):
        if rng.random() > density:
            return RationalFunction(0)
        num = Polynomial(
            Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
            for _ in range(rng.randint(1, 3))
        )
        return RationalFunction(num, rng.choice(dens))

    def matrix(self, rng, n, m, dens):
        density = rng.choice((0.3, 0.7, 1.0))
        return [[self.entry(rng, dens, density) for _ in range(m)] for _ in range(n)]

    @pytest.mark.parametrize("ring", ["Q[x]", "Q[x][1/x]", "mixed"])
    def test_against_plain_loops(self, ring, monkeypatch):
        rng = random.Random(f"rf-kernels-{ring}")
        dens = self.DENOMINATORS[ring]
        for _ in range(180):
            n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a, b = self.matrix(rng, n, k, dens), self.matrix(rng, k, m, dens)
            got = mat_mul(a, b)
            assert got == plain_mul(a, b)
            assert all(isinstance(e, RationalFunction) for row in got for e in row)
            sq = self.matrix(rng, min(n, 3), min(n, 3), dens)
            assert charpoly_rf(sq) == leverrier(sq)
            assert field_det(sq) == cofactor_det(sq)
        # wide entries: coefficients of 64 to 256 bits over denominators up
        # to 2^40 + 1, each entry over one of the ring's denominators, and
        # each product packed and, under a zero cap, kept unpacked
        caps = (hermsig.linalg.PACKED_IMAGE_BITS, 0)
        for _ in range(12):
            n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            bits = rng.randint(64, 256)

            def wide(rows, cols):
                return [[RationalFunction(self.wide_entry(rng, bits), rng.choice(dens))
                         for _ in range(cols)] for _ in range(rows)]

            a, b = wide(n, k), wide(k, m)
            want = plain_mul(a, b)
            for cap in caps:
                monkeypatch.setattr(hermsig.linalg, "PACKED_IMAGE_BITS", cap)
                assert mat_mul(a, b) == want

    def test_common_denominator_reaches_every_entry(self):
        # the entry 1 must be scaled by the lcm x of the denominators too
        a = [[RF("1/x"), RF("1")], [RF("1"), RF("x")]]
        b = [[RF("1"), RF("0")], [RF("x^2 + 1/x"), RF("2")]]
        assert mat_mul(a, b) == plain_mul(a, b)
        assert mat_mul(a, b)[0] == [RF("x^2 + 2/x"), RF("2")]
        assert charpoly_rf(a) == leverrier(a)
        assert field_det(a) == RF("0")

    def wide_entry(self, rng, bits):
        """A polynomial of degree <= 2 with mixed-sign coefficients of up to
        `bits` bits over denominators up to 2^40 + 1, or 0."""
        if rng.random() < 0.2:
            return Polynomial.zero()
        return Polynomial(
            Fraction(rng.randint(-(2**bits), 2**bits), rng.choice((1, 1, 3, 2**40 + 1)))
            for _ in range(rng.randint(1, 3))
        )

    def test_polynomial_kernels(self):
        rng = random.Random(5)
        cases = []
        for _ in range(60):
            n = rng.randint(1, 4)
            cases.append([[self.entry(rng, [Polynomial.one()], 0.8).num for _ in range(n)]
                          for _ in range(n)])
        for i in range(36):
            n = rng.randint(1, 6)
            bits = rng.randint(64, 256)
            rows = [[self.wide_entry(rng, bits) for _ in range(n)] for _ in range(n)]
            if i % 3 == 1:
                rows[rng.randrange(n)] = [Polynomial.zero()] * n
            elif i % 3 == 2 and n > 1:
                # the last row a Q[x]-combination of earlier rows: singular
                f = Polynomial((rng.randint(-9, 9), 1))
                rows[-1] = [f * a + b for a, b in zip(rows[0], rows[(n - 1) // 2])]
            cases.append(rows)
        # at the edge of the width bound: diagonal entries +-2^j x^a, all of
        # 1-norm N = 2^j, give the coefficient +-N^n
        x = Polynomial.x()
        for n in (1, 2, 4, 6):
            for j, a in ((0, 0), (1, 1), (63, 2), (200, 3)):
                cases.append([[Polynomial.constant(rng.choice((-1, 1)) * 2**j) * x**a
                               if i == l else Polynomial.zero() for l in range(n)]
                              for i in range(n)])
        assert sum(1 for rows in cases if len(rows) == 6) >= 3
        assert sum(1 for rows in cases if not cofactor_det(rows)) >= 20
        for rows in cases:
            assert poly_det(rows) == cofactor_det(rows)
            rf = [[RationalFunction(e) for e in row] for row in rows]
            assert [RationalFunction(u) for u in charpoly_berkowitz(rows)] == leverrier(rf)


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
        assert charpoly_coefficients([[F(1), F(0)], [F(0), F(2)]]) == [F(-3), F(2)]
        assert charpoly_coefficients([]) == []

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

    def test_rational_vs_leverrier(self):
        rng = random.Random("charpoly-rational")
        cases = [[[F(0)]], [[F(0)] * 4 for _ in range(4)], [[Fraction(-7, 3)]]]
        for _ in range(150):
            n = rng.randint(1, 6)
            density = rng.choice((0.3, 0.7, 1.0))
            rows = [
                [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
                 if rng.random() < density else F(0) for _ in range(n)]
                for _ in range(n)
            ]
            if rng.random() < 0.3:
                rows[0][0] = F(0)
            cases.append(rows)
        # denominators, a zero (0,0) entry, 1 x 1 and zero matrices all occur
        assert sum(1 for rows in cases if not rows[0][0] and len(rows) > 1) >= 40
        assert sum(1 for rows in cases if len(rows) == 1) >= 20
        for rows in cases:
            assert charpoly_rational(rows) == leverrier(rows)

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


#### SymPy as an oracle for the fraction-free elimination


def random_rows(rng, over_qx, bits=64):
    """2-6 columns, 1-5 rows of coefficients of 1 to `bits` bits, some
    entries and rows zero, and often (over Q(x) always) a row that combines
    two others."""
    ncols, nrows = rng.randint(2, 6), rng.randint(1, 5)

    def coefficient():
        return rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, bits))

    def entry():
        if rng.random() < 0.3:
            return RationalFunction(0) if over_qx else F(0)
        if not over_qx:
            return Fraction(coefficient(), 1 + rng.getrandbits(rng.randint(0, 8)))
        num = Polynomial([coefficient() for _ in range(rng.randint(1, 4))])
        den = Polynomial((rng.randint(-3, 3), 1)) if rng.random() < 0.3 else Polynomial.one()
        return RationalFunction(num, den)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.2:
        rows[rng.randrange(nrows)] = [entry() * 0 for _ in range(ncols)]
    if nrows >= 2 and (over_qx or rng.random() < 0.5):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append([a * u + b * v for u, v in zip(rows[0], rows[1])])
    return rows


class TestSympyOracle:
    """`rank` and `kernel_basis` equal SymPy's, whose null space bases also
    set each free variable to 1: `Matrix.rank()` and `nullspace()` over Q;
    over Q(x), where those eliminate symbolically (seconds for a 5 x 6
    matrix of 64-bit coefficients), SymPy's exact elimination over the field
    QQ.frac_field(x), `DomainMatrix.rank()` and `nullspace(divide_last=True)`.
    Signatures, characteristic polynomials and real-root counts of rational
    matrices equal those read off `Matrix.charpoly()`, `real_roots()` and
    `Poly.count_roots()`."""

    def test_rank_and_kernel(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        x = sympy.Symbol("x")
        field = sympy.QQ.frac_field(x)

        def to_sympy(e):
            if isinstance(e, RationalFunction):
                num, den = (
                    sympy.Poly([to_sympy(c) for c in reversed(p.coefficients)], x).as_expr()
                    for p in (e.num, e.den)
                )
                return field.from_sympy(num / den)
            return sympy.Rational(e.numerator, e.denominator)

        def from_sympy(e):
            if isinstance(e, sympy.Rational):
                return Fraction(e.p, e.q)
            num, den = (
                {exps[0]: Fraction(str(c)) for exps, c in p.terms()}
                for p in (field.numer(e), field.denom(e))
            )
            num, den = (
                Polynomial([c.get(i, 0) for i in range(max(c, default=0) + 1)]) for c in (num, den)
            )
            return RationalFunction(num, den)

        rng = random.Random(2023)
        over_qx = deficient = 0
        for trial in range(60):
            qx = trial % 6 == 5
            rows = random_rows(rng, qx)
            entries = [[to_sympy(e) for e in row] for row in rows]
            if qx:
                ref = DomainMatrix(entries, (len(rows), len(rows[0])), field)
                want_rank = ref.rank()
                want = ref.nullspace(divide_last=True).to_list() if want_rank < ref.shape[1] else []
            else:
                ref = sympy.Matrix(entries)
                want_rank = ref.rank()
                want = ref.nullspace()
            assert rank(rows) == want_rank
            assert kernel_basis(rows) == [[from_sympy(e) for e in w] for w in want]
            over_qx += qx
            deficient += want_rank < min(len(rows), len(rows[0]))
        assert over_qx == 10 and deficient >= 10


    def test_signatures_charpolys_and_root_counts(self):
        # the signature is read off the signs of the eigenvalues, counted
        # with multiplicity (all real: the matrices are symmetric);
        # isolate_real_roots and count_roots count distinct real roots, also
        # of the characteristic polynomial of a matrix that is not symmetric
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def charpoly(g):
            rows = [[sympy.Rational(e.numerator, e.denominator) for e in row] for row in g]
            return sympy.Matrix(rows).charpoly(x)

        def coefficients(cp):
            return [Fraction(c.p, c.q) for c in cp.all_coeffs()]

        rng = random.Random(24)
        singular = 0
        for trial in range(60):
            n = rng.randint(1, 6)
            g = low_rank(rng, n) if trial % 3 == 0 else random_symmetric(rng, n)
            cp = charpoly(g)
            eigenvalues = sympy.real_roots(cp)
            assert len(eigenvalues) == n
            want = sum(e.is_positive for e in eigenvalues) - sum(e.is_negative for e in eigenvalues)
            assert rational_signature(g) == want
            assert signature_via_diag(QuadraticForm(QQ, g), TheOrdering()).signature == want
            assert [F(1)] + charpoly_rational(g) == coefficients(cp)
            singular += any(e.is_zero for e in eigenvalues)
            other = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            for cp in (cp, charpoly(other)):
                roots = isolate_real_roots(Polynomial(reversed(coefficients(cp))))
                assert len(roots) == sympy.Poly(cp.as_expr(), x).count_roots()
        assert singular >= 15


class TestEliminationRoutes:
    """Fraction-free elimination and elimination over the field give the same
    rank and the same reduced-row-echelon kernel basis."""

    @pytest.mark.parametrize("over_qx", [False, True], ids=["Q", "Q(x)"])
    def test_both_routes_agree(self, over_qx, monkeypatch):
        # over Q(x) the field route is slow on wide coefficients
        rng = random.Random(31)
        for _ in range(40):
            rows = random_rows(rng, over_qx, bits=8 if over_qx else 64)
            monkeypatch.setattr(hermsig.linalg, "FRACTION_FREE_BITS", 1 << 60)
            fraction_free = (rank(rows), kernel_basis(rows))
            monkeypatch.setattr(hermsig.linalg, "FRACTION_FREE_BITS", 0)
            assert (rank(rows), kernel_basis(rows)) == fraction_free


class TestWidthEdge:
    """[[N, -N, N], [N, N, N]] over Q(x) has the 2 x 2 minor 2 N^2 = 2! N^2,
    the largest the width bound allows; with N a power of two that is
    2^(bitlen - 1), which a slot with no margin reads back as negative. A
    product reaches its bound n N_a N_b the same way."""

    @pytest.mark.parametrize("power", [0, 1])
    def test_minors_at_the_bound(self, power):
        n = RationalFunction(Polynomial((0,) * power + (2**20,)))
        rows = [[n, -n, n], [n, n, n]]
        assert rank(rows) == 2
        assert kernel_basis(rows) == [[RationalFunction(v) for v in (-1, 0, 1)]]

    @pytest.mark.parametrize("n, j", [(2, 0), (1, 1), (4, 1), (2, 20), (8, 63)])
    def test_product_at_the_bound(self, n, j):
        # every entry is +-N x or +-N, of 1-norm N = 2^j: the entry (0, 0) of
        # a b sums n products (+-N x)^2, so its coefficient n N^2 is the
        # bound n N_a N_b of `mat_mul`, a power of two
        x = Polynomial.x()
        big = Polynomial.constant(2**j)
        signs = [(-1) ** i for i in range(n)]
        a = [[RationalFunction(big * x * s) for s in signs],
             [RationalFunction(big * -s) for s in signs]]
        b = [[RationalFunction(big * x * s), RationalFunction(big * s)] for s in signs]
        got = mat_mul(a, b)
        assert got == plain_mul(a, b)
        assert got[0][0] == RationalFunction(Polynomial.constant(n * 4**j) * x * x)
