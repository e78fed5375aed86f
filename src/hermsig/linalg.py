"""Exact dense linear algebra over Q, Q(x), and their subrings.

Everything is fraction-free where it matters. Rational matrices are
scaled to integer matrices by the lcm of their denominators (row by row
for determinants); products then accumulate integers (`_int_mat_mul`)
and normalise each output entry once. Determinants go through Bareiss
elimination (intermediate entries are minors, kept small by exact
division). The
signature of a rational symmetric matrix comes from symmetric Bareiss
elimination and the signs of its successive pivots. Characteristic
polynomials of rational matrices run the division-free Berkowitz
recurrence on the integer matrix and rescale u_i = v_i / l^i.
One congruence elimination (`congruence_diagonalize`) gives the explicit
certificates of the oracle route, over a field (`symmetric_diagonalize`)
and modulo the defining polynomial of an algebraic point.

Matrices over Q(x) take the same road one level up. A matrix of
RationalFunction entries is cleared once (`_rf_cleared`): D is the monic
lcm of the entry denominators and every entry num/den becomes the
polynomial num * (D / den). A Polynomial is integer coefficients over
one denominator, so a second scale c, the lcm of those denominators,
gives integer coefficient lists (`_int_poly_rows`) with no Fraction.
Products multiply the lists and build each output entry once from its
integers as (num / (c_a c_b)) / (D_a D_b). Determinants and
characteristic polynomials run the integer kernels above by Kronecker
substitution: every entry is evaluated at x = 2^k (`_pack`), with k
wide enough that each coefficient of the result is one balanced
base-2^k digit of its value (`_packing_width`), which `_unpack` reads
back; then u_i = v_i / (c D)^i. No Fraction or RationalFunction is
built inside these loops.

Rank and kernel run fraction-free Gauss-Jordan elimination
(`_gauss_jordan`) on the rows scaled to integers, over Q(x) at x = 2^k.
Every value it produces is, up to sign, a minor, so the width that serves
determinants serves it (`_packing_width`: k = bitlen(n! N^n) + 2 for
entries of 1-norm at most N and minors of order at most n). A kernel vector
is read back and divided by the last pivot; it is the one the reduced row
echelon form gives, each free variable 1. Minors can be far larger than
the reduced form they lead to, so a matrix whose minors may pass
FRACTION_FREE_BITS is eliminated over the field instead
(`_reduced_echelon`); the reduced form is unique, so the result is the
same. Algebra validation compares polynomial identities on a packed
integer image with its own width (`_identity_width`: k = bitlen(2 m^2
N^3) + 2 for a rank-m table), and the Gram matrix of a star pairing is
assembled by `_int_mat_mul` at a third (`_pairing_width`: k = bitlen(m^4
N_ST N_T^2 N_v N_w) + 2). Both clear their values with `_cleared`, which
scales a list over Q or Q(x) to integers or integer coefficient lists by
one common scale.

Matrices are plain lists of lists. Entry types mix int, Fraction,
Polynomial, and RationalFunction as documented per function.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul, not_
from typing import Sequence

from .errors import ValidationError
from .polynomials import Polynomial, RationalFunction, poly_lcm


def _one_like(e):
    return RationalFunction(1) if isinstance(e, RationalFunction) else Fraction(1)


def identity(n: int, one=Fraction(1)):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def _clear_denominators(rows) -> "tuple[list[list[int]], int]":
    """(l * rows, l): an int or Fraction matrix scaled to integers by the
    lcm l > 0 of its denominators."""
    den = lcm(*(e.denominator for row in rows for e in row))
    return [[e.numerator * (den // e.denominator) for e in row] for row in rows], den


def _int_mat_mul(a: "list[list[int]]", b: "list[list[int]]") -> "list[list[int]]":
    """a b for integer matrices, b nonempty."""
    # the multiplication matrices of split models are sparse: keep only
    # the nonzero entries of each row of b
    sparse_b = [[(j, w) for j, w in enumerate(row) if w] for row in b]
    m = len(b[0])
    out = []
    for row in a:
        acc = [0] * m
        for v, bl in zip(row, sparse_b):
            if v:
                for j, w in bl:
                    acc[j] += v * w
        out.append(acc)
    return out


def _rational_mat_mul(a, b):
    ia, da = _clear_denominators(a)
    ib, db = _clear_denominators(b)
    den = da * db
    zero = Fraction(0)
    return [[Fraction(s, den) if s else zero for s in row] for row in _int_mat_mul(ia, ib)]


def _rf_cleared(rows) -> "tuple[list[list[Polynomial]], Polynomial]":
    """(D * rows, D) for a matrix over Q(x): D is the monic lcm of the entry
    denominators, and each entry num/den becomes num * (D / den) -- an entry
    whose own denominator is 1 too, which becomes num * D."""
    dens = {e.den: None for row in rows for e in row}
    d = Polynomial.one()
    for den in dens:
        if den.degree > 0:
            d = poly_lcm(d, den)
    if d.degree == 0:
        return [[e.num for e in row] for row in rows], d
    quot = {den: d.exact_div(den) for den in dens}
    out = []
    for row in rows:
        cleared = []
        for e in row:
            q = quot[e.den]
            cleared.append(e.num * q if q.degree > 0 else e.num)
        out.append(cleared)
    return out, d


def _int_poly_rows(rows) -> "tuple[list[list[Sequence[int]]], int]":
    """(c * rows, c): a Polynomial matrix as integer coefficient lists,
    scaled by the lcm c > 0 of the entry denominators. An entry whose
    denominator is c keeps its own tuple; the kernels never write into one."""
    c = lcm(*(e._d for row in rows for e in row))
    return [
        [e._n if e._d == c else [v * (c // e._d) for v in e._n] for e in row] for row in rows
    ], c


def _cleared(values: list, poly: bool) -> "tuple[list, int | Sequence[int]]":
    """(ints, s) with values[i] = ints[i] / s for a list over Q or, when
    `poly`, over Q(x). Over Q, integers and the lcm s > 0 of the
    denominators. Over Q(x), integer coefficient lists: D * values and D,
    D the monic lcm of the denominators (`_rf_cleared`), are scaled by the
    lcm c > 0 of their coefficient denominators (`_int_poly_rows`), and s is
    the list of c D, whose leading coefficient is c."""
    if not poly:
        (ints,), s = _clear_denominators([values])
        return ints, s
    (polys,), den = _rf_cleared([values])
    (ints,), _ = _int_poly_rows([polys + [den]])
    s = ints.pop()
    return ints, s


def _addmul(acc: "list[int]", a: "list[int]", b: "list[int]") -> None:
    """acc += a * b on integer coefficient lists, lowest degree first."""
    need = len(a) + len(b) - 1
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    nb = len(b)
    for i, x in enumerate(a):
        if x:
            acc[i : i + nb] = [s + x * y for s, y in zip(acc[i : i + nb], b)]


def _rf_mat_mul(a, b):
    pa, da = _rf_cleared(a)
    pb, db = _rf_cleared(b)
    ia, ca = _int_poly_rows(pa)
    ib, cb = _int_poly_rows(pb)
    den = da * db
    scale = ca * cb
    zero = RationalFunction(0)
    sparse_b = [[(j, w) for j, w in enumerate(row) if w] for row in ib]
    m = len(b[0])
    out = []
    for row in ia:
        acc: "list[list[int]]" = [[] for _ in range(m)]
        for v, bl in zip(row, sparse_b):
            if v:
                for j, w in bl:
                    _addmul(acc[j], v, w)
        out.append(
            [
                RationalFunction(Polynomial._make(s, scale), den)
                if any(s)
                else zero
                for s in acc
            ]
        )
    return out


def mat_mul(a, b):
    """a b for matrices over Q (Fraction entries) or Q(x) (RationalFunction
    entries)."""
    if not a or not b:
        return []
    if isinstance(a[0][0], Fraction):
        return _rational_mat_mul(a, b)
    return _rf_mat_mul(a, b)


#### determinants


def int_det(rows: "list[list[int]]") -> int:
    """Determinant of an integer matrix by Bareiss elimination; every
    division by the previous pivot is exact."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = m[k]
        pivot = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            a = ri[k]
            ri[k + 1 :] = [(x * pivot - a * y) // prev for x, y in zip(ri[k + 1 :], rk[k + 1 :])]
        prev = pivot
    return sign * m[n - 1][n - 1]


def poly_det(rows: "list[list[Polynomial]]") -> Polynomial:
    # clear each row to integer coefficients and run the integer Bareiss
    # kernel at x = 2^k
    n = len(rows)
    if n == 0:
        return Polynomial.one()
    scale = 1
    m = []
    for row in rows:
        (ints,), c = _int_poly_rows([row])
        scale *= c
        m.append(ints)
    k = _packing_width(m)
    return Polynomial._make(_unpack(int_det(_pack(m, k)), k), scale)


def _packing_width(m: "list[list[Sequence[int]]]") -> int:
    """Slot width k for evaluating a matrix m over Z[x] at x = 2^k, such
    that `_unpack` reads back from its value at 2^k the determinant and
    every Berkowitz coefficient v_i of a square m, and every entry, pivot
    and kernel entry of fraction-free Gauss-Jordan elimination
    (`_gauss_jordan`) of any m, and each of these is zero exactly when its
    value is.

    Let N >= 1 bound the 1-norm (the sum of the absolute values of the
    coefficients) of every entry, and let n be the smaller of the numbers
    of rows and columns. The 1-norm is subadditive and submultiplicative,
    so an i x i minor, a signed sum of i! products of i entries, has 1-norm
    at most i! N^i <= n! N^n for i <= n; v_i, a signed sum of C(n, i)
    principal i x i minors of a square m, has at most C(n, i) i! N^i <= n!
    N^n; and every value that Gauss-Jordan elimination produces is, up to
    sign, a minor of m. So each coefficient of all of them is at most B =
    n! N^n in absolute value, and k = bitlen(B) + 2 gives B < 2^(k-1): such
    a polynomial is the balanced base-2^k expansion of its value.

    Only the values named need the bound. Evaluation at 2^k is a ring
    homomorphism Z[x] -> Z, Berkowitz's recurrence has no division, and
    Bareiss elimination of any integer matrix divides exactly, so the
    integer kernels return det(m)(2^k) and v_i(2^k) however large their
    intermediates are. Gauss-Jordan elimination also tests entries for
    zero to choose its pivots; each tested entry is a minor, so the tests
    come out as they would over Z[x], and the elimination of m(2^k) is that
    of m evaluated at 2^k.
    """
    norm = _norm(e for row in m for e in row)
    n = min(len(m), len(m[0]))
    return (factorial(n) * norm**n).bit_length() + 2


def _norm(coeffs) -> int:
    """The largest 1-norm of integer coefficient lists, and at least 1."""
    return max(1, max((sum(map(abs, e)) for e in coeffs), default=1))


def _identity_width(m: int, norm: int) -> int:
    """Slot width k for comparing, at x = 2^k, the two sides of each
    identity that validation checks on the integer image of a rank-m
    algebra over Z[x] (`AlgebraPresentation._integer_image`).

    Let N = norm >= 1 bound the 1-norm of every scaled table, involution
    and unit entry and of the common scale s. Each identity, once scaled,
    equates two sums of at most m^2 products of at most three of these
    (sigma(e_i e_j) = sigma(e_j) sigma(e_i), times s^3, has m products of
    three on the left and m^2 on the right; the others have fewer). So the
    difference of its sides has 1-norm at most B = 2 m^2 N^3, and k =
    bitlen(B) + 2 gives B < 2^(k-1): the difference is zero exactly when
    its value at 2^k is, and `_unpack` reads any difference of two entries
    back.
    """
    return (2 * m * m * norm**3).bit_length() + 2


def _pairing_width(m: int, n_st: int, n_t: int, n_v: int, n_w: int) -> int:
    """Slot width k for assembling at x = 2^k the Gram matrix of the star
    pairing of two hermitian forms over a rank-m algebra over Z[x]
    (`hermitian.star`), once every value is scaled to integer polynomials.

    The entry (l, l2) of the block of v = h1[i][i2] and w =
    sigma(h2[j][j2]) is that of ST L(v) R(w), where ST is the twisted trace
    matrix, L(v)[a][b] = sum_i v_i T[i][b][a] and R(w)[b][l2] = sum_n w_n
    T[l2][n][b], T[i][j][a] being the e_a-coordinate of e_i e_j. So it is a
    sum over a, b, i, n of m^4 products ST[l][a] v_i T[i][b][a] w_n
    T[l2][n][b]. Let N_ST = n_st, N_T = n_t, N_v = n_v and N_w = n_w, all
    >= 1, bound the 1-norms of the entries of ST, of the table, of the v and
    of the w. The 1-norm is subadditive and submultiplicative, so each
    coefficient of a Gram entry is at most B = m^4 N_ST N_T^2 N_v N_w in
    absolute value, and k = bitlen(B) + 2 gives B < 2^(k-1): each entry is
    the balanced base-2^k expansion of its value, which `_unpack` reads
    back, and two entries are equal exactly when their values are. Only the
    entries need the bound: evaluation at 2^k is a ring homomorphism, so the
    integer products that lead to them are exact however large they are.
    """
    return (m**4 * n_st * n_t * n_t * n_v * n_w).bit_length() + 2


def _pack(m: "list[list[Sequence[int]]]", k: int) -> "list[list[int]]":
    """m with each integer coefficient list evaluated at x = 2^k."""
    out = []
    for row in m:
        packed = []
        for e in row:
            v = 0
            for c in reversed(e):
                v = (v << k) + c
            packed.append(v)
        out.append(packed)
    return out


def _unpack(v: int, k: int) -> "list[int]":
    """The coefficients, lowest degree first, of the integer polynomial
    whose value at 2^k is v and whose coefficients lie in [-2^(k-1),
    2^(k-1)): the balanced base-2^k digits of v."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while v:
        d = ((v + half) & mask) - half
        out.append(d)
        v = (v - d) >> k
    return out


def fraction_det(rows: "list[list[Fraction]]") -> Fraction:
    # clear denominators row by row, which keeps the integers smaller than
    # one common scale, and run the integer kernel
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scaled = []
    scale = Fraction(1)
    for row in rows:
        (ints,), den = _clear_denominators([row])
        scale /= den
        scaled.append(ints)
    return scale * int_det(scaled)


def field_det(rows):
    """Determinant over Q or Q(x); entries Fraction or RationalFunction."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if isinstance(rows[0][0], RationalFunction):
        cleared, den = _rf_cleared(rows)
        return RationalFunction(poly_det(cleared), den**n)
    return fraction_det(rows)


#### elimination over a field


def _row_echelon(rows):
    """In-place echelon form over a field; returns pivot column list."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = _one_like(rows[r][c]) / rows[r][c]
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


def _gauss_jordan(rows: "list[list[int]]") -> "tuple[list[int], list[list[int]], int]":
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Bareiss's rule (E. H. Bareiss, Math. Comp. 22, 1968) applied above the
    pivot as well as below it (Nakos, Turner and Williams, ACM SIGSAM
    Bulletin 31(3), 1997): at a pivot p every other row becomes (p * row -
    a * pivot row) / prev, where a is its entry in the pivot column and
    prev the previous pivot (1 at first), and the division is exact. By
    Sylvester's identity every entry is then, up to sign, a minor of the
    matrix, and at the end each pivot row is d times the matching row of
    the reduced row echelon form, d being the last pivot. Rows that become
    zero are dropped. Returns (pivot columns, pivot rows, d); d is 1 when
    the matrix is zero.
    """
    ncols = len(rows[0]) if rows else 0
    active = [list(r) for r in rows if any(r)]
    done: "list[list[int]]" = []
    pivots: "list[int]" = []
    prev = 1
    for c in range(ncols):
        if not active:
            break
        at = next((i for i, row in enumerate(active) if row[c]), None)
        if at is None:
            continue
        prow = active.pop(at)
        p = prow[c]
        for row in done:
            a = row[c]
            row[:] = [(x * p - a * y) // prev for x, y in zip(row, prow)]
        kept = []
        # an active row is zero left of c, so only its tail changes
        tail = prow[c:]
        for row in active:
            a = row[c]
            row[c:] = [(x * p - a * y) // prev for x, y in zip(row[c:], tail)]
            if any(row):
                kept.append(row)
        active = kept
        done.append(prow)
        pivots.append(c)
        prev = p
    return pivots, done, prev


# most bits a minor (packed at x = 2^k over Z[x]) may take for rank and
# kernel to eliminate without fractions. Fraction-free entries are minors,
# and every row grows at every pivot, while elimination over the field
# touches nonzero entries only. On the centre systems of hint-less rank-16
# tensor products of quaternion algebras (232 nonzero rows of 16 entries,
# made dense by a change of basis) the two routes take equal time between
# 53,000 and 79,000 bits, and fraction-free elimination is 200 times
# slower at 470,000. Dense random matrices eliminate faster without
# fractions at every size measured, up to 81,000 bits (28 times faster
# there).
FRACTION_FREE_BITS = 1 << 16


def _reduced_echelon(m: list, poly: bool):
    """(pivots, rows, read) for a nonempty integer matrix m, over Z[x] when
    `poly` (entries integer coefficient lists): the pivot columns and pivot
    rows of its reduced row echelon form, an entry e of a pivot row giving
    the echelon entry read(e).

    While every minor of m fits in FRACTION_FREE_BITS (n! N^n, over Z[x]
    times the n D + 1 slots of degree n D), fraction-free Gauss-Jordan
    elimination (`_gauss_jordan`, over Z[x] at x = 2^k) gives rows d times
    the echelon rows; past that, `_row_echelon` eliminates over the field.
    """
    n = min(len(m), len(m[0]))
    if poly:
        k = _packing_width(m)
        degree = max(len(e) for row in m for e in row) - 1
        bits = k * (n * max(degree, 0) + 1)
    else:
        norm = max(1, max(abs(e) for row in m for e in row))
        bits = (factorial(n) * norm**n).bit_length()
    if bits > FRACTION_FREE_BITS:
        if poly:
            rows = [[RationalFunction(Polynomial._make(e)) for e in row] for row in m]
        else:
            rows = [[Fraction(e) for e in row] for row in m]
        pivots = _row_echelon(rows)
        return pivots, rows[: len(pivots)], lambda e: e
    if not poly:
        pivots, done, d = _gauss_jordan(m)
        return pivots, done, lambda e: Fraction(e, d)
    pivots, done, d = _gauss_jordan(_pack(m, k))
    den = Polynomial._make(_unpack(d, k))
    return pivots, done, lambda e: RationalFunction(Polynomial._make(_unpack(e, k)), den)


def _integer_kernel(rows: list, ncols: int, poly: bool) -> list:
    """Basis of the right kernel of a matrix with ncols columns over Z
    (entries int) or over Z[x] (`poly`: entries integer coefficient lists,
    lowest degree first), with Fraction or RationalFunction entries.

    The basis is the one the reduced row echelon form gives
    (`_reduced_echelon`): a vector for each free column f, 1 at f and 0 at
    the other free columns.
    """
    pivots, done, read = _reduced_echelon(rows, poly) if rows else ([], [], None)
    zero, one = (RationalFunction(0), RationalFunction(1)) if poly else (Fraction(0), Fraction(1))
    is_pivot = set(pivots)
    basis = []
    for f in range(ncols):
        if f in is_pivot:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, pc in zip(done, pivots):
            if row[f]:
                v[pc] = read(-row[f])
        basis.append(v)
    return basis


def _integer_rows(rows) -> "tuple[list[list], bool]":
    """(rows, poly): each row of a matrix over Q or Q(x) scaled to integers
    by its own positive scale, which changes neither rank nor kernel; over
    Q(x) (poly True) the entries become integer coefficient lists."""
    if isinstance(rows[0][0], RationalFunction):
        out = []
        for row in rows:
            (cleared,), _ = _rf_cleared([row])
            (ints,), _ = _int_poly_rows([cleared])
            out.append(ints)
        return out, True
    return [_clear_denominators([row])[0][0] for row in rows], False


def rank(rows) -> int:
    """Rank of a matrix over Q or Q(x), by elimination of its integer image
    (`_reduced_echelon`)."""
    if not rows or not rows[0]:
        return 0
    return len(_reduced_echelon(*_integer_rows(rows))[0])


def kernel_basis(rows):
    """Basis of the right kernel of a matrix over Q or Q(x), the one its
    reduced row echelon form gives (`_integer_kernel`)."""
    if not rows or not rows[0]:
        return []
    m, poly = _integer_rows(rows)
    return _integer_kernel(m, len(rows[0]), poly)


def solve_square(a, b):
    """Solve a x = b for square invertible a over a field; raises if singular."""
    n = len(a)
    work = [list(row) + [bv] for row, bv in zip(a, b)]
    pivots = _row_echelon(work)
    if pivots != list(range(n)):
        raise ValidationError("singular linear system")
    return [work[i][n] for i in range(n)]


#### symmetric congruence


def symmetric_diagonalize(g):
    """Diagonalize a symmetric matrix by congruence over a field.

    Returns (diag, c) with c invertible and c^T g c = diag(diag).
    """
    n = len(g)
    if n == 0:
        return [], []
    for i in range(n):
        if any(g[i][j] != g[j][i] for j in range(n)):
            raise ValidationError("matrix is not symmetric")

    def step(p, a):
        f = -a / p
        return lambda x, y: x + f * y

    return congruence_diagonalize(g, _one_like(g[0][0]), not_, step)


def congruence_diagonalize(g, one, is_zero, step):
    """Diagonalize a symmetric matrix by congruence (Lam, *Introduction to
    Quadratic Forms over Fields*, ch. I): (diag, c) with c^T g c =
    diag(diag) up to entries that `is_zero` calls zero, c starting as the
    identity with entry `one`.

    Pivots and cross terms are tested by `is_zero`. A zero pivot is swapped for a later
    nonzero diagonal entry or, when there is none, made 2 g[l][m] by v_l <-
    v_l + v_m; the elimination stops when the active block is zero. Each
    entry a != 0 right of pivot p is cleared by v_j <- v_j - (a/p) v_k, or by
    p v_j - a v_k where p is no unit: `step(p, a)` maps (x_j, x_k) to x_j.
    """
    n = len(g)
    d = [list(row) for row in g]
    c = identity(n, one)

    def col_op(dst: int, src: int, p, a) -> None:
        # basis change v_dst <- p*v_dst - a*v_src, applied on both sides
        op = step(p, a)
        for r in range(n):
            d[r][dst] = op(d[r][dst], d[r][src])
        for r in range(n):
            d[dst][r] = op(d[dst][r], d[src][r])
        for r in range(n):
            c[r][dst] = op(c[r][dst], c[r][src])

    def swap(i: int, j: int) -> None:
        for r in range(n):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        d[i], d[j] = d[j], d[i]
        for r in range(n):
            c[r][i], c[r][j] = c[r][j], c[r][i]

    for k in range(n):
        if is_zero(d[k][k]):
            l = next((l for l in range(k + 1, n) if not is_zero(d[l][l])), None)
            if l is None:
                pair = next(
                    ((l, m) for l in range(k, n) for m in range(l + 1, n) if not is_zero(d[l][m])),
                    None,
                )
                if pair is None:
                    break  # the active block is zero
                l, m = pair
                col_op(l, m, one, -one)
            if l != k:
                swap(k, l)
        pivot = d[k][k]
        for j in range(k + 1, n):
            if d[k][j]:
                col_op(j, k, pivot, d[k][j])
    return [d[i][i] for i in range(n)], c


def rational_signature(rows) -> int:
    """Signature of a symmetric matrix over Q, by fraction-free elimination.

    The matrix is scaled to integers once; a positive scale keeps the
    signature. Symmetric Bareiss elimination then divides exactly by the
    previous pivot, so after k steps the active entries are the minors
    bordering the leading k x k block and the pivots d_1, d_2, ... are the
    leading principal minors. By Jacobi's rule the form is congruent to
    <d_1/d_0, d_2/d_1, ...> (d_0 = 1) plus the block still active, so the
    signature is the sum of sgn(d_k * d_(k-1)) once that block is zero. A
    zero pivot is replaced by `_bring_pivot`. Only the upper triangle is
    kept up to date.
    """
    m, _ = _clear_denominators(rows)
    n = len(m)
    sig = 0
    prev = 1
    for k in range(n):
        if not m[k][k] and not _bring_pivot(m, k):
            break
        rk = m[k]
        p = rk[k]
        sig += 1 if (p > 0) == (prev > 0) else -1
        for i in range(k + 1, n):
            ri = m[i]
            a = rk[i]
            if a:
                ri[i:] = [(x * p - a * y) // prev for x, y in zip(ri[i:], rk[i:])]
            elif p != prev:
                ri[i:] = [x * p // prev for x in ri[i:]]
        prev = p
    return sig


def _bring_pivot(m: "list[list[int]]", k: int) -> bool:
    """Make m[k][k] nonzero by a congruence of the active block k..n-1.

    Swaps in a later nonzero diagonal entry; when every active diagonal
    entry is zero but some m[i][j] is not, first replaces v_i by v_i + v_j,
    which makes the new m[i][i] = 2 m[i][j]. Either change maps the
    bordered minors of the elimination to those of the transformed matrix.
    Returns False when the active block is zero. `m` holds the upper
    triangle of a symmetric matrix; the lower one may be stale.
    """
    size = len(m) - k
    f = [[m[k + min(i, j)][k + max(i, j)] for j in range(size)] for i in range(size)]
    l = next((i for i in range(size) if f[i][i]), None)
    if l is None:
        pair = next(
            ((i, j) for i in range(size) for j in range(i + 1, size) if f[i][j]), None
        )
        if pair is None:
            return False
        l, j = pair
        for row in f:
            row[l] += row[j]
        f[l] = [x + y for x, y in zip(f[l], f[j])]
    order = list(range(size))
    order[0], order[l] = l, 0
    for i in range(size):
        row, src = m[k + i], f[order[i]]
        for j in range(i, size):
            row[k + j] = src[order[j]]
    return True


#### block structure


def symmetric_blocks(g) -> "list[list[int]]":
    """Connected components of indices linked by nonzero off-diagonal entries."""
    n = len(g)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if g[i][j] or g[j][i]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups, key=lambda r: groups[r][0])]


def submatrix(g, idx: "list[int]"):
    return [[g[i][j] for j in idx] for i in idx]


#### characteristic polynomials


def charpoly_rational(rows: "list[list[Fraction]]") -> "list[Fraction]":
    """[u1..un] with det(XI - rows) = X^n + u1 X^(n-1) + ... + un.

    The matrix is scaled to integers l * rows once; Berkowitz then runs on
    plain ints, and u_i = v_i / l^i for the coefficients v_i of the scaled
    matrix.
    """
    n = len(rows)
    if n == 0:
        return []
    m, den = _clear_denominators(rows)
    out = []
    scale = 1
    for v in _berkowitz(m):
        scale *= den
        out.append(Fraction(v, scale))
    return out


def charpoly_berkowitz(rows: "list[list[Polynomial]]") -> "list[Polynomial]":
    """[u1..un] for a square matrix over Q[x], division-free.

    The matrix is scaled to integer coefficients c * rows once and
    evaluated at x = 2^k; Berkowitz then runs on plain ints, and u_i =
    v_i / c^i for the coefficients v_i of the scaled matrix, read back
    from their values at 2^k.
    """
    n = len(rows)
    if n == 0:
        return []
    m, c = _int_poly_rows(rows)
    k = _packing_width(m)
    out = []
    scale = 1
    for v in _berkowitz(_pack(m, k)):
        scale *= c
        out.append(Polynomial._make(_unpack(v, k), scale))
    return out


def _int_dot(xs: "list[int]", ys: "list[int]") -> int:
    return sum(map(mul, xs, ys))


def _berkowitz(m: "list[list[int]]") -> "list[int]":
    """[v1..vn] with det(XI - m) = X^n + v1 X^(n-1) + ... + vn, for a
    nonempty square integer matrix m, without division.

    Berkowitz's recurrence: the coefficients for the leading (r+1) x (r+1)
    block are the Toeplitz product of (1, -m_rr, -R C, -R M C, ...,
    -R M^(r-1) C) with those of the leading r x r block M, where R and C
    are the row and column that border it.
    """
    n = len(m)
    v = [1, -m[0][0]]
    for r in range(1, n):
        row = m[r][:r]
        block = [m[i][:r] for i in range(r)]
        q = [1, -m[r][r]]
        w = [m[j][r] for j in range(r)]
        for step in range(r):
            q.append(-_int_dot(row, w))
            if step < r - 1:
                w = [_int_dot(brow, w) for brow in block]
        nxt = []
        for out_i in range(r + 2):
            ks = range(max(0, out_i - len(v) + 1), min(out_i, r + 1) + 1)
            nxt.append(_int_dot([q[k] for k in ks], [v[out_i - k] for k in ks]))
        v = nxt
    return v[1:]


def charpoly_rf(rows: "list[list[RationalFunction]]") -> "list[RationalFunction]":
    """[u1..un] for a matrix over Q(x): Berkowitz on D * rows, then
    u_i = v_i / D^i."""
    n = len(rows)
    if n == 0:
        return []
    cleared, den = _rf_cleared(rows)
    out = []
    dpow = Polynomial.one()
    for vi in charpoly_berkowitz(cleared):
        dpow = dpow * den
        out.append(RationalFunction(vi, dpow))
    return out


def charpoly_coefficients(rows):
    """[u1..un] of det(XI - rows); entries Fraction or RationalFunction."""
    n = len(rows)
    if n == 0:
        return []
    if isinstance(rows[0][0], RationalFunction):
        return charpoly_rf(rows)
    return charpoly_rational(rows)
