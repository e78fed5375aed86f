"""Exact dense linear algebra over Q, Q(x), and their subrings.

Everything is fraction-free where it matters. Rational matrices are
scaled to integer matrices by the lcm of their denominators (row by row
for determinants); products then accumulate integers and normalise each
output entry once. Determinants go through Bareiss elimination
(intermediate entries are minors, kept small by exact division). The
signature of a rational symmetric matrix comes from symmetric Bareiss
elimination and the signs of its successive pivots. Characteristic
polynomials of rational matrices run the division-free Berkowitz
recurrence on the integer matrix and rescale u_i = v_i / l^i.
Congruence diagonalization over a field gives an explicit certificate,
and serves as the oracle for the other routes.

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

Matrices are plain lists of lists. Entry types mix int, Fraction,
Polynomial, and RationalFunction as documented per function.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import Sequence

from .errors import ValidationError
from .polynomials import Polynomial, RationalFunction, poly_lcm


def _zero_like(e):
    if isinstance(e, RationalFunction):
        return RationalFunction(0)
    if isinstance(e, Polynomial):
        return Polynomial.zero()
    if isinstance(e, Fraction):
        return Fraction(0)
    return 0


def _one_like(e):
    if isinstance(e, RationalFunction):
        return RationalFunction(1)
    if isinstance(e, Polynomial):
        return Polynomial.one()
    if isinstance(e, Fraction):
        return Fraction(1)
    return 1


def identity(n: int, one=Fraction(1)):
    zero = _zero_like(one)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def _clear_denominators(rows) -> "tuple[list[list[int]], int]":
    """(l * rows, l): an int or Fraction matrix scaled to integers by the
    lcm l > 0 of its denominators."""
    den = lcm(*(e.denominator for row in rows for e in row))
    return [[e.numerator * (den // e.denominator) for e in row] for row in rows], den


def _cleared(c: "list[Fraction]") -> "tuple[list[int], int]":
    """(integer coefficients, d) with d the lcm of the denominators of c."""
    den = 1
    for v in c:
        den = lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in c], den


def _rational_mat_mul(a, b):
    ia, da = _clear_denominators(a)
    ib, db = _clear_denominators(b)
    den = da * db
    zero = Fraction(0)
    # the multiplication matrices of split models are sparse: keep only
    # the nonzero entries of each row of b
    sparse_b = [[(j, w) for j, w in enumerate(row) if w] for row in ib]
    m = len(b[0])
    out = []
    for row in ia:
        acc = [0] * m
        for v, bl in zip(row, sparse_b):
            if v:
                for j, w in bl:
                    acc[j] += v * w
        out.append([Fraction(s, den) if s else zero for s in acc])
    return out


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
    if not a or not b:
        return []
    if isinstance(a[0][0], Fraction) and b[0] and isinstance(b[0][0], Fraction):
        return _rational_mat_mul(a, b)
    if b[0] and all(isinstance(e, RationalFunction) for row in (*a, *b) for e in row):
        return _rf_mat_mul(a, b)
    n, k, m = len(a), len(b), len(b[0])
    zero = _zero_like(a[0][0])
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            acc = zero
            for l in range(k):
                v = ai[l]
                if v:
                    acc = acc + v * b[l][j]
            row.append(acc)
        out.append(row)
    return out


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
    """Slot width k for evaluating the n x n matrix m over Z[x] at x = 2^k,
    such that `_unpack` reads det(m) and every Berkowitz coefficient v_i of
    m back from its value at 2^k.

    Let N >= 1 bound the 1-norm (the sum of the absolute values of the
    coefficients) of every entry. The 1-norm is subadditive and
    submultiplicative, so an i x i minor, a signed sum of i! products of i
    entries, has 1-norm at most i! N^i; v_i, a signed sum of C(n, i)
    principal i x i minors, has at most C(n, i) i! N^i <= n! N^n. So every
    coefficient of det(m) and of each v_i is at most B = n! N^n in absolute
    value, and k = bitlen(B) + 2 gives B < 2^(k-1).

    Only the final values need the bound. Evaluation at 2^k is a ring
    homomorphism Z[x] -> Z, Berkowitz's recurrence has no division, and
    Bareiss elimination of any integer matrix divides exactly, so the
    integer kernels return det(m)(2^k) and v_i(2^k) however large their
    intermediates are.
    """
    norm = max(1, max(sum(map(abs, e)) for row in m for e in row))
    return (factorial(len(m)) * norm ** len(m)).bit_length() + 2


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
        ints, den = _cleared(row)
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


def rank(rows) -> int:
    return len(_row_echelon([list(r) for r in rows]))


def kernel_basis(rows):
    """Basis of the right kernel of a matrix over a field."""
    if not rows:
        return []
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    pivots = _row_echelon(work)
    zero = _zero_like(rows[0][0])
    one = _one_like(rows[0][0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            # echelon row r: x_pc + sum coeffs * free parts = 0
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


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
    zero = _zero_like(g[0][0])
    one = _one_like(g[0][0])
    d = [list(row) for row in g]
    c = identity(n, one)
    for i in range(n):
        if any(d[i][j] != d[j][i] for j in range(n)):
            raise ValidationError("matrix is not symmetric")

    def col_op(dst: int, src: int, f) -> None:
        # basis change v_dst <- v_dst + f*v_src, applied on both sides
        for r in range(n):
            d[r][dst] = d[r][dst] + f * d[r][src]
        for r in range(n):
            d[dst][r] = d[dst][r] + f * d[src][r]
        for r in range(n):
            c[r][dst] = c[r][dst] + f * c[r][src]

    def swap(i: int, j: int) -> None:
        for r in range(n):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        d[i], d[j] = d[j], d[i]
        for r in range(n):
            c[r][i], c[r][j] = c[r][j], c[r][i]

    for k in range(n):
        if not d[k][k]:
            for l in range(k + 1, n):
                if d[l][l]:
                    swap(k, l)
                    break
            else:
                # all remaining diagonal entries vanish; bring in a cross term
                found = None
                for l in range(k, n):
                    for m_ in range(l + 1, n):
                        if d[l][m_]:
                            found = (l, m_)
                            break
                    if found:
                        break
                if found is None:
                    break  # remaining block is zero
                l, m_ = found
                col_op(l, m_, one)  # new d[l][l] = 2 d[l][m] != 0
                if l != k:
                    swap(k, l)
        pivot = d[k][k]
        if not pivot:
            continue
        for j in range(k + 1, n):
            if d[k][j]:
                col_op(j, k, -d[k][j] / pivot)
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
