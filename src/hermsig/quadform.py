"""Quadratic forms over the base ring and their signatures at orderings.

A form is a symmetric Gram matrix with entries in the ring. Over Q its
signature at the one ordering comes from integer elimination: the Gram
matrix is scaled to integers and the signs of the successive pivots of
symmetric Bareiss elimination are read by Jacobi's rule
(`linalg.rational_signature`).

Total signatures, and signatures over Q[x], come from the characteristic
polynomial of the Gram matrix: with det(XI - G) = X^n + u1 X^(n-1) + ... +
un, the number of positive eigenvalues is the sign variation of (1, u1,
..., un) evaluated at the ordering and the number of negative ones is the
variation of the alternating sequence (1, -u1, u2, -u3, ...). The matrix is
first split into connected blocks; signatures add over blocks and diagonal
blocks skip the characteristic polynomial entirely.

A third route, the oracle the others are checked against, diagonalizes
the Gram matrix by an explicit congruence (`linalg.congruence_diagonalize`)
and reads the signs off the diagonal with `sign_of`; the congruence is
returned as a `DiagonalWitness`. Away from algebraic points the matrix is
taken over Q (specialized at a rational point) or over Q(x) at a cut or an
end, and the witness is checked there; at an algebraic point the
elimination runs modulo its defining polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .constructible import AndSet, Constructible, HalfSpace, NotSet, OrSet
from .errors import ValidationError
from .linalg import (
    charpoly_coefficients,
    congruence_diagonalize,
    field_det,
    mat_mul,
    poly_det,
    rational_signature,
    submatrix,
    symmetric_blocks,
    symmetric_diagonalize,
    transpose,
)
from .polynomials import Polynomial, RationalFunction, poly_lcm
from .realroots import AlgebraicReal, isolate_real_roots, sign_at, sign_variation
from .sper import (
    AlgebraicPoint,
    Element,
    OrderingPoint,
    RationalPoint,
    Ring,
    ensure_admissible,
    sign_of,
)
from .stepfun import StepFunction


class QuadraticForm:
    """Symmetric bilinear form given by its Gram matrix over the ring."""

    __slots__ = ("ring", "gram")

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, ring: Ring, gram: Sequence[Sequence]):
        rows = [[ring.coerce(e) for e in row] for row in gram]
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValidationError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValidationError(
                        f"Gram matrix is not symmetric at ({i},{j})"
                    )
        self.ring = ring
        self.gram = tuple(tuple(row) for row in rows)

    @classmethod
    def _from_ring_rows(cls, ring: Ring, rows) -> "QuadraticForm":
        """A form whose rows are square, symmetric and already elements of
        the ring, kept as they are: no coercion and no check."""
        self = object.__new__(cls)
        self.ring = ring
        self.gram = tuple(tuple(row) for row in rows)
        return self

    @classmethod
    def diagonal(cls, ring: Ring, entries: Sequence) -> "QuadraticForm":
        es = [ring.coerce(e) for e in entries]
        z = ring.zero
        return cls(ring, [[es[i] if i == j else z for j in range(len(es))] for i in range(len(es))])

    @classmethod
    def unit_form(cls, ring: Ring, n: int) -> "QuadraticForm":
        return cls.diagonal(ring, [ring.one] * n)

    @property
    def dim(self) -> int:
        return len(self.gram)

    @property
    def is_diagonal(self) -> bool:
        return all(
            not self.gram[i][j]
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        )

    def diagonal_entries(self) -> "list[Element]":
        return [self.gram[i][i] for i in range(self.dim)]

    def direct_sum(self, other: "QuadraticForm") -> "QuadraticForm":
        if self.ring != other.ring:
            raise ValidationError("forms live over different rings")
        n, m = self.dim, other.dim
        z = self.ring.zero
        rows = []
        for i in range(n):
            rows.append(list(self.gram[i]) + [z] * m)
        for i in range(m):
            rows.append([z] * n + list(other.gram[i]))
        return QuadraticForm(self.ring, rows)

    def tensor(self, other: "QuadraticForm") -> "QuadraticForm":
        if self.ring != other.ring:
            raise ValidationError("forms live over different rings")
        n, m = self.dim, other.dim
        rows = []
        for i in range(n):
            for j in range(m):
                rows.append(
                    [self.gram[i][k] * other.gram[j][l] for k in range(n) for l in range(m)]
                )
        return QuadraticForm(self.ring, rows)

    def scaled(self, e) -> "QuadraticForm":
        c = self.ring.coerce(e)
        return QuadraticForm(self.ring, [[c * v for v in row] for row in self.gram])

    def negated(self) -> "QuadraticForm":
        return self.scaled(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return self.ring == other.ring and self.gram == other.gram

    def __str__(self) -> str:
        if self.is_diagonal:
            return "<" + ", ".join(str(e) for e in self.diagonal_entries()) + ">"
        return "gram" + str([[str(e) for e in row] for row in self.gram])

    def __repr__(self) -> str:
        return f"QuadraticForm({self})"


#### signatures


class _BlockData:
    """Per-block signature data: diagonal entries, or charpoly coefficients."""

    __slots__ = ("diag", "u")

    def __init__(self, rows):
        n = len(rows)
        if all(not rows[i][j] for i in range(n) for j in range(n) if i != j):
            self.diag = [rows[i][i] for i in range(n)]
            self.u = None
        else:
            self.diag = None
            self.u = charpoly_coefficients(rows)

    def signature_at(self, point: OrderingPoint) -> int:
        if self.diag is not None:
            return sum(sign_of(d, point) for d in self.diag)
        signs = [sign_of(ui, point) for ui in self.u]
        plus = [1] + signs
        minus = [1] + [-s if i % 2 == 1 else s for i, s in enumerate(signs, start=1)]
        return sign_variation(plus) - sign_variation(minus)

    def breakpoint_polynomials(self) -> "list[Polynomial]":
        elems = self.diag if self.diag is not None else self.u
        out = []
        for e in elems:
            if isinstance(e, RationalFunction) and not e.is_zero:
                if e.num.degree > 0:
                    out.append(e.num)
                if e.den.degree > 0:
                    out.append(e.den)
        return out


def _blocks(form: QuadraticForm) -> "list[_BlockData]":
    rows = [list(r) for r in form.gram]
    return [_BlockData(submatrix(rows, idx)) for idx in symmetric_blocks(rows)]


def signature_at(form: QuadraticForm, point: OrderingPoint) -> int:
    """Signature of the form under one ordering of the base ring."""
    ensure_admissible(form.ring, point)
    if form.ring.is_rational_base:
        return rational_signature(form.gram)
    return sum(b.signature_at(point) for b in _blocks(form))


def total_signature(form: QuadraticForm) -> StepFunction:
    """The signature of the form as a step function on all orderings."""
    blocks = _blocks(form)
    centers: "list[AlgebraicReal]" = []
    for b in blocks:
        for p in b.breakpoint_polynomials():
            centers.extend(isolate_real_roots(p))
    return StepFunction.build(
        form.ring, centers, lambda point: sum(b.signature_at(point) for b in blocks)
    )


#### congruence-diagonalization route with certificate


class DiagonalWitness:
    """Certificate that a form has a given signature at one ordering.

    Stores an explicit invertible change of basis whose congruence makes the
    (scaled) Gram matrix diagonal at that ordering, the resulting diagonal,
    and the signature read off it. For algebraic point orderings the
    congruence holds modulo the defining polynomial of the point and the
    basis change has polynomial entries; `scale` records the positive square
    factor used to clear denominators.
    """

    __slots__ = ("point", "transform", "diagonal", "scale", "modulus", "signature")

    def __init__(self, point, transform, diagonal, scale, modulus, signature):
        self.point = point
        self.transform = transform
        self.diagonal = diagonal
        self.scale = scale
        self.modulus = modulus
        self.signature = signature

    def verify(self, form: QuadraticForm) -> None:
        """Re-check the certificate against the form; raises ValidationError."""
        point = self.point
        ensure_admissible(form.ring, point)
        n = form.dim
        if len(self.diagonal) != n or [len(row) for row in self.transform] != [n] * n:
            raise ValidationError("certificate size does not match the form")
        if self.modulus is not None:
            self._verify_algebraic(form)
            return
        g, one = _specialize_gram(form, point)
        c = [[_field_entry(e, one) for e in row] for row in self.transform]
        diag = [_field_entry(e, one) for e in self.diagonal]
        if field_det(c) == 0:
            raise ValidationError("certificate transform is singular")
        m = mat_mul(transpose(c), mat_mul(g, c))
        for i in range(n):
            for j in range(n):
                if m[i][j] != (diag[i] if i == j else 0):
                    raise ValidationError(f"certificate congruence fails at ({i},{j})")
        self._check_signature(sum(sign_of(d, point) for d in diag))

    def _verify_algebraic(self, form: QuadraticForm) -> None:
        # the products run over Q(x) on polynomial-valued entries
        point = self.point
        if not isinstance(point, AlgebraicPoint):
            raise ValidationError("modular certificate needs an algebraic point")
        theta = point.value
        f, c = (_polynomial_entry(e).num for e in (self.modulus, self.scale))
        if f.is_zero:
            raise ValidationError("certificate modulus is zero")
        if sign_at(f, theta) != 0:
            raise ValidationError("certificate modulus does not vanish at the point")
        if sign_at(c, theta) == 0:
            raise ValidationError("certificate scale vanishes at the point")
        n = form.dim
        scaled = [[e * c * c for e in row] for row in form.gram]
        if not all(e.is_polynomial for row in scaled for e in row):
            raise ValidationError("certificate scale does not clear the denominators of the form")
        v = [[_polynomial_entry(e) for e in row] for row in self.transform]
        diag = [_polynomial_entry(e).num for e in self.diagonal]
        m = mat_mul(transpose(v), mat_mul(scaled, v))
        for i in range(n):
            for j in range(n):
                d = (m[i][j] - diag[i] if i == j else m[i][j]).num
                if not d.is_zero and sign_at(d % f, theta) != 0:
                    raise ValidationError(
                        f"certificate congruence fails at ({i},{j}) at the point"
                    )
        if sign_at(poly_det([[e.num for e in row] for row in v]) % f, theta) == 0:
            raise ValidationError("certificate transform is singular at the point")
        self._check_signature(sum(sign_at(d, theta) for d in diag))

    def _check_signature(self, sig: int) -> None:
        if sig != self.signature:
            raise ValidationError(
                f"certificate signature {self.signature} does not match diagonal ({sig})"
            )


def _field_entry(e, one):
    """A certificate entry in the field of `one`: Q for a Fraction, Q(x) for
    a RationalFunction. Raises ValidationError for any other entry."""
    if isinstance(e, (int, Fraction)) or (
        isinstance(one, RationalFunction) and isinstance(e, (Polynomial, RationalFunction))
    ):
        return one * e
    field = "Q" if isinstance(one, Fraction) else "Q(x)"
    raise ValidationError(f"certificate entry {e!r} is not an element of {field}")


def _polynomial_entry(e) -> RationalFunction:
    """A modular certificate entry as a polynomial-valued element of Q(x)."""
    r = _field_entry(e, RationalFunction(1))
    if not r.is_polynomial:
        raise ValidationError(f"certificate entry {e} is not a polynomial")
    return r


def _specialize_gram(form: QuadraticForm, point) -> "tuple[list[list[Element]], Element]":
    """The Gram matrix a witness at a non-algebraic ordering is built on, and
    the one of its field: over Q as it is, over Q at a rational point of a
    line (evaluated there), over Q(x) at a cut or an end."""
    if isinstance(point, RationalPoint):
        return [[e(point.value) for e in row] for row in form.gram], Fraction(1)
    return [list(row) for row in form.gram], form.ring.one


def _diagonalize_at_algebraic(form: QuadraticForm, point: AlgebraicPoint) -> DiagonalWitness:
    # fraction-free congruence elimination with zero tests at the point;
    # entries are kept reduced modulo the defining polynomial
    theta = point.value
    f = theta.defining
    scale = Polynomial.one()
    for row in form.gram:
        for e in row:
            scale = poly_lcm(scale, e.den)
    g = [[(e * scale * scale).as_polynomial() % f for e in row] for row in form.gram]
    diag, v = congruence_diagonalize(
        g,
        Polynomial.one(),
        lambda p: p.is_zero or sign_at(p, theta) == 0,
        lambda p, a: lambda x, y: (p * x - a * y) % f,
    )
    sig = sum(sign_at(d, theta) for d in diag)
    return DiagonalWitness(point, v, diag, scale, f, sig)


def signature_via_diag(form: QuadraticForm, point: OrderingPoint) -> DiagonalWitness:
    """Signature at one ordering by explicit diagonalization, with certificate.

    Independent of the characteristic-polynomial route: the Gram matrix is
    diagonalized over Q at Q and at rational points (specialized there),
    over Q(x) at cuts and infinite orderings, and, at algebraic points, by a
    division-free elimination modulo the defining polynomial of the point.
    """
    ensure_admissible(form.ring, point)
    if isinstance(point, AlgebraicPoint):
        return _diagonalize_at_algebraic(form, point)
    g, one = _specialize_gram(form, point)
    diag, c = symmetric_diagonalize(g)
    return DiagonalWitness(point, c, diag, one, None, sum(sign_of(d, point) for d in diag))


#### forms whose signature is the indicator of a constructible set


def _indicator_leaf(p: Polynomial, ring: Ring) -> "tuple[QuadraticForm, int]":
    a = ring.coerce(p)
    entries = [-(a * a), -a, ring.one, ring.one]
    return QuadraticForm.diagonal(ring, entries), 1


def _indicator_complement(q: QuadraticForm, k: int) -> "tuple[QuadraticForm, int]":
    return QuadraticForm.unit_form(q.ring, 2 ** k).direct_sum(q.negated()), k


def _indicator(u: Constructible, ring: Ring, neg: bool) -> "tuple[QuadraticForm, int]":
    if isinstance(u, NotSet):
        return _indicator(u.inner, ring, not neg)
    if isinstance(u, HalfSpace):
        q, k = _indicator_leaf(u.p, ring)
        return _indicator_complement(q, k) if neg else (q, k)
    if isinstance(u, (AndSet, OrSet)):
        # conjunctions go through De Morgan, so only unions are combined
        flip = isinstance(u, AndSet) != neg
        parts = [_indicator(p, ring, neg != flip) for p in u.parts]
        q, k = parts[0]
        for q2, k2 in parts[1:]:
            q, k = q.tensor(q2), k + k2
        return _indicator_complement(q, k) if flip else (q, k)
    raise ValidationError(f"unknown set formula {u!r}")


def mahe_indicator(u: Constructible, ring: Ring) -> "tuple[QuadraticForm, int]":
    """A diagonal form whose signature is 0 on the set and 2^k off it.

    Returns (form, k). Union multiplies the forms (tensor product) and adds
    the exponents; complement subtracts the signature from the constant 2^k;
    intersections are rewritten by De Morgan.
    """
    return _indicator(u, ring, False)


def pad_indicator(q: QuadraticForm, k: int, j: int) -> "tuple[QuadraticForm, int]":
    """Repeat the indicator form 2^j times: same zero set, exponent k + j."""
    if j < 0:
        raise ValidationError("padding exponent must be nonnegative")
    out = q
    for _ in range(2 ** j - 1):
        out = out.direct_sum(q)
    return out, k + j
