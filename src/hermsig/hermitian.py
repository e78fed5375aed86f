"""Hermitian forms over a presented algebra and their exact signatures.

A hermitian form is a square matrix of algebra elements fixed by the
conjugate transpose of the involution. Forms are paired by a scalar-valued
product: entry by entry, the regular trace of the involution-twisted
product of coordinates. The pairing of a form with itself has signature
(centre rank) * (divisor * absolute signature)^2 at every ordering, which
pins the absolute signature down without any splitting choices; pairing
against a fixed reference form recovers the sign.

The Gram matrix of a pairing is assembled on integers (`star`). The
multiplication table and the twisted trace matrix are cleared to integers
once per algebra, the entries of the two forms once per call, and each
block is two products of integer matrices. Over Q[x][1/s] every value is
first evaluated at x = 2^k, with k = bitlen(m^4 N_ST N_T^2 N_v N_w) + 2
for 1-norm bounds N of the cleared values (`linalg._pairing_width`), so
that each Gram entry is read back exactly from its value.

Signatures sum over the scalar-times-atom parts of a form, and forms built
by `direct_sum` and `quad_tensor` share their atoms. The total signature
of the pairing of two atoms is memoised on the first atom, keyed by the
entries of the second: a sum, its summands and their twists pair each
atom once. The key is plain data, so a long-lived reference paired with
many probes keeps nothing of them, and no atom refers back to another.

A reference form carries a certificate: the step function of its
self-pairing signature, which must be strictly positive wherever the
algebra is not nil. Certification is checked once and cached, so passing a
reference around is a lookup. The search for a reference walks a
deterministic pool of diagonal candidates and, when no single candidate
works everywhere, glues piecewise matches with indicator-form multipliers
that vanish off their piece.

For split models there is an independent cross-check: transport a form to
a matrix over the fiber, diagonalize the associated scalar form over the
rationals, and count signs the classical way.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from random import Random
from typing import Sequence

from .azumaya import (
    PACKED_IMAGE_BITS,
    AlgebraPresentation,
    _merged,
    classify_at,
    divisor_map,
    nil_indicator,
)
from .constructible import (
    Constructible,
    NotSet,
    constructible_indicator,
    level_to_constructible,
)
from .errors import BudgetError, InconsistencyError, ValidationError
from .linalg import (
    _cleared,
    _int_mat_mul,
    _norm,
    _pack,
    _pairing_width,
    _unpack,
    field_det,
    mat_mul,
    transpose,
)
from .polynomials import Polynomial, RationalFunction
from .quadform import (
    QuadraticForm,
    mahe_indicator,
    pad_indicator,
    signature_at,
    signature_via_diag,
    total_signature,
)
from .sper import Element, OrderingPoint, Ring, TheOrdering
from .stepfun import StepFunction, continuity_failures, step_combine


def _coerce_entry(a: AlgebraPresentation, v) -> "tuple[Element, ...]":
    if len(v) != a.m:
        raise ValidationError(
            f"entry has {len(v)} coordinates, the algebra has rank {a.m}"
        )
    return tuple(a.ring.coerce(c) for c in v)


class HermitianForm:
    """A matrix of algebra elements equal to its involution transpose.

    The decomposition into scalar-times-atom summands is tracked when a
    form is assembled from diagonal pieces, sums and tensor multiples;
    signature computations sum over those parts so the pairing matrices
    stay small.

    `_pairings` is the pairing memo of `star_total` (see the module
    docstring), keyed by the partner atom's entries.
    """

    __slots__ = ("algebra", "entries", "_parts", "_pairings")

    def __init__(self, algebra: AlgebraPresentation, entries, parts=None):
        self.algebra = algebra
        k = len(entries)
        if k == 0:
            raise ValidationError("a form needs at least one row")
        rows = []
        for row in entries:
            if len(row) != k:
                raise ValidationError("the matrix of a form must be square")
            rows.append(tuple(_coerce_entry(algebra, v) for v in row))
        self.entries = tuple(rows)
        for i in range(k):
            for j in range(i, k):
                flipped = algebra.apply_involution(self.entries[i][j])
                if list(self.entries[j][i]) != flipped:
                    raise ValidationError(
                        "the involution transpose of the matrix must equal it"
                        f" (rows {i}, {j})"
                    )
        self._parts = None if parts is None else tuple(parts)
        self._pairings: "dict[tuple, StepFunction]" = {}

    @classmethod
    def diagonal(cls, algebra: AlgebraPresentation, elems) -> "HermitianForm":
        """Diagonal form; every entry must be fixed by the involution."""
        coerced = [_coerce_entry(algebra, e) for e in elems]
        for e in coerced:
            if not algebra.is_symmetric_element(e):
                raise ValidationError(
                    "diagonal entries must be fixed by the involution"
                )
        zero = tuple([algebra.ring.zero] * algebra.m)
        k = len(coerced)
        entries = [
            [coerced[i] if i == j else zero for j in range(k)] for i in range(k)
        ]
        one = QuadraticForm.unit_form(algebra.ring, 1)
        parts = [(one, cls(algebra, [[e]])) for e in coerced]
        return cls(algebra, entries, parts=parts)

    @classmethod
    def unit(cls, algebra: AlgebraPresentation, k: int = 1) -> "HermitianForm":
        return cls.diagonal(algebra, [algebra.unit] * k)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def parts(self) -> "list[tuple[QuadraticForm, HermitianForm]]":
        if self._parts is None:
            return [(QuadraticForm.unit_form(self.algebra.ring, 1), self)]
        return list(self._parts)

    def direct_sum(self, other: "HermitianForm") -> "HermitianForm":
        _same_algebra(self, other)
        a = self.algebra
        zero = tuple([a.ring.zero] * a.m)
        k1, k2 = self.rank, other.rank
        entries = []
        for i in range(k1):
            entries.append(list(self.entries[i]) + [zero] * k2)
        for i in range(k2):
            entries.append([zero] * k1 + list(other.entries[i]))
        return HermitianForm(a, entries, parts=self.parts() + other.parts())

    def negated(self) -> "HermitianForm":
        entries = [
            [tuple(-c for c in v) for v in row] for row in self.entries
        ]
        parts = [(q.negated(), atom) for q, atom in self.parts()]
        return HermitianForm(self.algebra, entries, parts=parts)

    def multiple(self, c: int) -> "HermitianForm":
        # c orthogonal copies
        if c < 1:
            raise ValidationError("the multiple count must be positive")
        return quad_tensor(QuadraticForm.unit_form(self.algebra.ring, c), self)

    def is_nonsingular(self) -> bool:
        """Whether the matrix is invertible over the algebra.

        Checked through the regular representation: the determinant of the
        block matrix of left multiplications must be a unit of the base.
        """
        a = self.algebra
        m, k = a.m, self.rank
        big = [[a.ring.zero] * (k * m) for _ in range(k * m)]
        for i in range(k):
            for j in range(k):
                block = a.left_mult_matrix(self.entries[i][j])
                for l in range(m):
                    row = big[i * m + l]
                    seg = block[l]
                    for l2 in range(m):
                        row[j * m + l2] = seg[l2]
        return a.ring.is_unit(field_det(big))

    def __repr__(self) -> str:
        return f"HermitianForm(rank {self.rank} over {self.algebra})"


def quad_tensor(q: QuadraticForm, h: HermitianForm) -> "HermitianForm":
    """Tensor a scalar quadratic form onto a hermitian form."""
    a = h.algebra
    if q.ring != a.ring:
        raise ValidationError("the scalar form lives over a different ring")
    k, d = h.rank, q.dim
    entries = []
    for i in range(d):
        for x in range(k):
            row = []
            for j in range(d):
                c = q.gram[i][j]
                for y in range(k):
                    row.append(tuple(c * e for e in h.entries[x][y]))
            entries.append(row)
    parts = [(q.tensor(qi), atom) for qi, atom in h.parts()]
    return HermitianForm(a, entries, parts=parts)


def _same_algebra(h1: HermitianForm, h2: HermitianForm) -> None:
    if h1.algebra is not h2.algebra:
        raise ValidationError("the forms live over different presentations")


def _st_over_n(a: AlgebraPresentation) -> "list[list[Element]]":
    # involution matrix transposed times trace matrix, scaled by 1/degree:
    # row l is the trace functional composed with left multiplication by
    # the involuted l-th basis vector
    cached = a._cache.get("st_over_n")
    if cached is not None:
        return cached
    st = mat_mul(transpose(a.involution_matrix()), a.trace_matrix())
    c = a.ring.coerce(Fraction(1, a.degree))
    scaled = [[c * e for e in row] for row in st]
    a._cache["st_over_n"] = scaled
    return scaled


def _pairing_image(a: AlgebraPresentation):
    """(by_left, by_right, table, st, s_table, s_st, n_table, n_st): the
    table and `_st_over_n` over the integers, computed once per algebra.

    For each term table[p] e_n of e_i e_j, by_left[i] lists (j, n, p) and
    by_right[j] lists (i, n, p); table[p] is the table entry times s_table.
    A cell that names an index twice is summed first (`azumaya._merged`), as
    `multiply` sums it, so each (i, j, n) has one term and n_table bounds
    the coefficient of e_n in e_i e_j.
    st lists the entries of `_st_over_n`, row by row, times s_st. Both are
    cleared by `linalg._cleared`: over Q the entries and scales are
    integers, over Q[x][1/s] integer coefficient lists, and n_table and
    n_st bound their 1-norms (`_pairing_width`).
    """
    image = a._cache.get("pairing_image")
    if image is None:
        poly = not a.ring.is_rational_base
        m = a.m
        by_left: "list[list]" = [[] for _ in range(m)]
        by_right: "list[list]" = [[] for _ in range(m)]
        values = []
        for i, row in enumerate(a.mul):
            for j, cell in enumerate(row):
                for n, v in _merged(cell):
                    by_left[i].append((j, n, len(values)))
                    by_right[j].append((i, n, len(values)))
                    values.append(v)
        table, s_table = _cleared(values, poly)
        st, s_st = _cleared([e for row in _st_over_n(a) for e in row], poly)
        norms = (_norm(table), _norm(st)) if poly else (None, None)
        image = (by_left, by_right, table, st, s_table, s_st, *norms)
        a._cache["pairing_image"] = image
    return image


def _mult_matrix(coords, by_factor, table, m: int) -> "list[list[int]]":
    """sum_i coords[i] M_i on integers, M_i[n][j] = table[p] for each
    (j, n, p) in by_factor[i]: the left or right multiplication matrix of
    an element."""
    out = [[0] * m for _ in range(m)]
    for c, cell in zip(coords, by_factor):
        if c:
            for j, n, p in cell:
                out[n][j] += c * table[p]
    return out


def star(h1: HermitianForm, h2: HermitianForm) -> QuadraticForm:
    """Scalar-valued pairing of two hermitian forms over one algebra.

    The Gram block between coordinate slots (i, j) and (i2, j2) sends
    basis vectors e, e2 to the scaled regular trace of
    invol(e) * h1[i][i2] * e2 * invol(h2[j][j2]): it is ST L(v) R(w), with
    ST = `_st_over_n`, v = h1[i][i2], w = invol(h2[j][j2]) and L, R the
    left and right multiplication matrices.

    The blocks are assembled on integers. The table and ST are cleared
    once per algebra (`_pairing_image`), the nonzero v and w once per call
    with one scale for each form, and L and R are built from the sparse
    table; ST L(v) is formed once per v and multiplied by each R(w)
    (`linalg._int_mat_mul`). Over Q[x][1/s] every value is evaluated at
    x = 2^k with k from `_pairing_width`, so the products run on plain
    integers too. Those integers take k bits for every coefficient slot,
    zero or not, so a sparse entry of high degree costs more packed than
    as a coefficient list; the parser caps degrees at
    `polynomials.MAX_POWER_DEGREE`, which bounds that cost. Values that
    would take more than PACKED_IMAGE_BITS in all stay integer
    Polynomials, as in `AlgebraPresentation._integer_image`, on which the
    same sums and products are exact. The Gram matrix is checked for
    symmetry on these values and read back: an entry g becomes g / den
    over Q, and over Q[x][1/s] the polynomial whose balanced base-2^k
    digits g has (or g itself, unpacked) over den = c D with D monic.
    """
    _same_algebra(h1, h2)
    a = h1.algebra
    ring, m = a.ring, a.m
    k1, k2 = h1.rank, h2.rank
    zero = ring.zero
    dim = k1 * k2 * m
    lefts = [(i, i2) for i in range(k1) for i2 in range(k1) if any(h1.entries[i][i2])]
    rights = {}
    for j in range(k2):
        for j2 in range(k2):
            w = a.apply_involution(h2.entries[j][j2])
            if any(w):
                rights[(j, j2)] = w
    poly = not ring.is_rational_base
    by_left, by_right, table, st, s_table, s_st, n_table, n_st = _pairing_image(a)
    vs, s_v = _cleared([c for i, i2 in lefts for c in h1.entries[i][i2]], poly)
    ws, s_w = _cleared([c for w in rights.values() for c in w], poly)
    if poly:
        k = _pairing_width(m, n_st, n_table, _norm(vs), _norm(ws))
        parts = [table, st, vs, ws]
        if k * sum(len(e) for part in parts for e in part) <= PACKED_IMAGE_BITS:
            table, st, vs, ws = _pack(parts, k)
        else:
            table, st, vs, ws = [[Polynomial._make(e) for e in part] for part in parts]
            k = None
    st = [st[l * m : (l + 1) * m] for l in range(m)]
    gram = [[0] * dim for _ in range(dim)]
    rmats = [
        (key, _mult_matrix(ws[q * m : (q + 1) * m], by_right, table, m))
        for q, key in enumerate(rights)
    ]
    for p, (i, i2) in enumerate(lefts):
        left = _int_mat_mul(st, _mult_matrix(vs[p * m : (p + 1) * m], by_left, table, m))
        for (j, j2), rmat in rmats:
            block = _int_mat_mul(left, rmat)
            r0 = (i * k2 + j) * m
            c0 = (i2 * k2 + j2) * m
            for l in range(m):
                gram[r0 + l][c0 : c0 + m] = block[l]
    cols = list(zip(*gram))
    for i, row in enumerate(gram):
        if tuple(row[i + 1 :]) != cols[i][i + 1 :]:
            j = next(j for j in range(i + 1, dim) if row[j] != cols[i][j])
            raise ValidationError(f"Gram matrix is not symmetric at ({i},{j})")
    if poly:
        den = Polynomial._make(s_st) * Polynomial._make(s_table) ** 2
        den = den * Polynomial._make(s_v) * Polynomial._make(s_w)
        c = den._n[-1]
        monic = Polynomial._make(den._n, c)

        def read(g):
            coeffs = g._n if k is None else _unpack(g, k)
            return RationalFunction(Polynomial._make(coeffs, c), monic)

    else:
        den = s_st * s_table * s_table * s_v * s_w

        def read(g):
            return Fraction(g, den)

    rows = [[zero] * dim for _ in range(dim)]
    for i, row in enumerate(gram):
        for j in range(i, dim):
            if row[j]:
                rows[i][j] = rows[j][i] = read(row[j])
    return QuadraticForm._from_ring_rows(ring, rows)


def star_signature(h1: HermitianForm, h2: HermitianForm, point: OrderingPoint) -> int:
    """Signature of the pairing at one ordering, summed over parts."""
    _same_algebra(h1, h2)
    total = 0
    for q1, a1 in h1.parts():
        s1 = signature_at(q1, point)
        if s1 == 0:
            continue
        for q2, a2 in h2.parts():
            s2 = signature_at(q2, point)
            if s2 == 0:
                continue
            total += s1 * s2 * signature_at(star(a1, a2), point)
    return total


def _pairing_total(a1: HermitianForm, a2: HermitianForm) -> StepFunction:
    """total_signature(star(a1, a2)), computed once per atom and partner."""
    ts = a1._pairings.get(a2.entries)
    if ts is None:
        ts = a1._pairings[a2.entries] = total_signature(star(a1, a2))
    return ts


def star_total(h1: HermitianForm, h2: HermitianForm) -> StepFunction:
    """The pairing signature on every ordering at once; each atom pairing
    is computed once (`_pairing_total`)."""
    _same_algebra(h1, h2)
    terms = []
    seconds = [(total_signature(q2), a2) for q2, a2 in h2.parts()]
    for q1, a1 in h1.parts():
        t1 = total_signature(q1)
        for t2, a2 in seconds:
            ts = _pairing_total(a1, a2)
            terms.append(
                step_combine([t1, t2, ts], lambda v: v[0] * v[1] * v[2])
            )
    if len(terms) == 1:
        return terms[0]
    return step_combine(terms, sum)


def _abs_from_pairing(s: int, rank_z: int, divisor: int, where: str) -> int:
    if s < 0:
        raise InconsistencyError(f"negative self-pairing signature {s} {where}")
    if s % rank_z:
        raise InconsistencyError(
            f"self-pairing signature {s} not divisible by the centre rank {where}"
        )
    t = s // rank_z
    r = isqrt(t)
    if r * r != t:
        raise InconsistencyError(
            f"self-pairing signature {s} is not centre rank times a square {where}"
        )
    if divisor == 0:
        if r:
            raise InconsistencyError(
                f"nonzero self-pairing signature {s} on a nil cell {where}"
            )
        return 0
    if r % divisor:
        raise InconsistencyError(
            f"signature root {r} not divisible by the divisor {divisor} {where}"
        )
    return r // divisor


def abs_signature_at(h: HermitianForm, point: OrderingPoint) -> int:
    """The absolute signature at one ordering.

    Derived from the self-pairing: its signature must equal the centre
    rank times the square of divisor times result, and must vanish on nil
    cells. Any violation is reported as an inconsistency, never absorbed.
    """
    cls = classify_at(h.algebra, point)
    s = star_signature(h, h, point)
    return _abs_from_pairing(s, h.algebra.centre_rank, cls.divisor, f"at {point}")


def total_abs_signature(h: HermitianForm) -> StepFunction:
    """Absolute signature as a step function over all orderings."""
    t = star_total(h, h)
    d = divisor_map(h.algebra)
    rank_z = h.algebra.centre_rank
    return step_combine(
        [t, d], lambda v: _abs_from_pairing(v[0], rank_z, v[1], "on a cell")
    )


class ReferenceForm:
    """A hermitian form whose self-pairing is positive off the nil locus.

    The certificate is the stored step function of the self-pairing
    signature; `verify` recomputes it, checks strict positivity on every
    cell where the algebra is not nil, and checks the claimed constant
    absolute signature if one is recorded. Signature routines call
    `ensure_certified`, so an unverified or wrong certificate is rejected
    before any value is produced.
    """

    __slots__ = ("form", "certificate", "constant", "_checked")

    def __init__(
        self,
        form: HermitianForm,
        certificate: StepFunction,
        constant: "int | None" = None,
    ):
        if certificate.ring != form.algebra.ring:
            raise ValidationError("certificate lives over a different ring")
        self.form = form
        self.certificate = certificate
        self.constant = constant
        self._checked = False

    @property
    def algebra(self) -> AlgebraPresentation:
        return self.form.algebra

    @property
    def is_certified(self) -> bool:
        return self._checked

    def verify(self) -> None:
        recomputed = star_total(self.form, self.form)
        if recomputed != self.certificate:
            raise ValidationError(
                "stored certificate does not match the self-pairing signature"
            )
        nil = nil_indicator(self.algebra)
        flags = step_combine(
            [self.certificate, nil],
            lambda v: 0 if (v[1] == 0) == (v[0] > 0) else 1,
        )
        if flags.value_map() != {0: None}:
            raise ValidationError(
                "self-pairing signature is not positive exactly off the nil locus"
            )
        if self.constant is not None:
            ab = total_abs_signature(self.form)
            c = self.constant
            bad = step_combine(
                [ab, nil], lambda v: 0 if v[1] == 1 or v[0] == c else 1
            )
            if bad.value_map() != {0: None}:
                raise ValidationError(
                    f"absolute signature is not the constant {c} off the nil locus"
                )
        self._checked = True

    def ensure_certified(self) -> None:
        if not self._checked:
            self.verify()

    def __repr__(self) -> str:
        state = "certified" if self._checked else "unverified"
        return f"ReferenceForm({state}, constant {self.constant})"


def _eta_value(cross: int, ab: int, where: str) -> int:
    if ab == 0:
        if cross:
            raise InconsistencyError(
                f"pairing {cross} against a form of absolute signature 0 {where}"
            )
        return 0
    if cross == 0:
        raise InconsistencyError(
            f"certified reference pairs to zero against absolute signature {ab} {where}"
        )
    return ab if cross > 0 else -ab


def eta_signature_at(
    h: HermitianForm, eta: ReferenceForm, point: OrderingPoint
) -> int:
    """Signed signature at one ordering, relative to a certified reference."""
    _same_algebra(h, eta.form)
    eta.ensure_certified()
    ab = abs_signature_at(h, point)
    cross = star_signature(h, eta.form, point)
    return _eta_value(cross, ab, f"at {point}")


def total_eta_signature(h: HermitianForm, eta: ReferenceForm) -> StepFunction:
    """Signed signature against a certified reference, on all orderings."""
    _same_algebra(h, eta.form)
    eta.ensure_certified()
    cross = star_total(h, eta.form)
    ab = total_abs_signature(h)
    return step_combine(
        [cross, ab], lambda v: _eta_value(v[0], v[1], "on a cell")
    )


# bound on the random coefficients and shifts of the reference candidates
CANDIDATE_HEIGHT = 2


def _candidates(a: AlgebraPresentation, rng: Random):
    # deterministic pool: unit, symmetric basis, then bounded random
    # combinations; over a line every third combination is shifted by a
    # linear factor to move supports around
    yield list(a.unit)
    sym = a.symmetric_element_basis()
    for b in sym:
        yield list(b)
    ring = a.ring
    count = 0
    x = Polynomial.x()
    while True:
        coeffs = [rng.randint(-CANDIDATE_HEIGHT, CANDIDATE_HEIGHT) for _ in sym]
        if all(c == 0 for c in coeffs):
            continue
        v = [ring.zero] * a.m
        for c, b in zip(coeffs, sym):
            if c:
                cc = ring.coerce(c)
                v = [e + cc * be for e, be in zip(v, b)]
        count += 1
        if not ring.is_rational_base and count % 3 == 0:
            shift = ring.coerce(x - rng.randint(-CANDIDATE_HEIGHT, CANDIDATE_HEIGHT))
            v = [shift * e for e in v]
        yield v


def _diag_entry_nonsingular(a: AlgebraPresentation, v) -> bool:
    return a.ring.is_unit(field_det(a.left_mult_matrix(v)))


def find_reference_form(
    a: AlgebraPresentation, budget: int = 40, seed: int = 0
) -> ReferenceForm:
    """Search for a certified reference form over the algebra.

    Tries diagonal one-entry candidates first; a candidate whose absolute
    signature is one nonzero constant off the nil locus is returned as is.
    Otherwise positive level pieces of the candidates are collected until
    they cover everything off nil, then glued: each piece contributes its
    candidate tensored with an indicator form that vanishes off the piece,
    repeated so all pieces reach one common absolute value. Raises a
    budget error naming the uncovered region when the pool runs out.
    """
    a.validate()
    ring = a.ring
    nil = nil_indicator(a)
    if nil.value_map() == {1: None}:
        # nothing to certify: the zero form is the reference
        form = HermitianForm.diagonal(a, [[ring.zero] * a.m])
        ref = ReferenceForm(form, star_total(form, form), constant=0)
        ref.verify()
        return ref
    rng = Random(seed)
    covered = nil
    pieces: "list[tuple[list, int, StepFunction]]" = []
    tried = 0
    for cand in _candidates(a, rng):
        if tried >= budget:
            break
        tried += 1
        if not _diag_entry_nonsingular(a, cand):
            continue
        atom = HermitianForm.diagonal(a, [cand])
        ab = total_abs_signature(atom)
        off = step_combine([ab, nil], lambda v: -1 if v[1] else v[0])
        off_values = [v for v in off.value_map() if v != -1]
        if len(off_values) == 1 and off_values[0] > 0:
            ref = ReferenceForm(atom, star_total(atom, atom), constant=off_values[0])
            ref.verify()
            return ref
        for v in ab.value_map():
            if v <= 0:
                continue
            piece = step_combine(
                [ab, covered],
                lambda w, v=v: 1 if w[0] == v and w[1] == 0 else 0,
            )
            if piece.value_map() == {0: None}:
                continue
            pieces.append((cand, v, piece))
            covered = step_combine(
                [covered, piece], lambda w: 1 if w[0] or w[1] else 0
            )
        if covered.value_map() == {1: None}:
            return _glue_reference(a, pieces)
    uncovered = level_to_constructible(covered, 0)
    raise BudgetError(
        f"no reference found within {budget} candidates;"
        f" uncovered region: {uncovered}"
    )


def _glue_reference(a: AlgebraPresentation, pieces) -> ReferenceForm:
    ring = a.ring
    located = []
    for cand, v, piece in pieces:
        u = level_to_constructible(piece, 1)
        q, k = mahe_indicator(NotSet(u), ring)
        located.append((cand, v, q, k))
    kstar = max(k for _, _, _, k in located)
    value = lcm(*[v for _, v, _, _ in located])
    form: "HermitianForm | None" = None
    for cand, v, q, k in located:
        padded, _ = pad_indicator(q, k, kstar - k)
        copies = value // v
        if copies > 1:
            padded = padded.tensor(QuadraticForm.unit_form(ring, copies))
        term = quad_tensor(padded, HermitianForm.diagonal(a, [cand]))
        form = term if form is None else form.direct_sum(term)
    assert form is not None
    ref = ReferenceForm(form, star_total(form, form), constant=(2**kstar) * value)
    ref.verify()
    return ref


def build_discontinuous_eta(h: HermitianForm, u: Constructible) -> ReferenceForm:
    """A certified reference whose induced signed signature of h jumps at
    the boundary of the given set.

    The set must not be a union of cells that is closed and open among the
    orderings, and h must be nonsingular with one constant nonzero
    absolute value on its support. The reference flips sign across the
    set: an indicator form positive on the set plus a negated indicator of
    the complement, both tensored onto h, with an independent reference
    glued in off the support when the support does not cover everything.
    Its absolute signature is constant, so certification passes, yet the
    induced signed step function fails local constancy on the boundary.
    """
    a = h.algebra
    a.validate()
    ring = a.ring
    if not h.is_nonsingular():
        raise ValidationError("the form must be nonsingular")
    ind = constructible_indicator(ring, u)
    if not continuity_failures(ind):
        raise ValidationError(
            "the set is closed and open among the orderings;"
            " every reference stays continuous there"
        )
    ab = total_abs_signature(h)
    nonzero = [v for v in ab.value_map() if v != 0]
    if len(nonzero) != 1:
        raise ValidationError(
            "the form needs one constant nonzero absolute value on its support"
        )
    v = nonzero[0]
    q_on, k_on = mahe_indicator(NotSet(u), ring)
    q_off, k_off = mahe_indicator(u, ring)
    kstar = max(k_on, k_off)
    q_on, _ = pad_indicator(q_on, k_on, kstar - k_on)
    q_off, _ = pad_indicator(q_off, k_off, kstar - k_off)
    flip = quad_tensor(q_on.direct_sum(q_off.negated()), h)
    constant = (2**kstar) * v
    nil = nil_indicator(a)
    support = ab.map_values(lambda t: 1 if t else 0)
    reached = step_combine([support, nil], lambda w: 1 if w[0] or w[1] else 0)
    form = flip
    if reached.value_map() != {1: None}:
        base = find_reference_form(a)
        q_rest, j = mahe_indicator(level_to_constructible(support, 1), ring)
        rest_value = (2**j) * base.constant
        full = lcm(constant, rest_value)
        if full > constant:
            form = quad_tensor(
                QuadraticForm.unit_form(ring, full // constant), form
            )
        if full // rest_value > 1:
            q_rest = q_rest.tensor(
                QuadraticForm.unit_form(ring, full // rest_value)
            )
        form = form.direct_sum(quad_tensor(q_rest, base.form))
        constant = full
    ref = ReferenceForm(form, star_total(form, form), constant=constant)
    ref.verify()
    realized = total_eta_signature(h, ref)
    if not continuity_failures(realized):
        raise ValidationError(
            "the induced signature stays continuous;"
            " the boundary of the set misses the support of the form"
        )
    return ref


def classical_signature_oracle(h: HermitianForm) -> int:
    """Sign count for a form over a split model, done the classical way.

    Transports the matrix to the fiber using the stored splitting,
    undoes the twist, checks the result is hermitian for the fiber
    involution, spreads it to a scalar form with the full fiber trace,
    diagonalizes over the rationals and counts signs. The count divides
    exactly by the fiber dimension; anything else is an inconsistency.
    Deliberately independent of the pairing route.
    """
    a = h.algebra
    sd = a.split_data
    if sd is None:
        raise ValidationError("the algebra carries no splitting data")
    ring = a.ring
    if not ring.is_rational_base:
        raise ValidationError("the classical count needs the rational base")
    fib = sd.fiber
    mf = fib.m
    n, k = sd.n, h.rank
    d = k * n

    def dmat(vec):
        out = []
        for p in range(n):
            row = []
            for q in range(n):
                base = (p * n + q) * mf
                row.append(list(vec[base : base + mf]))
            out.append(row)
        return out

    cells = [[None] * d for _ in range(d)]
    for i in range(k):
        for j in range(k):
            block = dmat(h.entries[i][j])
            for p in range(n):
                for q in range(n):
                    cells[i * n + p][j * n + q] = block[p][q]
    # undo the twist: left-multiply each block row by the inverse twist
    psi_inv = dmat(sd.psi_inv)
    g = [[None] * d for _ in range(d)]
    for i in range(k):
        for p in range(n):
            for j in range(d):
                acc = [ring.zero] * mf
                for r in range(n):
                    prod = fib.multiply(psi_inv[p][r], cells[i * n + r][j])
                    acc = [x + y for x, y in zip(acc, prod)]
                g[i * n + p][j] = acc
    for r in range(d):
        for s in range(d):
            if fib.apply_involution(g[s][r]) != g[r][s]:
                raise ValidationError(
                    "the transported matrix is not hermitian over the fiber"
                )
    tv = fib.trace_vector()
    sig_basis = [fib.apply_involution(fib.basis_vector(u)) for u in range(mf)]
    dim = d * mf
    gram = [[ring.zero] * dim for _ in range(dim)]
    for r in range(d):
        for s in range(d):
            block = g[r][s]
            for u in range(mf):
                left = fib.left_mult_matrix(fib.multiply(sig_basis[u], block))
                row = gram[r * mf + u]
                for v in range(mf):
                    row[s * mf + v] = sum(
                        (tv[l] * left[l][v] for l in range(mf)), ring.zero
                    )
    full = QuadraticForm(ring, gram)
    s = signature_via_diag(full, TheOrdering()).signature
    if s % mf:
        raise InconsistencyError(
            f"classical sign count {s} does not divide by the fiber dimension {mf}"
        )
    return s // mf
