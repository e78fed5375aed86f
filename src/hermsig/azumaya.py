"""Algebras with involution over the base ring, given by structure constants.

A presentation stores the multiplication table of a free module basis
(sparsely: most basis products have at most one term), the involution as a
matrix, and the coordinates of the identity. Validation checks that the
unit is a two-sided identity, the table rule below, that the involution is
an anti-automorphism of order two, the rank of the centre and of its fixed
part, the Azumaya property, and that every ordering classifies
consistently. What these imply is not checked again: the unit is central,
the involution maps the centre onto itself, and the centre basis the table
yields is central and independent.

The Azumaya property has one test: the trace form T(a, b) = Tr(L_ab) must
have a unit determinant. That suffices. Take f_j dual to the basis e_i
under T; then E = sum e_i (x) f_i in A (x) A^op satisfies aE = Ea for every
a, and sum e_i f_i = 1 (T(a, sum e_i f_i) = Tr(L_a) for every a). So A is
separable, and a separable algebra is Azumaya over its centre, which is
etale when it has rank 2.

Constructors for matrix algebras, quaternion algebras, tensor products and
exchange products attach a structure hint: the constructor's kind and
arguments. The table rule (`_check_table`) checks the rank the hint implies
and rebuilds the table with that constructor, so each hinted table has one
builder. Matrix units and quaternions are associative, and so are tensor and
exchange products of associative factors; a factor gets only the table rule,
since its other properties do not pass to the product. A table without a
hint is checked for associativity directly, up to rank
DIRECT_VALIDATION_LIMIT (`check_direct_rank`), with no sampling. Unit,
involution, centre and trace form are always checked on the presentation
itself.

The identities are checked on one integer image of the presentation
(`_integer_image`): the table, the involution and the unit times one common
scale s, over Q[x][1/s] evaluated at x = 2^k with k wide enough that each
identity holds exactly when its integer image does
(`linalg._identity_width`). On it `_check_unit` compares 1 e_j and e_j 1
with e_j, the table rule without a hint compares (e_i e_j) e_k with
e_i (e_j e_k), and `_check_involution` compares sigma^2 with the identity,
sigma(1) with 1 and sigma(e_i e_j) with sigma(e_j) sigma(e_i). Without a
hint the centre is the kernel of the commutator system built from the same
image, by elimination on integers (`linalg._integer_kernel`). Products of
two entries are formed once per check, as tables repeat their entries.

The classification of an algebra at an ordering is read off the signature
of its reduced trace form (`CELL_TRACE`); the nil locus and the signature
divisor are step functions of that signature. The classification map is
computed once per algebra, and `classify_at` reads one ordering off it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .constructible import Constructible, level_to_constructible
from .errors import InconsistencyError, ValidationError
from .linalg import (
    _cleared,
    _identity_width,
    _integer_kernel,
    _norm,
    _pack,
    _unpack,
    field_det,
    kernel_basis,
    mat_mul,
    rank,
    solve_square,
    submatrix,
    symmetric_blocks,
)
from .polynomials import Polynomial, poly_lcm
from .quadform import QuadraticForm, total_signature
from .sper import Element, OrderingPoint, Ring
from .stepfun import StepFunction

# direct validation limit: larger presentations must carry a structure hint
DIRECT_VALIDATION_LIMIT = 16

# largest integer image packed at x = 2^k, in bits: one large coefficient
# widens every slot, and a sparse x^1000 fills 1001 of them, so past this the
# image keeps its integer polynomials unpacked
PACKED_IMAGE_BITS = 1 << 24

# most products of two image entries one check keeps for reuse
PRODUCTS_KEPT = 1 << 12


def check_direct_rank(m: int) -> None:
    """Refuse a presentation without a structure hint above the direct limit."""
    if m > DIRECT_VALIDATION_LIMIT:
        raise ValidationError(
            f"rank {m} presentation has no structure hint and exceeds the "
            f"direct validation limit {DIRECT_VALIDATION_LIMIT}"
        )


def _sparse(pairs: Iterable):
    out = [(k, v) for k, v in pairs if v]
    out.sort(key=lambda kv: kv[0])
    return tuple(out)


def _add_scaled(acc: "list[Element]", cell, c: Element) -> None:
    for k, v in cell:
        acc[k] = acc[k] + c * v


class SplitData:
    """Layout metadata of a split model M_n(D): basis e_pq (x) d_u."""

    __slots__ = ("n", "fiber", "psi_inv")

    def __init__(self, n: int, fiber: "AlgebraPresentation", psi_inv):
        self.n = n
        self.fiber = fiber
        self.psi_inv = psi_inv


class Classification:
    """What the algebra with involution looks like at one ordering."""

    __slots__ = ("kind", "cell", "trace_signature")

    def __init__(self, kind: str, cell: int, trace_signature: int):
        self.kind = kind
        self.cell = cell
        self.trace_signature = trace_signature

    @property
    def cell_name(self) -> str:
        return CELL_NAMES[self.cell]

    @property
    def nil(self) -> bool:
        return self.cell in NIL_CELLS[self.kind]

    @property
    def divisor(self) -> int:
        """Signatures of hermitian forms at this ordering fill divisor * Z."""
        if self.nil:
            return 0
        if self.kind == "symplectic" and self.cell == CELL_QUATERNIONIC:
            return 2
        return 1

    def __str__(self) -> str:
        state = "nil" if self.nil else f"divisor {self.divisor}"
        return f"{self.kind} / {self.cell_name} ({state})"

    def __repr__(self) -> str:
        return f"Classification({self})"


CELL_REAL_SPLIT = 1
CELL_QUATERNIONIC = 2
CELL_COMPLEX = 3
CELL_REAL_PAIR = 4
CELL_QUATERNION_PAIR = 5

CELL_NAMES = {
    CELL_REAL_SPLIT: "real-split",
    CELL_QUATERNIONIC: "quaternionic",
    CELL_COMPLEX: "complex",
    CELL_REAL_PAIR: "real-pair",
    CELL_QUATERNION_PAIR: "quaternion-pair",
}

# (centre rank, trace signature / degree) of each fiber cell
CELL_TRACE = {
    CELL_REAL_SPLIT: (1, 1),
    CELL_QUATERNIONIC: (1, -1),
    CELL_COMPLEX: (2, 0),
    CELL_REAL_PAIR: (2, 2),
    CELL_QUATERNION_PAIR: (2, -2),
}

NIL_CELLS = {
    "orthogonal": {CELL_QUATERNIONIC},
    "symplectic": {CELL_REAL_SPLIT},
    "unitary": {CELL_REAL_PAIR, CELL_QUATERNION_PAIR},
}


class AlgebraPresentation:
    """Free algebra with involution: sparse table, involution matrix, unit."""

    __slots__ = ("ring", "m", "mul", "invol_cols", "unit", "hint", "split_data", "label", "_cache")

    def __init__(
        self,
        ring: Ring,
        mul,
        invol_cols,
        unit: Sequence,
        hint=None,
        split_data=None,
        label: str = "algebra",
    ):
        m = len(mul)
        if m == 0:
            raise ValidationError("algebra rank must be positive")
        if len(invol_cols) != m or len(unit) != m:
            raise ValidationError("presentation pieces disagree about the rank")
        self.ring = ring
        self.m = m
        self.mul = tuple(
            tuple(_sparse((k, ring.coerce(v)) for k, v in cell) for cell in row)
            for row in mul
        )
        for row in self.mul:
            if len(row) != m:
                raise ValidationError("multiplication table must be square")
        self.invol_cols = tuple(
            _sparse((i, ring.coerce(v)) for i, v in col) for col in invol_cols
        )
        self.unit = tuple(ring.coerce(v) for v in unit)
        self.hint = hint
        self.split_data = split_data
        self.label = label
        self._cache: dict = {}
        for row in self.mul:
            for cell in row:
                for k, _ in cell:
                    if not 0 <= k < m:
                        raise ValidationError("table index out of range")
        for col in self.invol_cols:
            for i, _ in col:
                if not 0 <= i < m:
                    raise ValidationError("involution index out of range")

    @classmethod
    def from_gamma(cls, ring: Ring, m: int, gamma, sigma, unit, label: str = "algebra"):
        """Build from sparse (i, j, k, value) and (i, j, value) entry lists."""
        mul = [[dict() for _ in range(m)] for _ in range(m)]
        for i, j, k, v in gamma:
            if not (0 <= i < m and 0 <= j < m and 0 <= k < m):
                raise ValidationError(f"gamma index ({i},{j},{k}) out of range")
            mul[i][j][k] = mul[i][j].get(k, ring.zero) + ring.coerce(v)
        cols = [dict() for _ in range(m)]
        for i, j, v in sigma:
            if not (0 <= i < m and 0 <= j < m):
                raise ValidationError(f"sigma index ({i},{j}) out of range")
            cols[j][i] = cols[j].get(i, ring.zero) + ring.coerce(v)
        return cls(
            ring,
            [[cell.items() for cell in row] for row in mul],
            [c.items() for c in cols],
            unit,
            label=label,
        )

    #### arithmetic on coordinate vectors

    def zero_vector(self) -> "list[Element]":
        return [self.ring.zero] * self.m

    def basis_vector(self, i: int) -> "list[Element]":
        v = self.zero_vector()
        v[i] = self.ring.one
        return v

    def multiply(self, u: Sequence[Element], v: Sequence[Element]) -> "list[Element]":
        out = self.zero_vector()
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.mul[i]
            for j, vj in enumerate(v):
                if vj:
                    _add_scaled(out, row[j], ui * vj)
        return out

    def apply_involution(self, v: Sequence[Element]) -> "list[Element]":
        out = self.zero_vector()
        for j, vj in enumerate(v):
            if vj:
                _add_scaled(out, self.invol_cols[j], vj)
        return out

    def involution_matrix(self) -> "list[list[Element]]":
        z = self.ring.zero
        s = [[z] * self.m for _ in range(self.m)]
        for j, col in enumerate(self.invol_cols):
            for i, v in col:
                s[i][j] = v
        return s

    def left_mult_matrix(self, u: Sequence[Element]) -> "list[list[Element]]":
        z = self.ring.zero
        out = [[z] * self.m for _ in range(self.m)]
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.mul[i]
            for j in range(self.m):
                for k, v in row[j]:
                    out[k][j] = out[k][j] + ui * v
        return out

    def right_mult_matrix(self, u: Sequence[Element]) -> "list[list[Element]]":
        z = self.ring.zero
        out = [[z] * self.m for _ in range(self.m)]
        for l, ul in enumerate(u):
            if not ul:
                continue
            for j in range(self.m):
                for k, v in self.mul[j][l]:
                    out[k][j] = out[k][j] + ul * v
        return out

    def is_symmetric_element(self, v: Sequence[Element]) -> bool:
        return self.apply_involution(v) == list(v)

    #### traces

    def trace_vector(self) -> "list[Element]":
        """Traces of left multiplication by the basis elements."""
        if "trace_vector" not in self._cache:
            t = []
            for l in range(self.m):
                acc = self.ring.zero
                row = self.mul[l]
                for k in range(self.m):
                    for idx, v in row[k]:
                        if idx == k:
                            acc = acc + v
                t.append(acc)
            self._cache["trace_vector"] = t
        return self._cache["trace_vector"]

    def trace_matrix(self) -> "list[list[Element]]":
        """T[i][j] = trace of left multiplication by e_i e_j."""
        if "trace_matrix" not in self._cache:
            t = self.trace_vector()
            out = []
            for i in range(self.m):
                row = []
                for j in range(self.m):
                    acc = self.ring.zero
                    for k, v in self.mul[i][j]:
                        if t[k]:
                            acc = acc + v * t[k]
                    row.append(acc)
                out.append(row)
            self._cache["trace_matrix"] = out
        return self._cache["trace_matrix"]

    #### centre

    def centre_basis(self) -> "list[list[Element]]":
        """Centre basis, with ring entries, of a table that passed the table rule.

        Without a hint it is the kernel of the commutator system x e_j = e_j x
        on the integer image: the whole centre, independent. A hinted table is
        its constructor's own, so the hint's candidates are central and
        independent by construction.
        """
        if "centre" not in self._cache:
            candidates = self._centre_candidates()
            if candidates is None:
                check_direct_rank(self.m)
                candidates = [
                    _clear_denominators(self.ring, v) for v in self._commutator_kernel()
                ]
                # validation reads the integer image last here, and a factor
                # whose centre a product needs may never be validated
                self._cache.pop("image", None)
            self._cache["centre"] = candidates
        return self._cache["centre"]

    def _commutator_kernel(self) -> "list[list[Element]]":
        """Kernel of x -> (x e_j - e_j x)_j on the integer image: the row for
        (j, n) holds the e_n-coordinates of e_i e_j - e_j e_i in column i."""
        m = self.m
        mul, _, _, _, k = self._integer_image()
        rows: "dict[tuple[int, int], list]" = {}
        for i in range(m):
            for j in range(m):
                for n, v in mul[i][j]:
                    rows.setdefault((j, n), [0] * m)[i] += v
                for n, v in mul[j][i]:
                    rows.setdefault((j, n), [0] * m)[i] -= v
        # in the order (j, n): the pivots elimination over the field picks
        # depend on it, and so does its cost
        ordered = [rows[key] for key in sorted(rows)]
        if self.ring.is_rational_base:
            return _integer_kernel(ordered, m, False)
        # a difference of two image entries reads back exactly (`_identity_width`)
        coeffs = (lambda e: _unpack(e, k)) if k else (lambda e: e._n)
        return _integer_kernel([[coeffs(e) if e else () for e in row] for row in ordered], m, True)

    def _centre_candidates(self):
        h = self.hint
        if h is None:
            return None
        if h[0] == "matrix-units":
            return [list(self.unit)]
        if h[0] == "quaternion":
            # (0, 0) is the one pair whose centre is more than span(1):
            # with i^2 = j^2 = 0, k = ij commutes with i and j
            if not (h[1] or h[2]):
                return None
            return [self.basis_vector(0)]
        if h[0] == "tensor":
            a, b = h[1], h[2]
            out = []
            for za in a.centre_basis():
                for zb in b.centre_basis():
                    v = self.zero_vector()
                    for ia, ca in enumerate(za):
                        if not ca:
                            continue
                        for ib, cb in enumerate(zb):
                            if cb:
                                v[ia * b.m + ib] = ca * cb
                    out.append(v)
            return out
        if h[0] == "exchange":
            a = h[1]
            out = []
            for za in a.centre_basis():
                v1 = self.zero_vector()
                v2 = self.zero_vector()
                for i, c in enumerate(za):
                    v1[i] = c
                    v2[a.m + i] = c
                out.extend([v1, v2])
            return out
        raise ValidationError(f"unknown structure hint {h[0]!r}")

    @property
    def centre_rank(self) -> int:
        return len(self.centre_basis())

    @property
    def degree(self) -> int:
        r = self.centre_rank
        n = isqrt(self.m // r)
        if n * n * r != self.m:
            raise ValidationError(
                f"rank {self.m} with centre rank {r} is not of the form n^2 * centre rank"
            )
        return n

    @property
    def kind(self) -> str:
        """Involution type: orthogonal, symplectic, or unitary."""
        if "kind" in self._cache:
            return self._cache["kind"]
        if self.centre_rank == 2:
            k = "unitary"
        else:
            n = self.degree
            tr = self.ring.zero
            for j, col in enumerate(self.invol_cols):
                tr = tr + _cell_coeff(col, j, self.ring.zero)
            two_sym = self.ring.coerce(self.m) + tr
            if two_sym == self.ring.coerce(n * (n + 1)):
                k = "orthogonal"
            elif two_sym == self.ring.coerce(n * (n - 1)):
                k = "symplectic"
            else:
                raise ValidationError(
                    "involution fixes a space of impossible dimension"
                )
        self._cache["kind"] = k
        return k

    def trace_form(self) -> QuadraticForm:
        """Gram matrix of the reduced trace of a product of basis elements."""
        if "trace_form" not in self._cache:
            n = self.degree
            t = self.trace_matrix()
            gram = [[e / n for e in row] for row in t]
            self._cache["trace_form"] = QuadraticForm(self.ring, gram)
        return self._cache["trace_form"]

    def symmetric_element_basis(self) -> "list[list[Element]]":
        """Basis of the involution-fixed elements, with ring entries."""
        if "symmetric_basis" not in self._cache:
            s = self.involution_matrix()
            one = self.ring.one
            rows = [
                [s[i][j] - (one if i == j else self.ring.zero) for j in range(self.m)]
                for i in range(self.m)
            ]
            basis = [_clear_denominators(self.ring, v) for v in kernel_basis(rows)]
            self._cache["symmetric_basis"] = basis
        return self._cache["symmetric_basis"]

    #### validation

    def validate(self) -> None:
        """Full check of the presentation; raises ValidationError on failure."""
        if "valid" in self._cache:
            return
        self._check_unit()
        self._check_table()
        self._check_involution()
        self._check_centre()
        self._check_trace_form()
        # raises on a trace signature the degree and centre rank rule out
        classification_map(self)
        # the integer image serves the checks only, and a validated algebra
        # may be kept for long
        self._cache.pop("image", None)
        self._cache["valid"] = True

    def _check_table(self) -> None:
        """The table is the hint's own, or is associative on every basis triple."""
        if self.hint is None:
            check_direct_rank(self.m)
            self._check_associativity()
            return
        kind, *args = self.hint
        if kind not in _HINT_BUILDERS:
            raise ValidationError(f"unknown structure hint {kind!r}")
        rank_of, build = _HINT_BUILDERS[kind]
        # compare ranks first: a wrong hint must not build a table bigger than self
        m = rank_of(*args)
        if m != self.m:
            raise ValidationError(
                f"{kind} hint disagrees with the rank: it implies {m}, the table has {self.m}"
            )
        if build(self.ring, *args).mul != self.mul:
            raise ValidationError(f"table does not match the {kind} hint")
        # matrix units and quaternions are associative; tensor and exchange
        # products are associative when their factors are
        for f in args:
            if isinstance(f, AlgebraPresentation):
                f._check_table()
                # a factor lives as long as the product; its image need not
                f._cache.pop("image", None)

    def _integer_image(self):
        """(mul, invol, unit, s, k): the table, the involution columns and
        the unit, each entry times one common scale s, over the integers.

        Over Q, s is the lcm of the denominators and k is None. Over
        Q[x][1/s], the entries are cleared to integer polynomials
        (`linalg._cleared`) and then evaluated, s with them, at
        x = 2^k, k being `_identity_width`: each identity the checks compare
        holds exactly when it holds on these integers. An image that would
        take more than PACKED_IMAGE_BITS stays integer Polynomials, with k
        None, on which the same sums are exact. A sparse cell that names an
        index twice is summed first, as `multiply` sums it.
        """
        if "image" not in self._cache:
            cells = [_merged(cell) for row in self.mul for cell in row]
            cols = [_merged(col) for col in self.invol_cols]
            values = [v for cell in cells + cols for _, v in cell] + list(self.unit)
            poly = not self.ring.is_rational_base
            ints, s = _cleared(values, poly)
            k = None
            if poly:
                coeffs = ints + [s]
                k = _identity_width(self.m, _norm(coeffs))
                if k * sum(map(len, coeffs)) <= PACKED_IMAGE_BITS:
                    (ints,) = _pack([coeffs], k)
                else:
                    ints, k = [Polynomial._make(e) for e in coeffs], None
                s = ints.pop()
            it = iter(ints)
            scaled = [tuple((idx, next(it)) for idx, _ in cell) for cell in cells]
            m = self.m
            mul = tuple(tuple(scaled[i * m : (i + 1) * m]) for i in range(m))
            invol = tuple(tuple((idx, next(it)) for idx, _ in col) for col in cols)
            unit = list(it)
            self._cache["image"] = (mul, invol, unit, s, k)
        return self._cache["image"]

    def _check_unit(self) -> None:
        mul, _, unit, s, _ = self._integer_image()
        terms = [(i, u) for i, u in enumerate(unit) if u]
        products: dict = {}
        for j in range(self.m):
            want = {j: s * s}
            if (
                _combine(((u, mul[i][j]) for i, u in terms), products) != want
                or _combine(((u, mul[j][i]) for i, u in terms), products) != want
            ):
                raise ValidationError("stored unit is not a two-sided identity")

    def _check_associativity(self) -> None:
        """(e_i e_j) e_k = e_i (e_j e_k) on the integer image, both sides s^2
        times the identity; the first failing triple is named."""
        mul = self._integer_image()[0]
        m = self.m
        # a table built from a few parameters repeats its entries, so each
        # product of two of them is formed once
        products: dict = {}
        for i in range(m):
            row_i = mul[i]
            for j in range(m):
                ij, row_j = row_i[j], mul[j]
                for k in range(m):
                    left = _combine(((c, mul[l][k]) for l, c in ij), products)
                    if left != _combine(((c, row_i[l]) for l, c in row_j[k]), products):
                        raise ValidationError(
                            f"associativity fails on basis triple ({i},{j},{k})"
                        )

    def _check_involution(self) -> None:
        """sigma^2 = 1, sigma(1) = 1 and sigma(e_i e_j) = sigma(e_j) sigma(e_i)
        on the integer image, each side scaled to s^2 or s^3 times it."""
        mul, invol, unit, s, _ = self._integer_image()
        m = self.m
        products: dict = {}
        for j in range(m):
            if _combine(((c, invol[i]) for i, c in invol[j]), products) != {j: s * s}:
                raise ValidationError("involution is not of order two")
        # implied by the two checks around it, but O(m), and it names the failure
        fixed = _combine(((u, invol[j]) for j, u in enumerate(unit) if u), products)
        if fixed != {i: s * u for i, u in enumerate(unit) if u}:
            raise ValidationError("involution does not fix the identity")
        for i in range(m):
            for j in range(m):
                lhs = _combine(((s * c, invol[n]) for n, c in mul[i][j]), products)
                rhs = _combine(
                    ((a * b, mul[p][q]) for p, a in invol[j] for q, b in invol[i]), products
                )
                if lhs != rhs:
                    raise ValidationError(
                        f"involution is not an anti-homomorphism on pair ({i},{j})"
                    )

    def _check_centre(self) -> None:
        """The centre has rank r = 1 or 2, m = n^2 * r, and sigma fixes rank 1 of it.

        Relies on `_check_unit` and `_check_involution`, which run first: the unit
        is a two-sided identity, so it is central and lies in the span of the
        basis z; sigma is an anti-automorphism, so it maps the centre onto itself.
        As z is independent, sigma - 1 on the centre has the rank of sigma(z) - z.
        """
        z = self.centre_basis()
        r = len(z)
        if r not in (1, 2):
            raise ValidationError(f"centre rank {r} is not 1 or 2")
        self.degree  # raises when m is not n^2 * r
        moved = [[s - v for s, v in zip(self.apply_involution(c), c)] for c in z]
        fixed = r - rank(moved)
        if fixed != 1:
            raise ValidationError(
                "involution-fixed part of the centre has rank "
                f"{fixed}; the base ring itself was expected"
            )

    def _check_trace_form(self) -> None:
        # the reduced trace form is T / n, which scales the determinant by a unit
        gram = [list(r) for r in self.trace_form().gram]
        det = self.ring.one
        for idx in symmetric_blocks(gram):
            sub = submatrix(gram, idx)
            det = det * field_det(sub)
        if not self.ring.is_unit(self.ring.coerce(det)):
            raise ValidationError(f"trace form determinant {det} is not a unit")

    def __str__(self) -> str:
        return f"{self.label} (rank {self.m} over {self.ring})"

    def __repr__(self) -> str:
        return f"AlgebraPresentation({self})"


def _merged(cell):
    """A sparse cell with each index once: repeated ones summed, zeros dropped."""
    if len({k for k, _ in cell}) == len(cell):
        return cell
    acc: dict = {}
    for k, v in cell:
        acc[k] = acc[k] + v if k in acc else v
    return _sparse(acc.items())


def _combine(terms, products: dict) -> dict:
    """sum of c * cell over the (c, cell) pairs, a cell being sparse
    (index, value) pairs of the integer image, as {index: value} without
    zero values; each product c * v is looked up in `products`, which keeps
    the first PRODUCTS_KEPT of them."""
    acc: dict = {}
    for c, cell in terms:
        for k, v in cell:
            p = products.get((c, v))
            if p is None:
                p = c * v
                if len(products) < PRODUCTS_KEPT:
                    products[c, v] = p
            acc[k] = acc.get(k, 0) + p
    return {k: v for k, v in acc.items() if v}


def _cell_coeff(cell, k: int, zero: Element) -> Element:
    for idx, v in cell:
        if idx == k:
            return v
    return zero


def _clear_denominators(ring: Ring, vec) -> "list[Element]":
    if ring.is_rational_base:
        return [Fraction(v) for v in vec]
    den = Polynomial.one()
    for v in vec:
        den = poly_lcm(den, v.den)
    return [ring.coerce(v * den) for v in vec]


#### constructors


def matrix_algebra(ring: Ring, n: int) -> AlgebraPresentation:
    """M_n over the ring with the transpose involution, matrix-unit basis."""
    if n < 1:
        raise ValidationError("matrix size must be positive")
    m = n * n
    one = ring.one
    mul = []
    for p in range(n):
        for q in range(n):
            row = []
            for r in range(n):
                for s in range(n):
                    row.append(((p * n + s, one),) if q == r else ())
            mul.append(row)
    invol = [((q * n + p, one),) for p in range(n) for q in range(n)]
    unit = [one if p == q else ring.zero for p in range(n) for q in range(n)]
    return AlgebraPresentation(
        ring, mul, invol, unit, hint=("matrix-units", n), label=f"M_{n}"
    )


def quaternion_algebra(ring: Ring, a, b, twist: bool = False) -> AlgebraPresentation:
    """Quaternions (a, b): i^2 = a, j^2 = b, k = ij.

    The default involution is conjugation (symplectic type); with
    twist=True the involution fixes i and k and negates j (orthogonal type).
    """
    a = ring.coerce(a)
    b = ring.coerce(b)
    one = ring.one
    ab = a * b
    mul = (
        (((0, one),), ((1, one),), ((2, one),), ((3, one),)),
        (((1, one),), ((0, a),), ((3, one),), ((2, a),)),
        (((2, one),), ((3, -one),), ((0, b),), ((1, -b),)),
        (((3, one),), ((2, -a),), ((1, b),), ((0, -ab),)),
    )
    signs = (one, one, -one, one) if twist else (one, -one, -one, -one)
    invol = tuple(((i, s),) for i, s in enumerate(signs))
    unit = [one, ring.zero, ring.zero, ring.zero]
    label = f"({a},{b})" + ("~" if twist else "")
    return AlgebraPresentation(
        ring, mul, invol, unit, hint=("quaternion", a, b), label=label
    )


def tensor_product(a: AlgebraPresentation, b: AlgebraPresentation) -> AlgebraPresentation:
    """Tensor product, with the product involution."""
    if a.ring != b.ring:
        raise ValidationError("factors live over different rings")
    ring = a.ring
    m = a.m * b.m
    mul = []
    for ia in range(a.m):
        for ib in range(b.m):
            row = []
            for ja in range(a.m):
                ca = a.mul[ia][ja]
                for jb in range(b.m):
                    row.append(
                        _sparse(
                            (ka * b.m + kb, va * vb)
                            for ka, va in ca
                            for kb, vb in b.mul[ib][jb]
                        )
                    )
            mul.append(row)
    invol = []
    for ja in range(a.m):
        for jb in range(b.m):
            invol.append(
                _sparse(
                    (ia * b.m + ib, va * vb)
                    for ia, va in a.invol_cols[ja]
                    for ib, vb in b.invol_cols[jb]
                )
            )
    unit = [a.unit[ia] * b.unit[ib] for ia in range(a.m) for ib in range(b.m)]
    return AlgebraPresentation(
        ring,
        mul,
        invol,
        unit,
        hint=("tensor", a, b),
        label=f"{a.label} (x) {b.label}",
    )


def product_with_exchange(a: AlgebraPresentation) -> AlgebraPresentation:
    """A x A-opposite with the exchange involution (b, c) -> (c, b)."""
    ring = a.ring
    m = 2 * a.m
    empty = ()
    mul = []
    for i in range(a.m):
        row = [a.mul[i][j] for j in range(a.m)] + [empty] * a.m
        mul.append(row)
    for i in range(a.m):
        row = [empty] * a.m + [
            _sparse((a.m + k, v) for k, v in a.mul[j][i]) for j in range(a.m)
        ]
        mul.append(row)
    one = ring.one
    invol = [((a.m + j, one),) for j in range(a.m)] + [((j, one),) for j in range(a.m)]
    unit = list(a.unit) + list(a.unit)
    return AlgebraPresentation(
        ring,
        mul,
        invol,
        unit,
        hint=("exchange", a),
        label=f"{a.label} x op",
    )


# structure hint kind -> (rank the hint implies, builder of the hinted
# table); the builders are the constructors that attach the hint
_HINT_BUILDERS = {
    "matrix-units": (lambda n: n * n, matrix_algebra),
    "quaternion": (lambda a, b: 4, quaternion_algebra),
    "tensor": (lambda a, b: a.m * b.m, lambda ring, a, b: tensor_product(a, b)),
    "exchange": (lambda a: 2 * a.m, lambda ring, a: product_with_exchange(a)),
}


def _gauss_fiber(ring: Ring) -> AlgebraPresentation:
    one = ring.one
    mul = (
        (((0, one),), ((1, one),)),
        (((1, one),), ((0, -one),)),
    )
    invol = (((0, one),), ((1, -one),))
    return AlgebraPresentation(ring, mul, invol, [one, ring.zero], label="Q(i)")


def _rational_fiber(ring: Ring) -> AlgebraPresentation:
    one = ring.one
    return AlgebraPresentation(ring, ((((0, one),),),), (((0, one),),), [one], label="Q")


FIBER_KINDS = ("rational", "gauss", "hamilton")


def fiber_presentation(ring: Ring, kind: str) -> AlgebraPresentation:
    """The three coefficient fibers of split models, with standard involution."""
    if kind == "rational":
        return _rational_fiber(ring)
    if kind == "gauss":
        return _gauss_fiber(ring)
    if kind == "hamilton":
        return quaternion_algebra(ring, -1, -1)
    raise ValidationError(f"unknown fiber kind {kind!r}; use one of {FIBER_KINDS}")


def split_model(
    ring: Ring, n: int, fiber_kind: str, psi=None
) -> AlgebraPresentation:
    """M_n over a fiber (rational, gauss, hamilton) with involution
    conjugate-transpose twisted by an invertible hermitian matrix psi.

    psi is an n x n nested list whose entries are fiber coordinate lists;
    None means the identity. The model keeps the layout metadata needed by
    the classical signature oracle.
    """
    fiber = fiber_presentation(ring, fiber_kind)
    ma = matrix_algebra(ring, n)
    a0 = tensor_product(ma, fiber)
    if psi is None:
        psi_vec = list(a0.unit)
    else:
        if len(psi) != n or any(len(row) != n for row in psi):
            raise ValidationError("psi must be an n x n matrix of fiber elements")
        psi_vec = a0.zero_vector()
        mf = fiber.m
        for p in range(n):
            for q in range(n):
                entry = psi[p][q]
                if len(entry) != mf:
                    raise ValidationError(
                        f"psi entry ({p},{q}) must have {mf} fiber coordinates"
                    )
                for u, v in enumerate(entry):
                    psi_vec[(p * n + q) * mf + u] = ring.coerce(v)
    conj = a0.apply_involution(psi_vec)
    if conj != psi_vec and conj != [-v for v in psi_vec]:
        raise ValidationError(
            "psi must be hermitian or skew-hermitian for the conjugate-transpose"
        )
    lpsi = a0.left_mult_matrix(psi_vec)
    try:
        psi_inv = solve_square(lpsi, list(a0.unit))
        psi_inv = [ring.coerce(v) for v in psi_inv]
    except ValidationError:
        raise ValidationError("psi is not invertible over the base ring") from None
    s0 = a0.involution_matrix()
    snew = mat_mul(lpsi, mat_mul(a0.right_mult_matrix(psi_inv), s0))
    invol = [
        _sparse((i, snew[i][j]) for i in range(a0.m)) for j in range(a0.m)
    ]
    label = f"M_{n}({fiber.label})"
    out = AlgebraPresentation(
        ring,
        a0.mul,
        invol,
        a0.unit,
        hint=("tensor", ma, fiber),
        split_data=SplitData(n, fiber, list(psi_inv)),
        label=label,
    )
    return out


#### classification at orderings


def classify_at(a: AlgebraPresentation, point: OrderingPoint) -> Classification:
    """Kind and fiber cell of the algebra with involution at one ordering."""
    cell = classification_map(a).value_at(point)
    return Classification(a.kind, cell, CELL_TRACE[cell][1] * a.degree)


def _cell_of(a: AlgebraPresentation, t: int) -> int:
    key = (a.centre_rank, Fraction(t, a.degree))
    for cell, trace in CELL_TRACE.items():
        if trace == key:
            return cell
    raise InconsistencyError(
        f"trace signature {t} is impossible for degree {a.degree} with centre rank "
        f"{a.centre_rank}; the algebra is not what it claims to be"
    )


def classification_map(a: AlgebraPresentation) -> StepFunction:
    """Fiber cell of the algebra at every ordering, as an encoded step function."""
    if "classification_map" not in a._cache:
        ts = total_signature(a.trace_form())
        a._cache["classification_map"] = ts.map_values(lambda t: _cell_of(a, t))
    return a._cache["classification_map"]


def nil_indicator(a: AlgebraPresentation) -> StepFunction:
    """1 where every hermitian form has signature zero, else 0."""
    return classification_map(a).map_values(
        lambda c: 1 if Classification(a.kind, c, 0).nil else 0
    )


def divisor_map(a: AlgebraPresentation) -> StepFunction:
    """Signature divisor at each ordering (`Classification.divisor`)."""
    return classification_map(a).map_values(
        lambda c: Classification(a.kind, c, 0).divisor
    )


def nil_set(a: AlgebraPresentation) -> Constructible:
    """The nil locus as a positivity formula."""
    return level_to_constructible(nil_indicator(a), 1)
