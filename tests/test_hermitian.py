"""Hermitian forms: pairing, absolute and signed signatures, references."""

from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest

import hermsig.hermitian
import hermsig.linalg
from hermsig import (
    RationalPoint,
    Ring,
    TheOrdering,
)
from hermsig.azumaya import (
    AlgebraPresentation,
    matrix_algebra,
    quaternion_algebra,
    split_model,
)
from hermsig.constructible import HalfSpace, NotSet, full_set
from hermsig.documents import load_algebra, read_document
from hermsig.errors import BudgetError, InconsistencyError, ValidationError
from hermsig.hermitian import (
    HermitianForm,
    ReferenceForm,
    _st_over_n,
    abs_signature_at,
    build_discontinuous_eta,
    classical_signature_oracle,
    eta_signature_at,
    find_reference_form,
    quad_tensor,
    star,
    star_signature,
    star_total,
    total_abs_signature,
    total_eta_signature,
)
from hermsig.linalg import mat_mul
from hermsig.polynomials import Polynomial, RationalFunction
from hermsig.quadform import QuadraticForm, total_signature
from hermsig.selftest import (
    check_abs,
    check_pairing,
    random_diagonal,
    split_models,
    with_count,
)
from hermsig.stepfun import Breakpoint, StepFunction, continuity_failures, step_combine

Q = Ring.rationals()
X = Polynomial((0, 1))
RP = Ring.polynomials()
RX = Ring.localized(X)
ORD = TheOrdering()


@lru_cache(maxsize=None)
def _m2x():
    return matrix_algebra(RP, 2)


@lru_cache(maxsize=None)
def _quatx():
    return quaternion_algebra(RX, RX.coerce(X), -1)


@lru_cache(maxsize=None)
def _m2x_ref():
    return find_reference_form(_m2x())


@lru_cache(maxsize=None)
def _quatx_ref():
    return find_reference_form(_quatx())


def scalar_entry(a, value):
    # value * unit as an algebra element
    c = a.ring.coerce(value)
    return [c * e for e in a.unit]


def x_form(a):
    return HermitianForm.diagonal(a, [scalar_entry(a, X)])


class TestHermitianForm:
    def test_diagonal_and_rank(self):
        h = HermitianForm.unit(_m2x(), 3)
        assert h.rank == 3
        assert len(h.parts()) == 3

    def test_transpose_validation(self):
        a = _m2x()
        e01 = a.basis_vector(1)
        zero = a.zero_vector()
        with pytest.raises(ValidationError, match="transpose"):
            HermitianForm(a, [[zero, e01], [zero, zero]])
        # e01 against its flip e10 is fine
        h = HermitianForm(a, [[zero, e01], [a.apply_involution(e01), zero]])
        assert h.rank == 2

    def test_diagonal_requires_symmetric(self):
        ham = quaternion_algebra(Q, -1, -1)
        with pytest.raises(ValidationError, match="fixed"):
            HermitianForm.diagonal(ham, [ham.basis_vector(1)])

    def test_direct_sum_and_negation(self):
        a = _quatx()
        h = HermitianForm.unit(a).direct_sum(x_form(a).negated())
        assert h.rank == 2
        assert h.entries[1][1][0] == RX.coerce(-X)
        assert len(h.parts()) == 2

    def test_quad_tensor_entries(self):
        a = _m2x()
        q = QuadraticForm.diagonal(RP, [1, -3])
        h = quad_tensor(q, HermitianForm.unit(a))
        assert h.rank == 2
        assert h.entries[1][1] == tuple(scalar_entry(a, -3))

    def test_multiple(self):
        a = _m2x()
        h = HermitianForm.unit(a).multiple(3)
        assert h.rank == 3
        assert total_abs_signature(h).value_map() == {6: None}

    def test_nonsingular(self):
        a = _m2x()
        assert HermitianForm.unit(a).is_nonsingular()
        assert not x_form(a).is_nonsingular()
        # over the localized ring x is a unit
        assert x_form(_quatx()).is_nonsingular()
        zero = HermitianForm.diagonal(a, [a.zero_vector()])
        assert not zero.is_nonsingular()

    def test_mixed_algebras_rejected(self):
        with pytest.raises(ValidationError, match="presentations"):
            HermitianForm.unit(_m2x()).direct_sum(HermitianForm.unit(_quatx()))


class TestStar:
    def test_rank_one_base(self):
        triv = matrix_algebra(Q, 1)
        h1 = HermitianForm.diagonal(triv, [[Fraction(3)]])
        h2 = HermitianForm.diagonal(triv, [[Fraction(-5)]])
        assert star(h1, h2).gram == ((Fraction(-15),),)

    def test_hamilton_unit_gram(self):
        ham = quaternion_algebra(Q, -1, -1)
        one = HermitianForm.unit(ham)
        q = star(one, one)
        assert q.gram == QuadraticForm.diagonal(Q, [2, 2, 2, 2]).gram

    def test_matrix_unit_gram_is_identity(self):
        m2 = matrix_algebra(Q, 2)
        one = HermitianForm.unit(m2)
        q = star(one, one)
        for i in range(4):
            for j in range(4):
                assert q.gram[i][j] == (1 if i == j else 0)

    def test_quatx_unit_gram(self):
        one = HermitianForm.unit(_quatx())
        q = star(one, one)
        expect = QuadraticForm.diagonal(RX, [2, -2 * X, 2, -2 * X])
        assert q.gram == expect.gram

    def test_symmetry_of_signatures(self):
        a = _quatx()
        h1 = HermitianForm.unit(a)
        h2 = x_form(a)
        assert star_total(h1, h2) == star_total(h2, h1)

    def test_parts_route_matches_full_gram(self):
        # the same matrix built without decomposition data must pair the same
        a = _quatx()
        h = HermitianForm.unit(a, 2)
        raw = HermitianForm(a, h.entries)
        assert raw._parts is None
        assert star_total(h, h) == star_total(raw, raw)
        p = RationalPoint(-2)
        assert star_signature(h, h, p) == star_signature(raw, raw, p)

    def test_bilinear_over_sums(self):
        a = _quatx()
        h1, h2 = HermitianForm.unit(a), x_form(a)
        g = HermitianForm.unit(a)
        lhs = star_total(h1.direct_sum(h2), g)
        rhs = step_combine([star_total(h1, g), star_total(h2, g)], sum)
        assert lhs == rhs

    def test_scalar_multiplicative(self):
        a = _quatx()
        q = QuadraticForm.diagonal(RX, [X, 1])
        h = HermitianForm.unit(a)
        lhs = star_total(quad_tensor(q, h), h)
        rhs = step_combine(
            [total_signature(q), star_total(h, h)], lambda v: v[0] * v[1]
        )
        assert lhs == rhs


def reference_star(h1, h2):
    """The Gram assembly `star` had before it ran on integers: products of
    Fraction or RationalFunction multiplication matrices, coerced and
    checked by the QuadraticForm constructor."""
    a = h1.algebra
    ring, m = a.ring, a.m
    k1, k2 = h1.rank, h2.rank
    st = _st_over_n(a)
    zero = ring.zero
    dim = k1 * k2 * m
    gram = [[zero] * dim for _ in range(dim)]
    rights = {}
    for j in range(k2):
        for j2 in range(k2):
            v = a.apply_involution(h2.entries[j][j2])
            if any(c != zero for c in v):
                rights[(j, j2)] = a.right_mult_matrix(v)
    for i in range(k1):
        for i2 in range(k1):
            v = h1.entries[i][i2]
            if all(c == zero for c in v):
                continue
            left = mat_mul(st, a.left_mult_matrix(v))
            for (j, j2), rb in rights.items():
                block = mat_mul(left, rb)
                r0 = (i * k2 + j) * m
                c0 = (i2 * k2 + j2) * m
                for l in range(m):
                    row = gram[r0 + l]
                    seg = block[l]
                    for l2 in range(m):
                        row[c0 + l2] = seg[l2]
    return QuadraticForm(ring, gram)


def random_coordinate(ring, rng, density):
    """0, or a small value with a denominator: over Q a fraction, over Q[x]
    a polynomial of degree <= 2 with rational coefficients, over Q[x][1/s]
    that polynomial over a power of s up to the second."""
    if rng.random() > density:
        return ring.zero
    if ring.is_rational_base:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
    num = Polynomial(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(rng.randint(1, 3)))
    den = ring.s ** rng.randint(0, 2) if ring.s.degree > 0 else 1
    return ring.coerce(RationalFunction(num, den))


def random_hermitian(a, rng, rank):
    """A form with entries v + invol(v) on the diagonal and v, invol(v)
    across it; some entries are zero, and the rest are sparse or dense."""
    entries = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            density = rng.choice((0.0, 0.3, 1.0))
            v = [random_coordinate(a.ring, rng, density) for _ in range(a.m)]
            w = a.apply_involution(v)
            if i == j:
                entries[i][i] = [x + y for x, y in zip(v, w)]
            else:
                entries[i][j], entries[j][i] = v, w
    return HermitianForm(a, entries)


def rescaled_twist(kind):
    """M_2(D) over Q[x][1/x] twisted by psi = diag(1, x), with the (2,1)
    block of the basis scaled by x, so that every table, involution and
    unit value is a polynomial: the model that
    `perfbench/workloads.py::twisted_split_document` writes out."""
    mf = len(split_model(RX, 1, kind).unit)
    one = [1] + [0] * (mf - 1)
    psi = [[one, [0] * mf], [[0] * mf, [X] + [0] * (mf - 1)]]
    a = split_model(RX, 2, kind, psi)
    x = RX.coerce(X)
    scale = [x if i // mf == 2 else RX.one for i in range(a.m)]
    mul = [
        [[(k, v * scale[i] * scale[j] / scale[k]) for k, v in cell] for j, cell in enumerate(row)]
        for i, row in enumerate(a.mul)
    ]
    invol = [[(i, v * scale[j] / scale[i]) for i, v in col] for j, col in enumerate(a.invol_cols)]
    unit = [u / scale[i] for i, u in enumerate(a.unit)]
    return AlgebraPresentation(RX, mul, invol, unit, label=f"scaled {a.label}")


def star_corpus(group):
    """(algebra, ranks) pairs for each group of the parity corpus."""
    if group == "Q split":
        models = [split_model(Q, n, kind) for kind in ("rational", "gauss", "hamilton") for n in (1, 2, 3, 4)]
        models = [a for a in models if a.m < 64]
        return [(a, (3, 2) if a.m <= 9 else (2, 1) if a.m <= 16 else (1, 2)) for a in models]
    if group == "Q quaternion":
        pairs = [(Fraction(1, 2), Fraction(-3, 4)), (Fraction(-2, 3), Fraction(5, 7)), (3, Fraction(-1, 5))]
        return [(quaternion_algebra(Q, p, q), (3, 3)) for p, q in pairs]
    if group == "Q[x] samples":
        return [(load_algebra(read_document(f"sample:{name}.alg")), (2, 3)) for name in ("m2", "quat-x", "gauss-x")]
    if group == "Q[x] split":
        return [(split_model(RP, n, kind), (2, 2) if n == 1 else (1, 2)) for kind in ("rational", "gauss", "hamilton") for n in (1, 2)]
    one, x = [1], [X]
    twisted = [split_model(RX, 2, "rational", [[one, [0]], [[0], x]])]
    twisted += [rescaled_twist(kind) for kind in ("rational", "gauss")]
    return [(a, (2, 2)) for a in twisted]


STAR_GROUPS = ["Q split", "Q quaternion", "Q[x] samples", "Q[x] split", "Q[x][1/x] twisted"]


def assert_same_gram(got, want):
    assert got.ring == want.ring
    assert got.gram == want.gram
    assert [type(e) for row in got.gram for e in row] == [type(e) for row in want.gram for e in row]
    assert type(got.gram) is tuple and all(type(row) is tuple for row in got.gram)


class TestStarAssembly:
    """`star` on integers against the route it replaced (`reference_star`):
    the same Gram tuples, entry for entry and type for type."""

    @pytest.mark.parametrize("group", STAR_GROUPS)
    def test_matches_the_reference_route(self, group):
        rng = Random(f"star-parity-{group}")
        seen = {"non-diagonal": 0, "different": 0, "denominators": 0}
        for a, (r1, r2) in star_corpus(group):
            for rank1, rank2 in ((1, 1), (r1, r2), (r2, r1), (1, 1), (r1, r2)):
                h1 = random_hermitian(a, rng, rank1)
                h2 = random_hermitian(a, rng, rank2)
                forms = [(h1, h2), (h2, h2)]
                if rank1 == rank2 == 1:
                    forms.append((h1.direct_sum(h2), HermitianForm.diagonal(a, [h1.entries[0][0]])))
                for f1, f2 in forms:
                    want = reference_star(f1, f2)
                    assert_same_gram(star(f1, f2), want)
                    seen["non-diagonal"] += any(
                        any(f1.entries[i][j]) for i in range(f1.rank) for j in range(f1.rank) if i != j
                    )
                    seen["different"] += f1 is not f2
                    seen["denominators"] += any(
                        e.denominator != 1 if a.ring.is_rational_base else e.den.degree > 0 or e.num._d != 1
                        for row in want.gram for e in row
                    )
        assert min(seen.values()) >= 3, seen

    def test_zero_forms(self):
        a = split_model(Q, 2, "gauss")
        zero = HermitianForm.diagonal(a, [a.zero_vector(), a.zero_vector()])
        h = random_hermitian(a, Random(3), 2)
        for f1, f2 in ((zero, h), (h, zero), (zero, zero)):
            assert_same_gram(star(f1, f2), reference_star(f1, f2))

    # (algebra, its Gram entry for v = w = 1) whose Gram entries attain the
    # bound m^4 N_ST N_T^2 N_v N_w of `_pairing_width` when every
    # coordinate of v and w is one constant or monomial. e0 e0 = 4 e0 has
    # m = 1, table 1-norm 4 and twisted trace matrix [[16]]: 256 v w. With
    # e_i e_j = e0 + e1 + e2 + e3 (commutative and associative, not
    # unital, so never validated) every one of the m^4 = 256 products of
    # an entry is 16 v w: 4096 v w. "rank 1, repeated" writes e0 e0 as
    # four terms e0, which the table norm must count as one coefficient 4.
    BOUND_CASES = {
        "rank 1": (AlgebraPresentation(RP, [[[(0, 4)]]], [[(0, 1)]], [Fraction(1, 4)]), 256),
        "rank 1, repeated": (AlgebraPresentation(RP, [[[(0, 1)] * 4]], [[(0, 1)]], [Fraction(1, 4)]), 256),
        "rank 4": (
            AlgebraPresentation(
                RP, [[[(n, 1) for n in range(4)]] * 4] * 4, [[(i, 1)] for i in range(4)], [1, 0, 0, 0]
            ),
            4096,
        ),
    }

    @pytest.mark.parametrize("case", sorted(BOUND_CASES))
    @pytest.mark.parametrize("power", [0, 2])
    def test_width_at_the_bound(self, case, power, monkeypatch):
        a, scale = self.BOUND_CASES[case]
        xs = X ** power
        v, w = 3 * 2**40 + 1, 2**20 + 5
        h1 = HermitianForm.diagonal(a, [[RP.coerce(v * xs)] * a.m])
        h2 = HermitianForm.diagonal(a, [[RP.coerce(w * xs)] * a.m])
        entry = RP.coerce(scale * v * w * xs * xs)
        want = tuple((entry,) * a.m for _ in range(a.m))
        assert star(h1, h2).gram == want == reference_star(h1, h2).gram
        width = hermsig.hermitian._pairing_width
        monkeypatch.setattr(hermsig.hermitian, "_pairing_width", lambda *n: width(*n) - 2)
        assert star(h1, h2).gram != want

    def test_unpacked_route(self, monkeypatch):
        # past PACKED_IMAGE_BITS the values stay integer Polynomials
        def packed(*args):
            raise AssertionError("star packed its values")

        monkeypatch.setattr(hermsig.hermitian, "PACKED_IMAGE_BITS", 0)
        monkeypatch.setattr(hermsig.hermitian, "_pack", packed)
        rng = Random("star-unpacked")
        for a, _ in star_corpus("Q[x] samples") + star_corpus("Q[x][1/x] twisted"):
            h1, h2 = random_hermitian(a, rng, 2), random_hermitian(a, rng, 1)
            zero = HermitianForm.diagonal(a, [a.zero_vector()])
            for f1, f2 in ((h1, h2), (h2, h1), (h1, h1), (zero, h2)):
                assert_same_gram(star(f1, f2), reference_star(f1, f2))
        a, scale = self.BOUND_CASES["rank 1, repeated"]
        h = HermitianForm.diagonal(a, [[RP.coerce(X**1000 + 1)]])
        entry = RP.coerce(scale * (X**1000 + 1) ** 2)
        assert star(h, h).gram == ((entry,),) == reference_star(h, h).gram

    @pytest.mark.parametrize("ring", [Q, RP], ids=["Q", "Q[x]"])
    def test_asymmetric_pairing_raises(self, ring):
        # an unvalidated M_2 whose "involution" sends e12 to e21 and fixes
        # the other basis elements: not injective, and the pairing of the
        # unit form with itself is not symmetric
        m2 = matrix_algebra(ring, 2)
        invol = [[(0, 1)], [(2, 1)], [(2, 1)], [(3, 1)]]
        a = AlgebraPresentation(ring, m2.mul, invol, m2.unit)
        h = HermitianForm.unit(a)
        with pytest.raises(ValidationError) as want:
            reference_star(h, h)
        with pytest.raises(ValidationError, match=r"Gram matrix is not symmetric at \(\d+,\d+\)") as got:
            star(h, h)
        assert str(got.value) == str(want.value)

    def test_warm_star_skips_the_field_products(self, monkeypatch):
        rng = Random(11)
        cases = []
        for a in (split_model(Q, 2, "hamilton"), _quatx(), _m2x()):
            star(HermitianForm.unit(a), HermitianForm.unit(a))  # warms the per-algebra image
            h1, h2 = random_hermitian(a, rng, 2), random_hermitian(a, rng, 1)
            cases.append((h1, h2, reference_star(h1, h2)))

        def field_route(*args):
            raise AssertionError("star built a field matrix product")

        for module in (hermsig.hermitian, hermsig.linalg):
            monkeypatch.setattr(module, "mat_mul", field_route)
        for method in ("left_mult_matrix", "right_mult_matrix"):
            monkeypatch.setattr(AlgebraPresentation, method, field_route)
        for h1, h2, want in cases:
            assert_same_gram(star(h1, h2), want)


class TestAbsoluteSignature:
    def test_base_values(self):
        assert abs_signature_at(HermitianForm.unit(matrix_algebra(Q, 2)), ORD) == 2
        assert abs_signature_at(HermitianForm.unit(quaternion_algebra(Q, -1, -1)), ORD) == 1
        assert abs_signature_at(HermitianForm.unit(split_model(Q, 1, "gauss")), ORD) == 1

    def test_quatx_total(self):
        t = total_abs_signature(HermitianForm.unit(_quatx()))
        assert t == StepFunction(
            RX, (1, 0), (Breakpoint(Fraction(0), None),)
        )

    def test_x_form_total(self):
        t = total_abs_signature(x_form(_m2x()))
        assert t == StepFunction(
            RP, (2, 2), (Breakpoint(Fraction(0), 0),)
        )

    def test_degenerate_everywhere(self):
        a = _m2x()
        h = HermitianForm.unit(a).direct_sum(HermitianForm.unit(a).negated())
        assert total_abs_signature(h).value_map() == {0: None}


class TestReferenceSearch:
    def test_m2x_reference_is_unit(self):
        ref = _m2x_ref()
        assert ref.constant == 2
        assert ref.form.rank == 1
        assert ref.form.entries == HermitianForm.unit(_m2x()).entries
        assert ref.certificate.value_map() == {4: None}
        assert ref.is_certified

    def test_quatx_reference(self):
        ref = _quatx_ref()
        assert ref.constant == 1
        assert ref.form.rank == 1
        assert ref.certificate == StepFunction(
            RX, (4, 0), (Breakpoint(Fraction(0), None),)
        )

    def test_hamilton_reference(self):
        ref = find_reference_form(quaternion_algebra(Q, -1, -1))
        assert ref.constant == 1
        assert ref.certificate.value_map() == {4: None}

    def test_all_nil_gives_zero_reference(self):
        nilalg = quaternion_algebra(Q, -1, -1, twist=True)
        ref = find_reference_form(nilalg)
        assert ref.constant == 0
        assert total_eta_signature(HermitianForm.unit(nilalg), ref).value_map() == {
            0: None
        }

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetError, match="uncovered"):
            find_reference_form(_m2x(), budget=0)

    def test_wrong_certificate_rejected(self):
        a = _m2x()
        form = HermitianForm.unit(a)
        fake = ReferenceForm(form, StepFunction.build(RP, [], lambda _: 3))
        with pytest.raises(ValidationError, match="certificate"):
            fake.verify()
        with pytest.raises(ValidationError, match="certificate"):
            eta_signature_at(form, fake, RationalPoint(0))

    def test_degenerate_reference_rejected(self):
        a = _m2x()
        form = HermitianForm.unit(a).direct_sum(HermitianForm.unit(a).negated())
        cert = star_total(form, form)
        with pytest.raises(ValidationError, match="positive"):
            ReferenceForm(form, cert).verify()

    def test_wrong_constant_rejected(self):
        a = _m2x()
        form = HermitianForm.unit(a)
        with pytest.raises(ValidationError, match="constant"):
            ReferenceForm(form, star_total(form, form), constant=7).verify()


class TestEtaSignature:
    def test_x_form_step(self):
        t = total_eta_signature(x_form(_m2x()), _m2x_ref())
        assert t == StepFunction(
            RP, (-2, 2), (Breakpoint(Fraction(0), 0),)
        )

    def test_point_values_match_step(self):
        h = x_form(_m2x())
        t = total_eta_signature(h, _m2x_ref())
        for p in (RationalPoint(-3), RationalPoint(0), RationalPoint(Fraction(1, 2))):
            assert eta_signature_at(h, _m2x_ref(), p) == t.value_at(p)

    def test_additive(self):
        a = _quatx()
        ref = _quatx_ref()
        h1, h2 = HermitianForm.unit(a), x_form(a)
        lhs = total_eta_signature(h1.direct_sum(h2), ref)
        rhs = step_combine(
            [total_eta_signature(h1, ref), total_eta_signature(h2, ref)], sum
        )
        assert lhs == rhs
        # the two pieces cancel on the negative axis
        assert lhs.value_map() == {0: None}

    def test_scalar_multiplicative(self):
        a = _m2x()
        ref = _m2x_ref()
        q = QuadraticForm.diagonal(RP, [X, 2])
        h = HermitianForm.unit(a)
        lhs = total_eta_signature(quad_tensor(q, h), ref)
        rhs = step_combine(
            [total_signature(q), total_eta_signature(h, ref)],
            lambda v: v[0] * v[1],
        )
        assert lhs == rhs

    def test_reference_sees_itself_positively(self):
        for ref in (_m2x_ref(), _quatx_ref()):
            t = total_eta_signature(ref.form, ref)
            assert t == total_abs_signature(ref.form)

    def test_positive_scaling_keeps_values(self):
        a = _m2x()
        two = HermitianForm.diagonal(a, [scalar_entry(a, 2)])
        ref2 = ReferenceForm(two, star_total(two, two))
        ref2.verify()
        h = x_form(a)
        assert total_eta_signature(h, ref2) == total_eta_signature(h, _m2x_ref())

    def test_sign_twisted_reference_flips(self):
        a = _quatx()
        ref = _quatx_ref()
        q = QuadraticForm.diagonal(RX, [X])
        twisted = quad_tensor(q, ref.form)
        ref2 = ReferenceForm(twisted, star_total(twisted, twisted))
        ref2.verify()
        h = HermitianForm.unit(a, 2)
        lhs = total_eta_signature(h, ref2)
        rhs = step_combine(
            [total_signature(q), total_eta_signature(h, ref)],
            lambda v: (1 if v[0] > 0 else -1 if v[0] < 0 else 0) * v[1],
        )
        assert lhs == rhs

    def test_inconsistent_manual_reference_caught(self):
        # white box: skip verification on a non-reference and watch the
        # pairing contradiction surface
        a = _m2x()
        form = HermitianForm.unit(a).direct_sum(HermitianForm.unit(a).negated())
        bogus = ReferenceForm(form, star_total(form, form))
        bogus._checked = True
        with pytest.raises(InconsistencyError, match="zero"):
            eta_signature_at(HermitianForm.unit(a), bogus, RationalPoint(0))

    def test_pivot_identity(self):
        a = _m2x()
        ref = _m2x_ref()
        h1 = HermitianForm.unit(a)
        h2 = x_form(a)
        h3 = HermitianForm.unit(a, 2)
        lhs = total_eta_signature(quad_tensor(star(h1, h2), h3), ref)
        rhs = total_eta_signature(quad_tensor(star(h3, h2), h1), ref)
        assert lhs == rhs

    def test_value_bound(self):
        a = _quatx()
        bound = 2 * a.degree * a.centre_rank
        h = HermitianForm.unit(a, 2)
        for v in total_eta_signature(h, _quatx_ref()).value_map():
            assert abs(v) <= bound


def _probe(a, first, second):
    # first * b0 + second * b1 over the first two symmetric basis elements
    b0, b1 = a.symmetric_element_basis()[:2]
    c0, c1 = a.ring.coerce(first), a.ring.coerce(second)
    return HermitianForm.diagonal(a, [[c0 * u + c1 * v for u, v in zip(b0, b1)]])


class TestPairingMemo:
    """star_total computes each atom pairing once (`_pairing_total`)."""

    def _count_star(self, monkeypatch):
        import hermsig.hermitian as hm

        calls = []
        plain = hm.star

        def counted(h1, h2):
            calls.append((h1, h2))
            return plain(h1, h2)

        monkeypatch.setattr(hm, "star", counted)
        return calls

    def test_check_07_pattern_pairs_six_times(self, monkeypatch):
        # eta of h1, h2, h1 + h2 and <2, -3> h1 against a one-atom reference:
        # h1 and h2 pair with the reference and with themselves (4), h1 + h2
        # adds the cross pairings (2); everything else is shared atoms
        a = matrix_algebra(RP, 2)
        ref = find_reference_form(a)
        assert len(ref.form.parts()) == 1
        h1 = _probe(a, X - 1, 2)
        h2 = _probe(a, -1, X + 2)
        twist = QuadraticForm.diagonal(RP, [2, -3])
        calls = self._count_star(monkeypatch)
        etas = [
            total_eta_signature(h, ref)
            for h in (h1, h2, h1.direct_sum(h2), quad_tensor(twist, h1))
        ]
        assert len(calls) == 6
        assert etas[2] == step_combine(etas[:2], sum)
        assert etas[3].value_map() == {0: None}  # <2, -3> has signature 0

    def test_equal_entries_equal_totals(self, monkeypatch):
        a = _m2x()
        ref = _m2x_ref()
        b1, b2 = _probe(a, X + 1, 1), _probe(a, X + 1, 1)
        assert b1.parts()[0][1] is not b2.parts()[0][1]
        assert star_total(b1, ref.form) == star_total(b2, ref.form)
        self_pairing = star_total(b1, b1)
        calls = self._count_star(monkeypatch)
        # b2 has the entries of b1: the memo of b1 already holds the pairing
        assert star_total(b1, b2) == self_pairing
        assert calls == []
        assert star_total(b2, b1) == self_pairing == star_total(b2, b2)
        assert len(calls) == 1

    def test_long_lived_reference_does_not_grow(self):
        a = matrix_algebra(RP, 2)
        ref = find_reference_form(a)
        ((_, atom),) = ref.form.parts()
        for i in range(50):
            total_eta_signature(_probe(a, X - (i % 9 - 4), i % 5 - 2), ref)
        assert list(atom._pairings) == [atom.entries]


class TestClassicalOracle:
    def test_known_values(self):
        assert classical_signature_oracle(
            HermitianForm.unit(split_model(Q, 2, "rational"))
        ) == 2
        assert classical_signature_oracle(
            HermitianForm.unit(split_model(Q, 1, "hamilton"))
        ) == 1
        assert classical_signature_oracle(
            HermitianForm.unit(split_model(Q, 1, "gauss"))
        ) == 1

    def test_mixed_signs(self):
        sp = split_model(Q, 2, "rational")
        e00 = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        e11 = [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
        h = HermitianForm.diagonal(sp, [[x - y for x, y in zip(e00, e11)]])
        assert classical_signature_oracle(h) == 0
        assert abs_signature_at(h, ORD) == 0

    def test_hyperbolic_twist(self):
        psi = [[[0], [1]], [[1], [0]]]
        sp = split_model(Q, 2, "rational", psi=psi)
        h = HermitianForm.unit(sp)
        assert classical_signature_oracle(h) == 0
        assert abs_signature_at(h, ORD) == 0

    def test_definite_twist(self):
        psi = [[[1], [0]], [[0], [2]]]
        sp = split_model(Q, 2, "rational", psi=psi)
        h = HermitianForm.unit(sp)
        assert classical_signature_oracle(h) == 2
        assert abs_signature_at(h, ORD) == 2

    def test_requires_split_data(self):
        with pytest.raises(ValidationError, match="splitting"):
            classical_signature_oracle(
                HermitianForm.unit(quaternion_algebra(Q, -1, -1))
            )

    def test_requires_rational_base(self):
        a = split_model(RP, 2, "rational")
        with pytest.raises(ValidationError, match="rational"):
            classical_signature_oracle(HermitianForm.unit(a))

    def test_matches_pairing_on_randoms(self):
        rng = Random(11)
        suite = [
            (a, [tuple(with_count(random_diagonal(a, rng)) for _ in range(2)) for _ in range(3)])
            for a in split_models((2,))
        ]
        assert check_pairing(suite) == 9
        assert check_abs([pair[0] for _a, pairs in suite for pair in pairs]) == 9


class TestDiscontinuityDemo:
    def test_matrix_line_demo(self):
        a = _m2x()
        one = HermitianForm.unit(a)
        demo = build_discontinuous_eta(one, NotSet(HalfSpace(-X)))
        t = total_eta_signature(one, demo)
        assert t == StepFunction(
            RP, (-2, 2), (Breakpoint(Fraction(0), 2),)
        )
        assert continuity_failures(t) == [Fraction(0)]
        # the certificate holds: constant absolute value everywhere
        assert total_abs_signature(demo.form).value_map() == {4: None}
        assert demo.is_certified

    def test_clopen_set_rejected(self):
        one = HermitianForm.unit(_m2x())
        with pytest.raises(ValidationError, match="closed and open"):
            build_discontinuous_eta(one, full_set())

    def test_singular_form_rejected(self):
        with pytest.raises(ValidationError, match="nonsingular"):
            build_discontinuous_eta(x_form(_m2x()), NotSet(HalfSpace(-X)))

    def test_varying_absolute_value_rejected(self):
        # x is a unit here, so the form is nonsingular with absolute
        # signature 6 on one side of 0 and 2 on the other
        a = matrix_algebra(RX, 2)
        h = HermitianForm.unit(a, 2).direct_sum(x_form(a))
        assert h.is_nonsingular()
        with pytest.raises(ValidationError, match="constant"):
            build_discontinuous_eta(h, HalfSpace(X - 1))

    def test_partial_support_demo(self):
        a = _quatx()
        one = HermitianForm.unit(a)
        demo = build_discontinuous_eta(one, HalfSpace(-X - 1))
        t = total_eta_signature(one, demo)
        assert continuity_failures(t) == [Fraction(-1)]
        assert t.value_at(RationalPoint(-2)) == 1
        assert t.value_at(RationalPoint(-1)) == -1
        assert t.value_at(RationalPoint(Fraction(-1, 2))) == -1

    def test_boundary_off_support_rejected(self):
        a = _quatx()
        one = HermitianForm.unit(a)
        with pytest.raises(ValidationError, match="support"):
            build_discontinuous_eta(one, HalfSpace(X - 1))
