"""Hermitian forms: pairing, absolute and signed signatures, references."""

from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest

from hermsig import (
    RationalPoint,
    Ring,
    TheOrdering,
)
from hermsig.azumaya import (
    matrix_algebra,
    quaternion_algebra,
    split_model,
)
from hermsig.constructible import HalfSpace, NotSet, full_set
from hermsig.errors import BudgetError, InconsistencyError, ValidationError
from hermsig.hermitian import (
    HermitianForm,
    ReferenceForm,
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
from hermsig.polynomials import Polynomial
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
