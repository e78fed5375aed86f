"""The sampling contract of StepFunction.build.

`build` evaluates one rational per open interval and each point; its cut
and end values are limits from the adjacent interval. These tests check
every cell, and every cut at every root of every polynomial the evaluator
reads, against the one-ordering routes (`signature_at`, `member`), whose
cut and infinity sign rules are independent of `build`.
"""

from fractions import Fraction
from random import Random

import pytest

from hermsig import sper
from hermsig.azumaya import matrix_algebra
from hermsig.constructible import AndSet, HalfSpace, NotSet, OrSet, constructible_indicator
from hermsig.hermitian import HermitianForm, find_reference_form, total_eta_signature
from hermsig.polynomials import parse_polynomial
from hermsig.quadform import QuadraticForm, _blocks, signature_at, total_signature
from hermsig.realroots import AlgebraicReal, isolate_real_roots
from hermsig.sper import (
    CutLeft,
    CutRight,
    MinusInfinity,
    PlusInfinity,
    RationalPoint,
    Ring,
    point_at,
)
from hermsig.stepfun import merge_centers, rational_between, step_combine


def P(text):
    return parse_polynomial(text)


QX = Ring.polynomials()
# x and x^2 - 2 are both numerators of entries below, so some roots of s
# are also roots of entries; (x - 1)^2 (x^2 - 2) needs the derivative rule
LOC = Ring.localized(P("x*(x^2 - 2)"))

NUMERATORS = [
    "0", "1", "-2", "x", "x - 1", "-x + 3/2", "x^2 - 2", "x^2 - 3",
    "(x - 1)^2*(x^2 - 2)", "-(x + 1)^2", "x^3 - x", "(x^2 - 2)^2",
]
DENOMINATORS = ["1", "x", "x^2 - 2", "x*(x^2 - 2)", "x^2"]


def random_form(rng: Random, ring: Ring) -> QuadraticForm:
    n = rng.randint(1, 3)
    dens = DENOMINATORS if ring == LOC else ["1"]

    def entry():
        num = ring.coerce(P(rng.choice(NUMERATORS)))
        return num / ring.coerce(P(rng.choice(dens)))

    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = entry() if i == j or rng.random() < 0.6 else ring.zero
    return QuadraticForm(ring, gram)


def random_set(rng: Random, depth: int = 0):
    if depth == 2 or rng.random() < 0.3:
        p = P(rng.choice(NUMERATORS[1:]))
        return HalfSpace(p if rng.random() < 0.5 else -p)
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return NotSet(random_set(rng, depth + 1))
    parts = [random_set(rng, depth + 1) for _ in range(2)]
    return AndSet(parts) if kind == "and" else OrSet(parts)


def _sample(lo, hi) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return (hi.lo if isinstance(hi, AlgebraicReal) else hi) - 1
    if hi is None:
        return (lo.hi if isinstance(lo, AlgebraicReal) else lo) + 1
    return rational_between(lo, hi)


def cell_orderings(f):
    """(ordering, value) for every cell of f; intervals at one rational."""
    for kind, loc, value in f.cells():
        yield (RationalPoint(_sample(*loc)) if kind == "interval" else loc), value


def root_orderings(ring: Ring, polys):
    """Both cuts at every real root of the polynomials and of s, the point
    where it exists, and the two ends."""
    yield MinusInfinity()
    yield PlusInfinity()
    for p in list(polys) + [ring.s]:
        if p.degree > 0:
            for r in isolate_real_roots(p):
                yield CutLeft(r)
                yield CutRight(r)
                if sper._sign_poly_at_center(ring.s, r) != 0:
                    yield point_at(r)


def form_polynomials(q: QuadraticForm):
    return [p for b in _blocks(q) for p in b.breakpoint_polynomials()]


class TestCellOracle:
    @pytest.mark.parametrize("ring", [QX, LOC], ids=["Qx", "Qx_loc"])
    def test_total_signature_every_cell(self, ring):
        rng = Random(20251115)
        seen = {"cut": 0, "charpoly_root": 0, "puncture": 0}
        # (x - 1)^2 (x^2 - 2) touches zero at 1 without changing sign there
        touching = QuadraticForm.diagonal(ring, [ring.coerce(P("(x - 1)^2*(x^2 - 2)"))])
        for q in [touching] + [random_form(rng, ring) for _ in range(16)]:
            f = total_signature(q)
            for ordering, value in cell_orderings(f):
                assert value == signature_at(q, ordering), (q, ordering)
            for ordering in root_orderings(ring, form_polynomials(q)):
                assert f.value_at(ordering) == signature_at(q, ordering), (q, ordering)
                seen["cut"] += isinstance(ordering, (CutLeft, CutRight))
            # factors of single entries have degree <= 3, so a defining
            # polynomial of higher degree comes from a characteristic polynomial
            seen["charpoly_root"] += any(
                isinstance(b.center, AlgebraicReal) and b.center.defining.degree > 3
                for b in f.breaks
            )
            seen["puncture"] += any(b.at_point is None for b in f.breaks)
        assert seen["cut"] and seen["charpoly_root"]
        assert bool(seen["puncture"]) == (ring == LOC)

    @pytest.mark.parametrize("ring", [QX, LOC], ids=["Qx", "Qx_loc"])
    def test_combine_every_cell(self, ring):
        # a non-symmetric combination, so swapped or misaligned operands show
        rng = Random(20251116)
        one_sided = 0
        for _ in range(8):
            q1, q2 = random_form(rng, ring), random_form(rng, ring)
            f1, f2 = total_signature(q1), total_signature(q2)
            h = step_combine([f1, f2], lambda v: v[0] - 2 * v[1])
            orderings = [o for f in (f1, f2, h) for o, _ in cell_orderings(f)]
            orderings += root_orderings(ring, form_polynomials(q1) + form_polynomials(q2))
            for ordering in orderings:
                want = signature_at(q1, ordering) - 2 * signature_at(q2, ordering)
                assert h.value_at(ordering) == want, (q1, q2, ordering)
            # count pairs where one operand has a breakpoint the other lacks
            merged = merge_centers([[b.center for b in f.breaks] for f in (f1, f2)])
            one_sided += len(merged) > min(len(f1.breaks), len(f2.breaks))
        assert one_sided

    @pytest.mark.parametrize("ring", [QX, LOC], ids=["Qx", "Qx_loc"])
    def test_indicator_every_cell(self, ring):
        rng = Random(7)
        for _ in range(15):
            u = random_set(rng)
            f = constructible_indicator(ring, u)
            for ordering, value in cell_orderings(f):
                assert value == int(u.member(ordering)), (u, ordering)
            for ordering in root_orderings(ring, u.leaf_polynomials()):
                assert f.value_at(ordering) == int(u.member(ordering)), (u, ordering)


def _forbidden(*args, **kwargs):
    raise AssertionError("a cut or infinity sign rule was called")


class TestNoCutQueries:
    """Sampled functions never evaluate at a cut or an infinite end."""

    @pytest.fixture
    def no_cut_rules(self, monkeypatch):
        # one function holds the cut and end rules
        monkeypatch.setattr(sper, "_sign_beside", _forbidden)

    def test_total_signature(self, no_cut_rules):
        x = LOC.coerce(P("x"))
        gram = [
            [LOC.coerce(P("(x - 1)^2*(x^2 - 2)")), 1 / x],
            [1 / x, x - 3],
        ]
        f = total_signature(QuadraticForm(LOC, gram))
        assert str(f) == (
            "[-inf:0] 0 [root(x^3 - 2*x,[-363/256,-1443/1024]):0|*|0] 0"
            " [root(x^7 - 5*x^6 + 5*x^5 + 7*x^4 - 14*x^3 + 6*x^2 - 1,[-46125/32768,-23055/16384]):"
            "0|-1|-2] -2"
            " [root(x^7 - 5*x^6 + 5*x^5 + 7*x^4 - 14*x^3 + 6*x^2 - 1,[-15/32,-15/64]):-2|-1|0] 0"
            " [0:0|*|0] 0 [root(x^3 - 2*x,[21/16,51/32]):0|*|0] 0"
            " [root(x^7 - 5*x^6 + 5*x^5 + 7*x^4 - 14*x^3 + 6*x^2 - 1,[45/16,105/32]):0|1|2] 2"
            " [+inf:2]"
        )

    def test_eta_against_certified_reference(self, no_cut_rules):
        a = matrix_algebra(QX, 2)
        ref = find_reference_form(a)
        assert ref.is_certified
        b0, b1 = a.symmetric_element_basis()[:2]
        c0, c1 = QX.coerce(P("(x - 1)^2")), QX.coerce(P("x"))
        probe = [c0 * u + c1 * v for u, v in zip(b0, b1)]
        h = HermitianForm.diagonal(a, [[QX.coerce(P("x^2 - 2")) * e for e in a.unit], probe])
        f = total_eta_signature(h, ref)
        assert str(f) == (
            "[-inf:2] 2 [root(x^2 - 2,[-3,0]):2|0|-2] -2 [0:-2|-1|-2] -2"
            " [root(x^2 - 2,[3/4,3/2]):-2|0|2] 2 [+inf:2]"
        )

    def test_indicator(self, no_cut_rules):
        u = OrSet(
            [AndSet([HalfSpace(P("x^2 - 2")), HalfSpace(P("x"))]), NotSet(HalfSpace(P("x + 3")))]
        )
        f = constructible_indicator(LOC, u)
        assert str(f) == (
            "[-inf:1] 1 [-3:1|1|0] 0 [root(x^2 - 2,[-3/2,-3/4]):0|*|0] 0 [0:0|*|0] 0"
            " [root(x^2 - 2,[3/4,3/2]):0|*|1] 1 [+inf:1]"
        )
