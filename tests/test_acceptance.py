"""Acceptance gate: ten exact checks, one report line each.

Every check runs in exact arithmetic.  Shared random suites are built
once with fixed seeds and reused across checks so "the same suite"
statements below are literal.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from random import Random

from hermsig.azumaya import divisor_map, matrix_algebra, nil_indicator, nil_set
from hermsig.constructible import (
    HalfSpace,
    NotSet,
    OrSet,
    constructible_indicator,
    sets_equal,
)
from hermsig.documents import load_algebra, read_document
from hermsig.hermitian import (
    HermitianForm,
    build_discontinuous_eta,
    quad_tensor,
    total_abs_signature,
    total_eta_signature,
)
from hermsig.polynomials import Polynomial
from hermsig.quadform import (
    QuadraticForm,
    mahe_indicator,
    signature_at,
    signature_via_diag,
    total_signature,
)
from hermsig.realroots import AlgebraicReal, isolate_real_roots
from hermsig.selftest import (
    check_abs,
    check_additivity,
    check_continuity,
    check_pairing,
    check_pivot,
    check_rank_bound,
    check_trace_grams,
    check_trace_signatures,
    check_twist,
    eta_fixture,
    random_diagonal,
    split_models,
    with_count,
)
from hermsig.sper import (
    CutLeft,
    CutRight,
    MinusInfinity,
    PlusInfinity,
    RationalPoint,
    Ring,
    TheOrdering,
    point_at,
)
from hermsig.stepfun import (
    Breakpoint,
    StepFunction,
    continuity_failures,
    is_harrison_clopen,
    step_combine,
)

Q = Ring.rationals()
RX = Ring.polynomials()
ORD = TheOrdering()
X = Polynomial.x()

SHIPPED_ALGEBRAS = ("m2.alg", "quat-x.alg", "hamilton.alg", "gauss-x.alg", "quat-nil.alg")


def _report(capsys, num: int, name: str, ok: bool, detail: str):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {num:02d} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- shared random suites ----------------------------------------------


@lru_cache(maxsize=1)
def _split_suite():
    """Random diagonal forms with their classical counts, per split model."""
    rng = Random(20240817)
    return [
        (a, [with_count(random_diagonal(a, rng, rng.choice((1, 1, 2)))) for _ in range(5)])
        for a in split_models((1, 2, 3))
    ]


@lru_cache(maxsize=1)
def _eta_suite():
    """Certified references with nonsingular probe forms per shipped algebra."""
    out = []
    for name in SHIPPED_ALGEBRAS:
        a = load_algebra(read_document(f"sample:{name}"))
        a.validate()
        one = HermitianForm.unit(a)
        probes = [one, one.direct_sum(one.negated()), one.multiple(2)]
        sym = a.symmetric_element_basis()
        for v in sym[: min(3, len(sym))]:
            cand = HermitianForm.diagonal(a, [v])
            if cand.is_nonsingular():
                probes.append(cand)
        if not a.ring.is_rational_base and a.ring.is_unit(a.ring.coerce(X)):
            probes.append(
                quad_tensor(QuadraticForm.diagonal(a.ring, [a.ring.coerce(X)]), one)
            )
        out.append(eta_fixture(a, [h for h in probes if h.is_nonsingular()]))
    return out


# -- the ten checks ----------------------------------------------------


def test_01_trace_form_tables(capsys):
    grams = check_trace_grams([(Q, -1, -1), (Q, 1, 1), (Q, 2, -3)])
    signatures = check_trace_signatures((1, 2, 3, 4))
    _report(capsys, 1, "trace-form tables", True, f"{grams + signatures} exact values")


def test_02_pairing_multiplicativity(capsys):
    pairs = check_pairing(
        [(a, list(combinations_with_replacement(forms, 2))) for a, forms in _split_suite()]
    )
    _report(
        capsys, 2, "pairing multiplicativity", pairs >= 100,
        f"{pairs} random pairs over 9 split models, 0 failures",
    )


def test_03_absolute_value(capsys):
    forms = check_abs([f for _a, forms in _split_suite() for f in forms])
    _report(
        capsys, 3, "absolute signature equals |classical count|",
        True, f"{forms} forms, 0 failures",
    )


def test_04_nil_decomposition(capsys):
    a = load_algebra(read_document("sample:quat-x.alg"))
    ring = a.ring
    assert sets_equal(ring, nil_set(a), HalfSpace(X)), "nil locus is not H(x)"
    dmap = divisor_map(a)
    for pt in (RationalPoint(Fraction(-5)), RationalPoint(Fraction(-1, 7)),
               CutLeft(Fraction(0)), MinusInfinity()):
        assert dmap.value_at(pt) == 2, f"divisor at {pt} is not 2"
    nil = nil_indicator(a)
    assert is_harrison_clopen(nil, 1), "the nil locus is not clopen"
    assert is_harrison_clopen(nil, 0), "the non-nil locus is not clopen"
    _report(capsys, 4, "nil decomposition of the twisted quaternions", True,
            "Nil = H(x), divisor 2 on x < 0, both level sets clopen")


def test_05_indicator_contract(capsys):
    sets = (
        HalfSpace(X),
        NotSet(HalfSpace(-X)),
        OrSet((HalfSpace(X), HalfSpace(-X - Polynomial.one()))),
    )
    cells = 0
    for u in sets:
        q, k = mahe_indicator(u, RX)
        t = total_signature(q)
        member = constructible_indicator(RX, u)
        flags = step_combine(
            [t, member],
            lambda v: 1 if v[0] == (0 if v[1] else 2 ** k) else 0,
        )
        bad = [val for val in flags.value_map() if val != 1]
        assert not bad, f"indicator for {u} misses its contract"
        cells += sum(1 for _ in t.cells())
    _report(capsys, 5, "two-valued indicator forms", True,
            f"3 sets, {cells} cells checked, signature 0 on / 2^k off")


def test_06_signature_dual_route(capsys):
    rng = Random(6021023)
    rational = 0
    for _ in range(500):
        d = rng.randint(1, 8)
        g = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                g[i][j] = g[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        q = QuadraticForm(Q, g)
        # integer kernel, diagonalization, characteristic polynomial
        sig = signature_at(q, ORD)
        assert sig == signature_via_diag(q, ORD).signature
        assert sig == total_signature(q).value_at(ORD)
        rational += 1

    sqrt2 = isolate_real_roots(X * X - Polynomial((2,)))[1]
    assert isinstance(sqrt2, AlgebraicReal)
    points = (
        RationalPoint(Fraction(-2)),
        RationalPoint(Fraction(1, 3)),
        point_at(sqrt2),
        CutLeft(Fraction(0)),
        CutRight(sqrt2),
        MinusInfinity(),
        PlusInfinity(),
    )
    line = 0
    for _ in range(100):
        d = rng.randint(1, 4)
        entries = []
        for _ in range(d):
            p = Polynomial((rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(0, 1)))
            if p.is_zero:
                p = Polynomial.one()
            entries.append(p)
        q = QuadraticForm.diagonal(RX, entries)
        pt = points[rng.randrange(len(points))]
        assert signature_at(q, pt) == signature_via_diag(q, pt).signature
        line += 1
    _report(capsys, 6, "characteristic polynomial vs diagonalization", True,
            f"{rational} rational forms, {line} line forms at mixed orderings")


def test_07_continuity_suite(capsys):
    suite = _eta_suite()
    forms = check_continuity(suite)
    pairs = check_additivity(suite)
    check_twist(suite, (2, -3))
    _report(capsys, 7, "continuity, additivity, twist multiplicativity", True,
            f"{forms} nonsingular forms, {pairs} direct sums, 5 algebras")


def test_08_discontinuity_counterexample(capsys):
    a = matrix_algebra(RX, 2)
    one = HermitianForm.unit(a)
    u = NotSet(HalfSpace(-X))
    ref = build_discontinuous_eta(one, u)
    assert total_abs_signature(ref.form).value_map() == {4: None}
    t = total_eta_signature(one, ref)
    member = constructible_indicator(RX, u)
    flags = step_combine(
        [t, member], lambda v: 1 if v[0] == (2 if v[1] else -2) else 0
    )
    assert set(flags.value_map()) == {1}, "the signature is not +2 on U and -2 off U"
    assert continuity_failures(t) == [Fraction(0)]
    assert t == StepFunction(
        RX, (-2, 2), (Breakpoint(Fraction(0), 2),)
    )
    _report(capsys, 8, "discontinuous twisted signature", True,
            "+2 on {x >= 0}, -2 off, single jump at 0, reference |signature| 4")


def test_09_reference_existence(capsys):
    constants = []
    for a, ref, *_ in _eta_suite():
        ref.verify()
        absstep = total_abs_signature(ref.form)
        nil = nil_indicator(a)
        flags = step_combine(
            [absstep, nil],
            lambda v: 1 if (v[1] == 1 or v[0] == ref.constant) else 0,
        )
        assert set(flags.value_map()) == {1}, f"{a.label}: |signature| varies off nil"
        constants.append(f"{a.label}={ref.constant}")
    _report(capsys, 9, "reference forms on all shipped algebras", True,
            ", ".join(constants))


def test_10_bound_and_pivot(capsys):
    values = check_rank_bound(_eta_suite())
    rng = Random(424242)
    triples = check_pivot(
        [
            (a, [tuple(random_diagonal(a, rng) for _ in range(3)) for _ in range(3)])
            for a in split_models((1, 2, 3))
        ]
    )
    _report(
        capsys, 10, "rank bound and pivot identity",
        triples >= 20, f"{values} bounded values, {triples} pivot triples",
    )
