"""Built-in verification suites, and the checks they share with the acceptance gate.

Three suites, each a list of named checks:

``paper-values``
    recomputes the closed-form trace signatures of the standard algebras
    over the rationals and the nil locus of the shipped twisted
    quaternion algebra, then confirms the shipped reference constants.

``oracles``
    draws random diagonal hermitian forms over split models and checks
    the pairing signature and the absolute signature against the
    classical eigenvalue count computed through the splitting.

``properties``
    structural identities of twisted signatures: continuity at
    breakpoints, additivity, multiplicativity under quadratic twists,
    the pivot identity, and the rank bound.

Every check runs to completion even when earlier ones fail; a failing
check carries the counterexample in its detail string.

The ``check_*`` functions run one identity over a suite their caller
builds: they return the number of cases checked and raise AssertionError
at the first counterexample. The acceptance gate (tests/test_acceptance.py)
runs them, with ``random_diagonal`` and ``eta_fixture``, over larger suites.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from random import Random
from typing import Callable

from .azumaya import (
    AlgebraPresentation,
    classify_at,
    matrix_algebra,
    nil_set,
    product_with_exchange,
    quaternion_algebra,
    split_model,
    tensor_product,
)
from .constructible import HalfSpace, sets_equal
from .errors import ValidationError
from .hermitian import (
    HermitianForm,
    abs_signature_at,
    classical_signature_oracle,
    find_reference_form,
    quad_tensor,
    star,
    star_signature,
    total_eta_signature,
)
from .polynomials import Polynomial
from .quadform import QuadraticForm, total_signature
from .sper import Ring, TheOrdering, point_at
from .stepfun import continuity_failures, step_combine

Check = tuple[str, bool, str]

SPLIT_KINDS = ("rational", "gauss", "hamilton")

_Q = Ring.rationals()
_ORD = TheOrdering()
_X = Polynomial.x()


def _run(name: str, fn: Callable[[], str]) -> Check:
    try:
        return name, True, fn()
    except Exception as exc:  # counterexamples surface as failures
        return name, False, f"{type(exc).__name__}: {exc}"


def _expect(cond: bool, detail: str) -> None:
    if not cond:
        raise AssertionError(detail)


# -- trace forms -------------------------------------------------------


def check_trace_grams(cases: list[tuple[Ring, object, object]]) -> int:
    """The trace form of the quaternions (a, b) over a ring is <2, 2a, 2b, -2ab>."""
    for ring, a, b in cases:
        a_, b_ = ring.coerce(a), ring.coerce(b)
        want = QuadraticForm.diagonal(ring, [2, 2 * a_, 2 * b_, -2 * a_ * b_])
        got = quaternion_algebra(ring, a, b).trace_form()
        _expect(got == want, f"({a},{b}): trace form {got}, expected {want}")
    return len(cases)


def check_trace_signatures(sizes: tuple[int, ...]) -> int:
    """M_n(Q), M_n(H) and their exchange products, n in `sizes`, have the trace
    signatures n, -2n, 2n and -4n at the ordering of Q."""
    table = []
    for n in sizes:
        mh = tensor_product(matrix_algebra(_Q, n), quaternion_algebra(_Q, -1, -1))
        table += [
            (matrix_algebra(_Q, n), n),
            (mh, -2 * n),
            (product_with_exchange(matrix_algebra(_Q, n)), 2 * n),
            (product_with_exchange(mh), -4 * n),
        ]
    for alg, want in table:
        got = classify_at(alg, _ORD).trace_signature
        _expect(got == want, f"{alg.label}: trace signature {got}, expected {want}")
    return len(table)


# -- split models over Q -----------------------------------------------


def split_models(sizes: tuple[int, ...]) -> list[AlgebraPresentation]:
    """M_n(D) over Q for D in SPLIT_KINDS and n in `sizes`, kind by kind."""
    return [split_model(_Q, n, kind) for kind in SPLIT_KINDS for n in sizes]


def random_diagonal(a: AlgebraPresentation, rng: Random, rank: int = 1) -> HermitianForm:
    """A random diagonal form over a split model; every entry is hermitian in M_n(D)."""
    sd = a.split_data
    fib, n, mf = sd.fiber, sd.n, sd.fiber.m
    entries = []
    for _ in range(rank):
        vec = [Fraction(0)] * a.m
        for p in range(n):
            vec[(p * n + p) * mf] = Fraction(rng.randint(-3, 3))
        for p in range(n):
            for q in range(p + 1, n):
                coords = [Fraction(rng.randint(-2, 2)) for _ in range(mf)]
                for u, c in enumerate(coords):
                    vec[(p * n + q) * mf + u] = c
                for u, c in enumerate(fib.apply_involution(coords)):
                    vec[(q * n + p) * mf + u] = c
        entries.append(vec)
    return HermitianForm.diagonal(a, entries)


def with_count(h: HermitianForm) -> tuple[HermitianForm, int]:
    """The form and its classical signature, counted through the splitting."""
    return h, classical_signature_oracle(h)


def check_pairing(suite: list[tuple[AlgebraPresentation, list]]) -> int:
    """Pairings of counted forms (h1, s1), (h2, s2) per model have signature
    rank(Z) * lambda^2 * s1 * s2."""
    for a, pairs in suite:
        lam = classify_at(a, _ORD).divisor
        for (h1, s1), (h2, s2) in pairs:
            got = star_signature(h1, h2, _ORD)
            want = a.centre_rank * lam * lam * s1 * s2
            _expect(
                got == want,
                f"{a.label}: pairing {got}, expected {want} "
                f"(counts {s1}, {s2}, divisor {lam})",
            )
    return sum(len(pairs) for _a, pairs in suite)


def check_abs(forms: list[tuple[HermitianForm, int]]) -> int:
    """The absolute signature from the self-pairing of h is |s| for counted (h, s)."""
    for h, s in forms:
        got = abs_signature_at(h, _ORD)
        _expect(got == abs(s), f"{h.algebra.label}: absolute {got}, expected {abs(s)}")
    return len(forms)


def check_pivot(suite: list[tuple[AlgebraPresentation, list]]) -> int:
    """Triples (h1, h2, h3) per model: (h1 * h2) h3 and (h3 * h2) h1 have the same
    twisted signature."""
    for a, triples in suite:
        ref = find_reference_form(a)
        for h1, h2, h3 in triples:
            lhs = total_eta_signature(quad_tensor(star(h1, h2), h3), ref)
            rhs = total_eta_signature(quad_tensor(star(h3, h2), h1), ref)
            _expect(lhs == rhs, f"{a.label}: pivot identity fails")
    return sum(len(triples) for _a, triples in suite)


# -- twisted signatures of probe forms ---------------------------------


def eta_fixture(a: AlgebraPresentation, probes: list[HermitianForm]) -> tuple:
    """(a, reference, probes, signatures): a reference found for `a` and the
    total twisted signature of every probe against it, computed once."""
    ref = find_reference_form(a)
    return a, ref, probes, [total_eta_signature(h, ref) for h in probes]


def check_continuity(fixtures: list[tuple]) -> int:
    """Twisted signatures of the nonsingular probes are locally constant."""
    checked = 0
    for a, _ref, probes, etas in fixtures:
        for h, t in zip(probes, etas):
            # the guarantee only covers nonsingular forms
            if h.is_nonsingular():
                failures = continuity_failures(t)
                _expect(not failures, f"{a.label}: signature jumps at {failures}")
                checked += 1
    return checked


def check_additivity(fixtures: list[tuple]) -> int:
    """sign(h1 + h2) = sign(h1) + sign(h2) for every ordered pair of probes."""
    for a, ref, probes, etas in fixtures:
        for h1, t1 in zip(probes, etas):
            for h2, t2 in zip(probes, etas):
                lhs = total_eta_signature(h1.direct_sum(h2), ref)
                _expect(
                    lhs == step_combine([t1, t2], sum),
                    f"additivity fails for a pair over {a.label}",
                )
    return sum(len(probes) ** 2 for _a, _ref, probes, _etas in fixtures)


def check_twist(fixtures: list[tuple], twist: tuple) -> int:
    """sign(q h) = sign(q) * sign(h) for each probe h and q = <twist>."""
    for a, ref, probes, etas in fixtures:
        q = QuadraticForm.diagonal(a.ring, [a.ring.coerce(e) for e in twist])
        sq = total_signature(q)
        for h, t in zip(probes, etas):
            lhs = total_eta_signature(quad_tensor(q, h), ref)
            rhs = step_combine([sq, t], lambda v: v[0] * v[1])
            _expect(lhs == rhs, f"twist identity fails over {a.label}")
    return sum(len(probes) for _a, _ref, probes, _etas in fixtures)


def check_rank_bound(fixtures: list[tuple]) -> int:
    """|sign(h)| <= rank(h) * degree * rank(Z) at every ordering."""
    for a, _ref, probes, etas in fixtures:
        for h, t in zip(probes, etas):
            bound = h.rank * a.degree * a.centre_rank
            worst = max(abs(v) for v in t.value_map())
            _expect(worst <= bound, f"{a.label}: value {worst} exceeds {bound}")
    return sum(len(probes) for _a, _ref, probes, _etas in fixtures)


# -- paper-values ------------------------------------------------------


def _check_nil_locus() -> str:
    alg = quaternion_algebra(Ring.localized(_X), _X, -1)
    _expect(
        sets_equal(alg.ring, nil_set(alg), HalfSpace(_X)),
        "nil locus of the twisted quaternions is not the open half line",
    )
    neg = classify_at(alg, point_at(Fraction(-1)))
    _expect(neg.divisor == 2, f"divisor {neg.divisor} at -1, expected 2")
    return "nil locus and divisor confirmed"


def _check_reference_constants() -> str:
    targets = [
        ("matrix line", matrix_algebra(Ring.polynomials(), 2), 2),
        ("hamilton", quaternion_algebra(_Q, -1, -1), 1),
        ("twisted line", quaternion_algebra(Ring.localized(_X), _X, -1), 1),
    ]
    for name, alg, want in targets:
        ref = find_reference_form(alg)
        _expect(
            ref.constant == want,
            f"{name}: reference constant {ref.constant}, expected {want}",
        )
    return f"{len(targets)} reference constants"


def paper_values_suite(seed: int = 0) -> list[Check]:
    grams = [(_Q, -1, -1), (_Q, 2, -3), (Ring.polynomials(), _X, -1)]
    return [
        _run("quaternion-trace-gram", lambda: f"{check_trace_grams(grams)} quaternion trace grams"),
        _run(
            "trace-signatures", lambda: f"{check_trace_signatures((1, 2))} closed-form signatures"
        ),
        _run("nil-locus", _check_nil_locus),
        _run("reference-constants", _check_reference_constants),
    ]


# -- oracles -----------------------------------------------------------


def oracles_suite(seed: int = 0) -> list[Check]:
    def pairing() -> str:
        rng = Random(seed)
        suite = [
            (a, [(with_count(random_diagonal(a, rng)), with_count(random_diagonal(a, rng)))
                 for _ in range(2)])
            for a in split_models((1, 2))
        ]
        return f"{check_pairing(suite)} random pairs against the eigenvalue count"

    def absolute() -> str:
        rng = Random(seed + 1)
        models = split_models((1, 2))
        forms = [with_count(random_diagonal(a, rng)) for a in models for _ in range(3)]
        return f"{check_abs(forms)} random forms against the eigenvalue count"

    return [
        _run("pairing-matches-count", pairing),
        _run("absolute-matches-count", absolute),
    ]


# -- properties --------------------------------------------------------


def _property_fixtures() -> list[tuple]:
    """The matrix and twisted quaternion algebras over the line, with probes."""
    out = []
    m2x = matrix_algebra(Ring.polynomials(), 2)
    quatx = quaternion_algebra(Ring.localized(_X), _X, -1)
    for alg in (m2x, quatx):
        one = HermitianForm.unit(alg)
        x_scaled = quad_tensor(QuadraticForm.diagonal(alg.ring, [alg.ring.coerce(_X)]), one)
        out.append(eta_fixture(alg, [one, x_scaled, one.direct_sum(x_scaled.negated())]))
    return out


def properties_suite(seed: int = 0) -> list[Check]:
    # built once, by the first check that runs; a failed build fails each check
    fixtures = cache(_property_fixtures)

    def pivot() -> str:
        rng = Random(seed + 2)
        suite = [
            (a, [tuple(random_diagonal(a, rng) for _ in range(3)) for _ in range(2)])
            for a in split_models((2,))
        ]
        return f"{check_pivot(suite)} pivot triples"

    return [
        _run(
            "continuity",
            lambda: f"{check_continuity(fixtures())} nonsingular signatures locally constant",
        ),
        _run("additivity", lambda: f"{check_additivity(fixtures())} direct sums"),
        _run(
            "twist-multiplicativity",
            lambda: f"{check_twist(fixtures(), (2, _X))} quadratic twists",
        ),
        _run("pivot", pivot),
        _run("rank-bound", lambda: f"{check_rank_bound(fixtures())} forms within the rank bound"),
    ]


_SUITES = {
    "paper-values": paper_values_suite,
    "oracles": oracles_suite,
    "properties": properties_suite,
}
SUITES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0) -> list[Check]:
    """Run one named suite, or all of them in order."""
    if name == "all":
        return [check for suite in SUITES for check in run_suite(suite, seed)]
    if name not in _SUITES:
        raise ValidationError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return _SUITES[name](seed)
