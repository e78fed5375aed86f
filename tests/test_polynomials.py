"""Polynomial and rational function arithmetic, gcd, parsing."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermsig import Ring
from hermsig.azumaya import matrix_algebra
from hermsig.errors import ParseError
from hermsig.hermitian import HermitianForm, _pairing_total
from hermsig.polynomials import (
    MAX_ENTRY_WORK,
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_POWER_DEGREE,
    Polynomial,
    RationalFunction,
    format_polynomial,
    parse_polynomial,
    parse_rational_function,
)


def P(*coeffs):
    return Polynomial(coeffs)


small_fracs = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)
polys = st.lists(small_fracs, max_size=7).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


class TestArithmetic:
    def test_canonical_form_strips_trailing_zeros(self):
        assert P(1, 2, 0, 0).coefficients == (Fraction(1), Fraction(2))
        assert P(0, 0).is_zero
        assert P().degree == -1

    def test_evaluate(self):
        # x^2 - 2 at 3/2
        p = P(-2, 0, 1)
        assert p(Fraction(3, 2)) == Fraction(1, 4)

    def test_basic_ops(self):
        x = Polynomial.x()
        p = (x - 1) * (x + 1)
        assert p == P(-1, 0, 1)
        assert p - p == Polynomial.zero()
        assert (x + 2) ** 3 == P(8, 12, 6, 1)

    def test_divmod(self):
        f = P(-1, 0, 0, 1)  # x^3 - 1
        g = P(-1, 1)  # x - 1
        q, r = divmod(f, g)
        assert r.is_zero
        assert q == P(1, 1, 1)
        with pytest.raises(ValueError):
            f.exact_div(P(1, 1))

    def test_derivative(self):
        assert P(5, 3, 0, 2).derivative() == P(3, 0, 6)
        assert P(7).derivative().is_zero

    def test_product_by_evaluation(self):
        # (p*q)(t) == p(t)*q(t) on seeded random rational polynomials,
        # including zero, constants, and denominators on both sides
        rng = random.Random(5)

        def rand_poly():
            return Polynomial(
                Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 9, 64)))
                for _ in range(rng.randint(0, 13))
            )

        points = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 7), Fraction(-5, 4)]
        for _ in range(300):
            p, q = rand_poly(), rand_poly()
            pq = p * q
            assert pq.degree == (-1 if p.is_zero or q.is_zero else p.degree + q.degree)
            for t in points:
                assert pq(t) == p(t) * q(t)
            assert p * 3 == 3 * p == Polynomial(3 * c for c in p.coefficients)

    @given(polys, polys, polys)
    def test_distributive(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @given(polys, nonzero_polys)
    def test_division_invariant(self, f, g):
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree or r.is_zero


class TestGcd:
    def test_example(self):
        # gcd(x^2 - 1, x - 1) = x - 1
        assert P(-1, 0, 1).gcd(P(-1, 1)) == P(-1, 1)

    def test_coprime(self):
        assert P(1, 0, 1).gcd(P(-2, 0, 1)) == Polynomial.one()

    def test_squarefree_part(self):
        # squarefree_part(x^2) = x
        assert P(0, 0, 1).squarefree_part() == P(0, 1)
        assert (P(-1, 1) ** 3 * P(2, 1)).squarefree_part() == (P(-1, 1) * P(2, 1)).monic()

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_gcd_divides_both(self, f, g):
        d = f.gcd(g)
        assert (f % d).is_zero
        assert (g % d).is_zero

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=40)
    def test_gcd_of_multiples(self, f, g):
        h = P(3, 1)
        d = (f * h).gcd(g * h)
        assert (d % h.monic()).is_zero


class TestRationalFunction:
    def test_lowest_terms(self):
        r = RationalFunction(P(-1, 0, 1), P(-1, 1))
        assert r.num == P(1, 1)
        assert r.den == Polynomial.one()
        assert r.is_polynomial

    def test_monic_denominator(self):
        r = RationalFunction(P(1), P(0, 2))
        assert r.den == P(0, 1)
        assert r.num == P(Fraction(1, 2))

    def test_constant_denominator(self):
        # divided by the constant, no gcd: still lowest terms, denominator 1
        assert RationalFunction(P(3, 6), P(3)) == RationalFunction(P(1, 2))
        r = RationalFunction(P(0, 1), Fraction(1, 2))
        assert r.den == 1 and r.num == P(0, 2)
        r = RationalFunction(P(Fraction(1, 3), 1), P(-4))
        assert (r.num, r.den) == (P(Fraction(-1, 12), Fraction(-1, 4)), Polynomial.one())
        assert RationalFunction(P(), P(5)).den == 1

    def test_arithmetic(self):
        x = RationalFunction(Polynomial.x())
        r = 1 / x + 1 / (x + 1)
        assert r.num == P(1, 2)
        assert r.den == P(0, 1, 1)
        assert (r * x * (x + 1)).as_polynomial() == P(1, 2)

    def test_pole(self):
        r = RationalFunction(P(1), P(0, 1))
        with pytest.raises(ZeroDivisionError):
            r(0)
        assert r(2) == Fraction(1, 2)

    @given(polys, nonzero_polys, polys, nonzero_polys)
    @settings(max_examples=40)
    def test_field_ops(self, a, b, c, d):
        r = RationalFunction(a, b)
        s = RationalFunction(c, d)
        assert r + s - s == r
        if not s.is_zero:
            assert (r / s) * s == r


class TestParser:
    def test_simple(self):
        assert parse_polynomial("x^2 - 2") == P(-2, 0, 1)
        assert parse_polynomial("3*x + 1/2") == P(Fraction(1, 2), 3)
        assert parse_polynomial("-(x - 1)*(x + 1)") == P(1, 0, -1)
        assert parse_polynomial("2^3") == P(8)

    def test_division(self):
        r = parse_rational_function("(x^2 - 1)/(x - 1)")
        assert r.as_polynomial() == P(1, 1)
        r = parse_rational_function("1/x")
        assert r.den == P(0, 1)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_polynomial("x +")
        with pytest.raises(ParseError):
            parse_polynomial("y + 1")
        with pytest.raises(ParseError):
            parse_polynomial("(x + 1")
        with pytest.raises(ParseError):
            parse_polynomial("1/0")
        with pytest.raises(ParseError):
            parse_polynomial("1/x")
        with pytest.raises(ParseError):
            parse_polynomial("x^-2")

    def test_nesting_limit(self):
        deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_polynomial(deep) == P(0, 1)
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}"):
            parse_polynomial(f"({deep})")

    def test_power_degree_limit(self):
        assert parse_polynomial(f"x^{MAX_POWER_DEGREE}").degree == MAX_POWER_DEGREE
        assert parse_polynomial("2^2000") == P(2**2000)
        for bad in (
            f"x^{MAX_POWER_DEGREE + 1}",
            f"(x^2 + 1)^{MAX_POWER_DEGREE // 2 + 1}",
            f"(1/x)^{MAX_POWER_DEGREE + 1}",
            "x^99999999",
        ):
            with pytest.raises(ParseError, match=f"limit of {MAX_POWER_DEGREE}"):
                parse_rational_function(bad)
        with pytest.raises(ParseError, match="too long"):
            parse_polynomial("x^" + "1" * 5000)

    def test_product_degree_limit(self):
        half = MAX_POWER_DEGREE // 2
        at_limit = {
            f"x^{half}*x^{half}": P(*[0] * MAX_POWER_DEGREE, 1),
            f"x^{MAX_POWER_DEGREE}/(x+1)": RationalFunction(
                P(*[0] * MAX_POWER_DEGREE, 1), P(1, 1)
            ),
            f"(1/x)^{half}/x^{half}": RationalFunction(P(1), P(*[0] * MAX_POWER_DEGREE, 1)),
        }
        for text, want in at_limit.items():
            assert parse_rational_function(text) == want
        for bad in (
            f"x^{half}*x^{half + 1}",
            f"x^{MAX_POWER_DEGREE}*x",
            f"(1/x)^{half}/x^{half + 1}",
            "*".join([f"(x+1)^{MAX_POWER_DEGREE}"] * 8),
        ):
            with pytest.raises(ParseError, match=f"product of degree .* limit of {MAX_POWER_DEGREE}"):
                parse_rational_function(bad)

    def test_signed_factors(self):
        assert parse_polynomial("-x*-x") == P(0, 0, 1)
        assert parse_polynomial("-x^3/-2*x") == P(0, 0, 0, 0, Fraction(1, 2))
        assert parse_polynomial("-2^2") == P(-4)
        assert parse_polynomial("3/0^0") == P(3)
        with pytest.raises(ParseError, match="division by zero"):
            parse_polynomial("3/0^2")

    def test_power_bits_limit(self):
        # the bit length of the longest literal, 4300 digits
        assert MAX_POWER_BITS == 14285
        assert parse_polynomial(f"1^{MAX_POWER_BITS}") == P(1)
        assert parse_polynomial("(1/3)^7142") == P(Fraction(1, 3**7142))
        for bad in (f"1^{MAX_POWER_BITS + 1}", "(1/3)^7143", "2^99999999"):
            with pytest.raises(ParseError, match=f"coefficient bits exceeds the limit of {MAX_POWER_BITS}"):
                parse_rational_function(bad)

    def test_product_bits_limit(self):
        # bits so far plus e times the factor's bits: 2^7142 has 7143 bits and
        # 2 has 2, so 2^7142 * 2^3571 counts 7143 + 3571 * 2 = MAX_POWER_BITS
        assert parse_polynomial("2^7142*2^3571") == P(2**10713)
        assert parse_polynomial("(1/2)^7142/2^3571") == P(Fraction(1, 2**10713))
        for bad in ("2^7141*2^3572", "(1/2)^7141/2^3572", "*".join(["2^7142"] * 400)):
            with pytest.raises(ParseError, match=f"product of .* coefficient bits exceeds the limit of {MAX_POWER_BITS}"):
                parse_rational_function(bad)

    def test_entry_work_limit(self):
        # (degree + 1) * bits per power or product, summed over the entry
        term = "(x+{})^500*(x+{})^500"
        one = parse_polynomial(term.format(1, 2))
        assert one == parse_polynomial("(x+1)^500") * parse_polynomial("(x+2)^500")
        assert parse_polynomial(f"(x+1)^{MAX_POWER_DEGREE}").degree == MAX_POWER_DEGREE
        # work is counted per entry: two terms pass, three do not
        two = " + ".join(term.format(i, i + 1) for i in (1, 2))
        assert parse_polynomial(two) == one + parse_polynomial(term.format(2, 3))
        for bad in (
            " + ".join(term.format(i, i + 1) for i in range(1, 4)),
            " + ".join(term.format(i, i + 1) for i in range(1, 41)),
            "(2^13*x + 1)^1000",
        ):
            with pytest.raises(ParseError, match=f"work .* exceeds the limit of {MAX_ENTRY_WORK}"):
                parse_polynomial(bad)

    def test_sum_of_fractions_limit(self):
        # a sum of two fractions counts (degree + 1)^2 * bits for its gcd
        small = parse_rational_function("1/(x+1)^20 - 1/(x+2)^20")
        assert small == parse_rational_function("1/(x+1)^20") - parse_rational_function("1/(x+2)^20")
        start = time.monotonic()
        for bad in ("1/(x+1)^300 + 1/(x+2)^300", "1/(x+1)^60 + 1/(x+2)^60 + 1/(x+3)^60"):
            with pytest.raises(ParseError, match=f"work .* exceeds the limit of {MAX_ENTRY_WORK}"):
                parse_rational_function(bad)
        with pytest.raises(ParseError, match=f"sum of degree 1200 exceeds the limit of {MAX_POWER_DEGREE}"):
            parse_rational_function("1/(x+1)^600 + 1/(x+2)^600")
        assert time.monotonic() - start < 1

    def test_quotient_limit(self):
        # a product or quotient with a nonconstant denominator counts
        # (degree + 1)^2 * bits for its gcd, as a sum of fractions does
        small = parse_rational_function("(x+1)^20/(x+2)^20")
        assert small == parse_rational_function("(x+1)^20") / parse_rational_function("(x+2)^20")
        start = time.monotonic()
        for bad in ("(x+1)^1000/(x+2)^1000", "(x+1)^500/(x+2)^500"):
            with pytest.raises(ParseError, match=f"work .* exceeds the limit of {MAX_ENTRY_WORK}"):
                parse_rational_function(bad)
        assert time.monotonic() - start < 1

    def test_error_location(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x + y", line=4)
        assert "line 4" in str(exc.value)

    @given(polys)
    def test_format_parse_round_trip(self, p):
        assert parse_polynomial(format_polynomial(p)) == p

    def test_format_examples(self):
        assert format_polynomial(P(-2, 0, 1)) == "x^2 - 2"
        assert format_polynomial(P(0, Fraction(3, 2))) == "3/2*x"
        assert format_polynomial(Polynomial.zero()) == "0"
        assert format_polynomial(P(0, -1)) == "-x"
        assert str(RationalFunction(P(1), P(0, 1))) == "(1)/(x)"


#### the representation this module had before, as a differential reference:
#### a polynomial is a tuple of Fractions, lowest degree first, no trailing zero


def r_strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def r_add(a, b):
    n = max(len(a), len(b))
    return r_strip((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def r_neg(a):
    return tuple(-c for c in a)


def r_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return r_strip(out)


def r_pow(a, e):
    out = (Fraction(1),)
    for _ in range(e):
        out = r_mul(out, a)
    return out


def r_divmod(a, b):
    rem = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        k = len(rem) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            rem[k + i] -= c * y
        rem = list(r_strip(rem))
    return r_strip(q), tuple(rem)


def r_monic(a):
    return tuple(c / a[-1] for c in a) if a else a


def r_gcd(a, b):
    while b:
        a, b = b, r_divmod(a, b)[1]
    return r_monic(a)


def r_derivative(a):
    return r_strip(i * c for i, c in enumerate(a) if i)


def r_squarefree(a):
    if not a:
        return a
    if len(a) == 1:
        return (Fraction(1),)
    return r_monic(r_divmod(a, r_gcd(a, r_derivative(a)))[0])


def r_eval(a, v):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * v + c
    return acc


def r_rational_function(n, d):
    """(num, den) in lowest terms with monic den."""
    if not n:
        return (), (Fraction(1),)
    g = r_gcd(n, d)
    n, d = r_divmod(n, g)[0], r_divmod(d, g)[0]
    return tuple(c / d[-1] for c in n), r_monic(d)


def canonical(p):
    """p, after checking the stored form: integers over a positive
    denominator coprime to their content, no trailing zero."""
    assert type(p._n) is tuple and all(type(v) is int for v in p._n)
    assert not p._n or p._n[-1] != 0
    assert type(p._d) is int and p._d > 0
    assert gcd(p._d, *p._n) == 1
    return p


def same(p, ref):
    """p has the value ref, in the one canonical form of that value."""
    canonical(p)
    assert p.coefficients == ref
    built = Polynomial(ref)
    assert (p._n, p._d) == (built._n, built._d)
    assert p == built and hash(p) == hash(built)


# denominators with shared factors, so that sums, products and quotients
# cancel against them
q_coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=12)
qpolys = st.lists(q_coeffs, max_size=6).map(Polynomial)
nonzero_qpolys = qpolys.filter(lambda p: not p.is_zero)
DIFF = settings(max_examples=100, derandomize=True, deadline=None)


class TestAgainstFractionTuples:
    @DIFF
    @given(qpolys, qpolys, q_coeffs)
    def test_ring_ops(self, p, q, c):
        a, b = p.coefficients, q.coefficients
        same(p + q, r_add(a, b))
        same(p - q, r_add(a, r_neg(b)))
        same(-p, r_neg(a))
        same(p * q, r_mul(a, b))
        same(p * c, r_mul(a, r_strip((c,))))
        same(c - p, r_add(r_strip((c,)), r_neg(a)))

    @DIFF
    @given(qpolys, st.integers(min_value=0, max_value=4))
    def test_power(self, p, e):
        same(p**e, r_pow(p.coefficients, e))

    @DIFF
    @given(qpolys, nonzero_qpolys)
    def test_divmod_and_exact_div(self, p, q):
        a, b = p.coefficients, q.coefficients
        quo, rem = divmod(p, q)
        want_q, want_r = r_divmod(a, b)
        same(quo, want_q)
        same(rem, want_r)
        same((p * q).exact_div(q), a)
        if not rem.is_zero:
            with pytest.raises(ValueError):
                p.exact_div(q)

    @DIFF
    @given(qpolys, qpolys, qpolys)
    def test_gcd_and_squarefree_part(self, f, g, h):
        a, b = (f * h).coefficients, (g * h).coefficients
        same((f * h).gcd(g * h), r_gcd(a, b))
        ff = f * f * g
        same(ff.squarefree_part(), r_squarefree(ff.coefficients))

    @DIFF
    @given(qpolys, st.fractions(min_value=-9, max_value=9, max_denominator=7))
    def test_monic_derivative_and_value(self, p, v):
        a = p.coefficients
        same(p.monic(), r_monic(a))
        same(p.derivative(), r_derivative(a))
        assert p(v) == r_eval(a, v) and type(p(v)) is Fraction
        assert p(int(v)) == r_eval(a, int(v))

    @DIFF
    @given(qpolys, nonzero_qpolys, qpolys)
    def test_rational_function_normalisation(self, n, d, h):
        if h.is_zero:
            h = Polynomial.one()
        r = RationalFunction(n * h, d * h)
        want_num, want_den = r_rational_function((n * h).coefficients, (d * h).coefficients)
        same(r.num, want_num)
        same(r.den, want_den)

    @DIFF
    @given(qpolys)
    def test_equal_values_by_different_routes(self, p):
        routes = [
            parse_polynomial(format_polynomial(p)),
            (p * 2) * Fraction(1, 2),
            p * Fraction(1, 2) + p * Fraction(1, 2),
            p.monic() * p.leading,
            (p * p).exact_div(p) if p else p,
        ]
        memo = {p: "p"}
        for q in routes:
            canonical(q)
            assert q == p and hash(q) == hash(p)
            assert memo.get(q) == "p"

    def test_equal_entries_share_a_pairing(self):
        # the pairing memo is keyed by a form's entries: an entry built by
        # another route with the same value finds the memoised pairing
        a = matrix_algebra(Ring.polynomials(), 2)
        x = RationalFunction(Polynomial.x())
        routes = [
            parse_rational_function("(3*x^2 - 3)/(6*x + 6)"),
            (x * 2 - 2) * Fraction(1, 4),
            RationalFunction(Polynomial((Fraction(-1, 2), Fraction(1, 2))) * 6, 6),
        ]
        forms = [HermitianForm.diagonal(a, [[r, 0, 0, 1]]) for r in routes]
        atom = HermitianForm.unit(a)
        first = _pairing_total(atom, forms[0])
        for form in forms[1:]:
            assert form.entries == forms[0].entries
            assert hash(form.entries) == hash(forms[0].entries)
            assert _pairing_total(atom, form) is first
        assert len(atom._pairings) == 1
