"""Ordering and set grammars: a pinned table of parses and Hypothesis fuzzing.

Every string either parses or raises a HermsigError, and a parsed value
prints to a string that parses back to an equal value.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermsig import sper
from hermsig.constructible import parse_constructible
from hermsig.errors import HermsigError

# (text, class, kind, printed form), or (text, error class, None, message)
ORDERING_TABLE = [
    ('0', 'RationalPoint', 'point', '0'),
    ('3/2', 'RationalPoint', 'point', '3/2'),
    ('-3/2', 'RationalPoint', 'point', '-3/2'),
    (' 7 ', 'RationalPoint', 'point', '7'),
    ('1e-3', 'RationalPoint', 'point', '1/1000'),
    ('-0.25', 'RationalPoint', 'point', '-1/4'),
    ('10/4', 'RationalPoint', 'point', '5/2'),
    ('+3', 'RationalPoint', 'point', '3'),
    ('0-', 'CutLeft', 'cut-left', '0-'),
    ('0+', 'CutRight', 'cut-right', '0+'),
    ('-1/2-', 'CutLeft', 'cut-left', '-1/2-'),
    ('-1/2+', 'CutRight', 'cut-right', '-1/2+'),
    ('1e-3+', 'CutRight', 'cut-right', '1/1000+'),
    ('2.5-', 'CutLeft', 'cut-left', '5/2-'),
    ('1 -', 'CutLeft', 'cut-left', '1-'),
    ('root(x^2-2,[1,2])', 'AlgebraicPoint', 'point', 'root(x^2 - 2,[0,3])'),
    ('root(x^2-2,[-2,-1])-', 'CutLeft', 'cut-left', 'root(x^2 - 2,[-3,0])-'),
    ('root(x^2 - 2, [1, 2])+', 'CutRight', 'cut-right', 'root(x^2 - 2,[0,3])+'),
    ('root(x-1,[0,2])', 'RationalPoint', 'point', '1'),
    ('root(2*x-1,[0,1])-', 'CutLeft', 'cut-left', '1/2-'),
    ('root(x^2-1,[0,3/2])+', 'CutRight', 'cut-right', 'root(x^2 - 1,[0,2])+'),
    ('-inf', 'MinusInfinity', 'minus-inf', '-inf'),
    ('+inf', 'PlusInfinity', 'plus-inf', '+inf'),
    (' -inf ', 'MinusInfinity', 'minus-inf', '-inf'),
    ('', 'ParseError', None, "invalid rational literal ''"),
    ('-', 'ParseError', None, "invalid rational literal '-'"),
    ('+', 'ParseError', None, "invalid rational literal '+'"),
    ('inf', 'ParseError', None, "invalid rational literal 'inf'"),
    ('-inf-', 'ParseError', None, "invalid rational literal '-inf'"),
    ('+inf+', 'ParseError', None, "invalid rational literal '+inf'"),
    ('0++', 'ParseError', None, "invalid rational literal '0+'"),
    ('0--', 'ParseError', None, "invalid rational literal '0-'"),
    ('abc', 'ParseError', None, "invalid rational literal 'abc'"),
    ('1/0', 'ParseError', None, "invalid rational literal '1/0'"),
    ('1/0-', 'ParseError', None, "invalid rational literal '1/0'"),
    ('1e10000000', 'ParseError', None, "rational literal '1e10000000' exceeds the limit of 14285 bits in its numerator or denominator"),
    ('1e4301+', 'ParseError', None, "rational literal '1e4301' exceeds the limit of 14285 bits in its numerator or denominator"),
    ('root(', 'ParseError', None, 'malformed root designator'),
    ('root(x^2-2,[1,2]', 'ParseError', None, 'malformed root designator'),
    ('root(x^2-2,[1,2]) -', 'CutLeft', 'cut-left', 'root(x^2 - 2,[0,3])-'),
    ('root(x^2-2,[1,2])--', 'ParseError', None, 'malformed root designator'),
    ('root(x^2-2,[2,1])', 'ParseError', None, 'root designator interval is empty'),
    ('root(x^2-2,[-2,2])', 'ParseError', None, 'interval [-2,2] isolates 2 roots of x^2 - 2, expected exactly one'),
    ('root(x^2+1,[-2,2])', 'ParseError', None, 'interval [-2,2] isolates 0 roots of x^2 + 1, expected exactly one'),
    ('root(3,[1,2])', 'ParseError', None, 'root designator polynomial must be nonconstant'),
    ('root(x^2-2,(1,2))', 'ParseError', None, 'root designator interval must look like [a,b]'),
    ('root(x^2-2,[1,2,3])', 'ParseError', None, 'root designator interval must have two endpoints'),
    ('root(x^2-2)),[1,2])', 'ParseError', None, 'unbalanced parentheses in root designator'),
    ('root(x^2-2,[a,2])+', 'ParseError', None, "invalid rational literal 'a'"),
    ('root(x)', 'ParseError', None, 'root designator needs a polynomial and an interval'),
]


@pytest.mark.parametrize(
    "text, cls, kind, shown", ORDERING_TABLE, ids=[repr(row[0]) for row in ORDERING_TABLE]
)
def test_ordering_table(text, cls, kind, shown):
    try:
        p = sper.parse_ordering(text)
    except HermsigError as exc:
        assert (type(exc).__name__, None, str(exc)) == (cls, kind, shown)
        return
    assert (type(p).__name__, p.kind, str(p)) == (cls, kind, shown)


def check_ordering(text):
    try:
        p = sper.parse_ordering(text)
    except HermsigError:
        return
    again = sper.parse_ordering(str(p))
    assert again == p
    assert str(again) == str(p)


def check_set(text):
    try:
        u = parse_constructible(text)
    except HermsigError:
        return
    assert parse_constructible(str(u)) == u


_small = st.fractions(min_value=-4, max_value=4, max_denominator=8)
_poly = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
    lambda cs: " + ".join(f"{c}*x^{i}" for i, c in enumerate(cs))
)


def _root_designator(n, negative):
    # x^2 - n has exactly one root in [0, n + 1] and one in [-n - 1, 0]
    return f"root(x^2 - {n},[-{n + 1},0])" if negative else f"root(x^2 - {n},[0,{n + 1}])"


# rationals, decimals and root designators, the two ends and grammar-character
# noise, each with a cut suffix or none; one in four suffixes is malformed
ORDERING_TEXTS = st.builds(
    lambda body, suffix: body + suffix,
    st.one_of(
        _small.map(str),
        st.decimals(-100, 100, places=3).map(str),
        st.builds(_root_designator, st.integers(1, 20), st.booleans()),
        st.builds(lambda p, a, b: f"root({p},[{a},{b}])", _poly, _small, _small),
        st.sampled_from(["-inf", "+inf", "inf", "root(", "1e99999999"]),
        st.text("0123456789-+/.eE_ ()[],rotinfx^*", max_size=16),
    ),
    st.sampled_from(["", "-", "+"] * 3 + ["--", " -", "+-"]),
)

# boolean combinations of H(p), written with spare parentheses, and noise
SET_TEXTS = st.one_of(
    st.recursive(
        st.builds(lambda p: f"H({p})", _poly),
        lambda inner: st.one_of(
            inner.map(lambda t: f"not {t}"),
            inner.map(lambda t: f"({t})"),
            st.builds(lambda a, op, b: f"{a} {op} {b}", inner, st.sampled_from(["and", "or"]), inner),
        ),
        max_leaves=4,
    ),
    st.text("H()x+-*^12 andortn", max_size=24),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(ORDERING_TEXTS)
def test_ordering_strings_parse_or_raise_and_round_trip(text):
    check_ordering(text)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(SET_TEXTS)
def test_set_strings_parse_or_raise_and_round_trip(text):
    check_set(text)

