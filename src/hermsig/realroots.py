"""Real root isolation and sign determination at real algebraic numbers.

Everything runs on Sturm-style signed remainder sequences over primitive
integer coefficient lists, with rational-endpoint bisection and a Cauchy bound
on root magnitude. No numerical tolerance appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import InconsistencyError
from .polynomials import (
    Polynomial,
    _int_prem,
    _make_primitive,
    _primitive_int_coeffs,
    format_polynomial,
)

Scalar = Union[int, Fraction]


def sgn(v: Scalar) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def sign_variation(seq: Iterable[Scalar]) -> int:
    """Number of sign changes after removing the zero entries."""
    changes = 0
    prev = 0
    for v in seq:
        s = sgn(v)
        if s == 0:
            continue
        if prev and s != prev:
            changes += 1
        prev = s
    return changes


#### signed remainder sequences on integer coefficient lists


def _eval_int_sign(c: Sequence[int], v: Fraction) -> int:
    """Sign of the integer polynomial at a rational point, exactly.

    Evaluates the homogenized sum c_i * n^i * d^(deg-i), an integer, so only
    integer arithmetic is involved.
    """
    if not c:
        return 0
    n, d = v.numerator, v.denominator
    acc = 0
    dp = 1
    for coeff in reversed(c):
        acc = acc * n + coeff * dp
        dp *= d
    return sgn(acc)


def _sturm_chain(first: Sequence[int], second: Sequence[int]) -> list[list[int]]:
    chain = [list(first), list(second)]
    while chain[-1]:
        nxt = _int_prem(chain[-2], chain[-1])
        nxt = [-v for v in nxt]
        _make_primitive(nxt)
        if not nxt:
            break
        chain.append(nxt)
    return chain


def _variations_at(chain: Sequence[Sequence[int]], v: Fraction) -> int:
    return sign_variation([_eval_int_sign(c, v) for c in chain])


def _cauchy_bound(c: Sequence[int]) -> Fraction:
    """Every real root lies strictly inside (-B, B)."""
    lead = abs(c[-1])
    top = max((abs(v) for v in c[:-1]), default=0)
    return Fraction(1) + Fraction(top, lead)


class _SturmData:
    """Classic Sturm chain of a squarefree integer polynomial."""

    def __init__(self, ints: Sequence[int]):
        self.ints = list(ints)
        d = [i * v for i, v in enumerate(ints)][1:]
        self.chain = _sturm_chain(ints, d)

    def count_roots(self, lo: Fraction, hi: Fraction) -> int:
        """Roots in the open interval (lo, hi); endpoints must not be roots."""
        return _variations_at(self.chain, lo) - _variations_at(self.chain, hi)


class AlgebraicReal:
    """A real algebraic number: squarefree defining polynomial + isolating interval.

    The interval (lo, hi) contains exactly one root of `defining` and neither
    endpoint is a root. Refinement tightens the interval in place; the number
    itself never changes, so the value is immutable in the relevant sense.
    Instances are unhashable: equality is mathematical, not structural.
    """

    __slots__ = ("defining", "_lo", "_hi", "_ints", "_sturm", "_lo_sign")

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, defining: Polynomial, lo: Scalar, hi: Scalar):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo >= hi:
            raise ValueError("empty isolating interval")
        if defining.degree < 1:
            raise ValueError("defining polynomial must be nonconstant")
        if defining.gcd(defining.derivative()).degree > 0:
            raise ValueError("defining polynomial must be squarefree")
        self.defining = defining.monic()
        self._lo = lo
        self._hi = hi
        self._ints = _primitive_int_coeffs(self.defining)
        self._sturm: _SturmData | None = None
        self._lo_sign: int | None = _eval_int_sign(self._ints, lo)
        if self._lo_sign == 0 or _eval_int_sign(self._ints, hi) == 0:
            raise ValueError("isolating interval endpoint is a root")
        if self._sturm_data().count_roots(lo, hi) != 1:
            raise ValueError("interval does not isolate exactly one root")

    @classmethod
    def _trusted(
        cls,
        defining: Polynomial,
        lo: Fraction,
        hi: Fraction,
        ints: list[int],
        sturm: "_SturmData | None",
    ) -> "AlgebraicReal":
        """Skip invariant checks; caller guarantees a valid isolating interval."""
        self = object.__new__(cls)
        self.defining = defining
        self._lo = lo
        self._hi = hi
        self._ints = ints
        self._sturm = sturm
        self._lo_sign = None
        return self

    @classmethod
    def from_rational(cls, r: Scalar) -> "AlgebraicReal":
        r = Fraction(r)
        d = Polynomial((-r, 1))
        return cls._trusted(d, r - 1, r + 1, _primitive_int_coeffs(d), None)

    @property
    def lo(self) -> Fraction:
        return self._lo

    @property
    def hi(self) -> Fraction:
        return self._hi

    def _sturm_data(self) -> _SturmData:
        if self._sturm is None:
            self._sturm = _SturmData(self._ints)
        return self._sturm

    def _sign_at_lo(self) -> int:
        """Sign of the defining polynomial at lo. Refinement moves lo toward
        the one root of the interval and past no other, so this sign never
        changes."""
        if self._lo_sign is None:
            self._lo_sign = _eval_int_sign(self._ints, self._lo)
        return self._lo_sign

    def as_rational(self) -> Fraction | None:
        """The exact value when the defining polynomial is linear, else None."""
        if self.defining.degree == 1:
            c = self.defining._n
            return Fraction(-c[0], c[1])
        return None

    def refine(self) -> None:
        """Roughly halve the isolating interval."""
        mid = (self._lo + self._hi) / 2
        s_mid = _eval_int_sign(self._ints, mid)
        if s_mid == 0:
            # the root is exactly mid; shrink to a tiny interval around it
            w = (self._hi - self._lo) / 8
            self._lo = mid - w
            self._hi = mid + w
            return
        if s_mid == self._sign_at_lo():
            self._lo = mid
        else:
            self._hi = mid

    def refine_below(self, width: Fraction) -> None:
        while self._hi - self._lo > width:
            self.refine()

    def compare_rational(self, r: Scalar) -> int:
        """Sign of (self - r)."""
        r = Fraction(r)
        if r <= self._lo:
            return 1
        if r >= self._hi:
            return -1
        s_r = _eval_int_sign(self._ints, r)
        if s_r == 0:
            return 0
        # same side as lo means the root is right of r
        if s_r == self._sign_at_lo():
            return 1
        return -1

    def compare(self, other: "AlgebraicReal | Scalar") -> int:
        if isinstance(other, (int, Fraction)):
            return self.compare_rational(other)
        if self.equals(other):
            return 0
        a, b = self, other
        refine_apart(lambda: a._hi <= b._lo or b._hi <= a._lo, a, b)
        return -1 if a._hi <= b._lo else 1

    def equals(self, other: "AlgebraicReal | Scalar") -> bool:
        if isinstance(other, (int, Fraction)):
            return self.compare_rational(other) == 0
        lo = max(self._lo, other._lo)
        hi = min(self._hi, other._hi)
        if lo >= hi:
            return False
        if self._ints == other._ints:
            # one defining polynomial: it is the gcd
            g_ints = self._ints
        else:
            g = self.defining.gcd(other.defining)
            if g.degree <= 0:
                return False
            g_ints = _primitive_int_coeffs(g)
        # g divides both squarefree definings, so it is squarefree, neither
        # endpoint is a root of it, and (lo, hi), inside both isolating
        # intervals, holds at most one root of it: then a root, the common
        # one, exactly when g changes sign across (lo, hi)
        return _eval_int_sign(g_ints, lo) != _eval_int_sign(g_ints, hi)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (AlgebraicReal, int, Fraction)):
            return self.equals(other)
        return NotImplemented

    def __lt__(self, other: "AlgebraicReal | Scalar") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "AlgebraicReal | Scalar") -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: "AlgebraicReal | Scalar") -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: "AlgebraicReal | Scalar") -> bool:
        return self.compare(other) >= 0

    def __str__(self) -> str:
        r = self.as_rational()
        if r is not None:
            return str(r)
        return f"root({format_polynomial(self.defining)},[{self._lo},{self._hi}])"

    def __repr__(self) -> str:
        return f"AlgebraicReal({str(self)})"


def _log2_norm(c: Sequence[int]) -> int:
    """An integer at least log2 of the Euclidean norm of c."""
    return (sum(v * v for v in c).bit_length() + 1) // 2


def separation_bits(f: Sequence[int], g: Sequence[int]) -> int:
    """b with |alpha - beta| > 2^-b for every root alpha of f and beta of g
    that differ; f and g are squarefree integer coefficient lists.

    Both roots are roots of h = lcm(f, g), squarefree in Z[x] of degree at
    most n = deg f + deg g (n = deg f when g == f). Mahler's bound gives
    distinct roots of h a distance above sqrt(3) n^(-(n+2)/2) M(h)^(-(n-1)),
    and the Mahler measure M(h) <= M(f) M(g) <= |f|_2 |g|_2 (M(f) <= |f|_2
    when g == f).
    """
    if f == g:
        n, log_m = len(f) - 1, _log2_norm(f)
    else:
        n, log_m = len(f) + len(g) - 2, _log2_norm(f) + _log2_norm(g)
    return ((n + 2) * n.bit_length() + 1) // 2 + (n - 1) * log_m


def refine_apart(
    done: Callable[[], bool], a: AlgebraicReal, b: "AlgebraicReal | Fraction"
) -> None:
    """Refine a, and b when it is algebraic, until done() holds.

    Each refinement at least halves each interval. Once their widths add
    up to less than the separation bound of the two defining polynomials
    (a rational b counts as the root of a linear one), the isolating
    intervals of two different numbers are disjoint, so a condition that
    two different numbers satisfy holds by then. Still failing after that
    many steps means the numbers are equal: InconsistencyError.
    """
    steps, cap = 0, None
    while not done():
        if cap is None:
            if isinstance(b, Fraction):
                g, width = [-b.numerator, b.denominator], a._hi - a._lo
            else:
                g, width = b._ints, (a._hi - a._lo) + (b._hi - b._lo)
            scale = width.numerator.bit_length() - width.denominator.bit_length() + 1
            cap = separation_bits(a._ints, g) + max(scale, 0) + 1
        if steps == cap:
            raise InconsistencyError(
                f"{a} and {b} are not separated after {cap} refinements"
            )
        a.refine()
        if not isinstance(b, Fraction):
            b.refine()
        steps += 1


def isolate_real_roots(p: Polynomial) -> list[AlgebraicReal]:
    """Isolating intervals for the distinct real roots of p, ascending.

    Each result carries the squarefree part of p as its defining polynomial.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    d = p.squarefree_part()
    if d.degree <= 0:
        return []
    ints = _primitive_int_coeffs(d)
    sturm = _SturmData(ints)
    bound = _cauchy_bound(ints)
    total = sturm.count_roots(-bound, bound)
    roots: list[AlgebraicReal] = []
    stack: list[tuple[Fraction, Fraction, int]] = [(-bound, bound, total)]
    while stack:
        lo, hi, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            roots.append(AlgebraicReal._trusted(d, lo, hi, ints, sturm))
            continue
        mid = (lo + hi) / 2
        if _eval_int_sign(ints, mid) == 0:
            # mid is itself a root; carve out a root-free margin around it
            w = (hi - lo) / 4
            while True:
                a, b = mid - w, mid + w
                if (
                    _eval_int_sign(ints, a) != 0
                    and _eval_int_sign(ints, b) != 0
                    and sturm.count_roots(a, b) == 1
                ):
                    break
                w /= 2
            roots.append(AlgebraicReal._trusted(d, a, b, ints, sturm))
            left = sturm.count_roots(lo, a)
            right = sturm.count_roots(b, hi)
            stack.append((lo, a, left))
            stack.append((b, hi, right))
        else:
            stack.append((lo, mid, sturm.count_roots(lo, mid)))
            stack.append((mid, hi, sturm.count_roots(mid, hi)))
    # bisection produces pairwise disjoint intervals, so this is a true sort
    roots.sort(key=lambda r: r.lo)
    return roots


def tarski_query(g: Polynomial, d: Polynomial, lo: Fraction, hi: Fraction) -> int:
    """Sum of sign(g) over the roots of d in (lo, hi).

    Computed from the signed remainder sequence of (d, d'*g); d must be
    squarefree and nonzero at both endpoints.
    """
    d_ints = _primitive_int_coeffs(d)
    dg = d.derivative() * g
    if dg.is_zero:
        # g == 0: every root contributes sign 0
        return 0
    chain = _sturm_chain(d_ints, _primitive_int_coeffs(dg))
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def sign_at(p: Polynomial, theta: AlgebraicReal) -> int:
    """Exact sign of p at a real algebraic point, via a Tarski query."""
    if p.is_zero:
        return 0
    if p.is_constant:
        return sgn(p._n[0])
    r = theta.as_rational()
    if r is not None:
        return _eval_int_sign(p._n, r)
    return tarski_query(p, theta.defining, theta.lo, theta.hi)
