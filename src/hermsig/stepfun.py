"""Integer-valued step functions on the orderings of the base ring.

A step function is stored by its cell decomposition: a value at each end of
the line, values on the open intervals between breakpoints, and one
(left cut, point, right cut) triple per breakpoint. The point slot is None
exactly when the denominator support vanishes there, since that point then
carries no ordering. Roots of the denominator polynomial are always kept as
breakpoints so that interval cells never cover a missing point. Sampling
(`build`) reads each interval and each point once; its cut and end values
are limits from the adjacent interval. Combined or hand-built functions may
still jump at a cut, which `continuity_failures` reports.

Over base Q, whose real spectrum is one point, the same representation has
no breakpoints and one value in both ends and the single interval, so the
generic cell code serves Q unchanged. Only sampling (`build`), evaluation,
the cell listing and the printed form treat Q apart, because Q has its own
ordering and its own cell kind.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import AdmissibilityError, InconsistencyError, ValidationError
from .polynomials import Polynomial
from .realroots import AlgebraicReal, isolate_real_roots, refine_apart
from .sper import (
    Center,
    CutLeft,
    CutRight,
    MinusInfinity,
    OrderingPoint,
    PlusInfinity,
    RationalPoint,
    Ring,
    TheOrdering,
    _normalize_center,
    _sign_poly_at_center,
    compare_centers,
    point_at,
)


class Breakpoint:
    """Values of a step function around one breakpoint of the line."""

    __slots__ = ("center", "left", "at_point", "right")

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, center: Center, left: int, at_point: int | None, right: int):
        self.center = _normalize_center(center)
        self.left = left
        self.at_point = at_point
        self.right = right

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Breakpoint):
            return NotImplemented
        return (
            self.left == other.left
            and self.at_point == other.at_point
            and self.right == other.right
            and compare_centers(self.center, other.center) == 0
        )

    def __repr__(self) -> str:
        return f"Breakpoint({self.center}, {self.left}|{self.at_point}|{self.right})"


def merge_centers(groups: Iterable[Sequence[Center]]) -> list[Center]:
    """Sorted union of breakpoint positions, deduplicated by real equality."""
    out: list[Center] = []
    for g in groups:
        for c in g:
            c = _normalize_center(c)
            placed = False
            for i in range(len(out) - 1, -1, -1):
                cmp = compare_centers(out[i], c)
                if cmp == 0:
                    placed = True
                    break
                if cmp < 0:
                    out.insert(i + 1, c)
                    placed = True
                    break
            if not placed:
                out.insert(0, c)
    return out


def rational_between(a: Center, b: Center) -> Fraction:
    """A rational strictly between two distinct breakpoint positions a < b.

    Equal positions raise InconsistencyError: refinement stops at the
    separation bound of `refine_apart`.
    """
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        if a == b:
            raise InconsistencyError(f"no rational strictly between {a} and itself")
        return (a + b) / 2
    if isinstance(a, Fraction):
        refine_apart(lambda: b.lo > a, b, a)
        return b.lo
    if isinstance(b, Fraction):
        refine_apart(lambda: a.hi < b, a, b)
        return a.hi
    refine_apart(lambda: a.hi <= b.lo, a, b)
    return (a.hi + b.lo) / 2


def _sample_below(c: Center) -> Fraction:
    return c.lo if isinstance(c, AlgebraicReal) else c - 1


def _sample_above(c: Center) -> Fraction:
    return c.hi if isinstance(c, AlgebraicReal) else c + 1


class StepFunction:
    """Piecewise constant integer function on the orderings of a ring."""

    __slots__ = ("ring", "at_minus_inf", "at_plus_inf", "intervals", "breaks")

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        ring: Ring,
        at_minus_inf: int,
        at_plus_inf: int,
        intervals: tuple[int, ...],
        breaks: tuple[Breakpoint, ...],
    ):
        if len(intervals) != len(breaks) + 1:
            raise ValidationError("interval cells must be one more than breakpoints")
        if ring.is_rational_base and (
            breaks or not at_minus_inf == intervals[0] == at_plus_inf
        ):
            raise ValidationError("a step function over Q takes a single value")
        self.ring = ring
        self.at_minus_inf = at_minus_inf
        self.at_plus_inf = at_plus_inf
        self.intervals = intervals
        self.breaks = breaks
        self._canonicalize()

    @property
    def constant(self) -> int | None:
        """The value over Q; None over a line."""
        return self.intervals[0] if self.ring.is_rational_base else None

    @classmethod
    def constant_function(cls, ring: Ring, value: int) -> "StepFunction":
        return cls.build(ring, [], lambda point: value)

    @classmethod
    def build(
        cls,
        ring: Ring,
        centers: Iterable[Center],
        evaluator: Callable[[OrderingPoint], int],
    ) -> "StepFunction":
        """Sample the evaluator once per cell induced by the given breakpoints.

        The evaluator must be a function of the signs of some polynomials,
        and the caller must list every real root of each of them as a center;
        roots of the ring's denominator polynomial are added here. Then at
        c- and c+ each polynomial has its sign on the open interval beside c,
        and at -inf and +inf its sign on the outer ray (Basu, Pollack, Roy,
        ch. 2), so cut and end values are copied from the adjacent interval
        and only one rational per interval and each point are evaluated.
        """
        if ring.is_rational_base:
            v = evaluator(TheOrdering())
            return cls(ring, v, v, (v,), ())
        s_roots: list[AlgebraicReal] = []
        if ring.s.degree > 0:
            s_roots = isolate_real_roots(ring.s)
        cs = merge_centers([list(centers), s_roots])
        ats = [evaluator(point_at(c)) if _sign_poly_at_center(ring.s, c) else None for c in cs]
        intervals: list[int] = []
        if cs:
            intervals.append(evaluator(RationalPoint(_sample_below(cs[0]))))
            for a, b in zip(cs, cs[1:]):
                intervals.append(evaluator(RationalPoint(rational_between(a, b))))
            intervals.append(evaluator(RationalPoint(_sample_above(cs[-1]))))
        else:
            intervals.append(evaluator(RationalPoint(Fraction(0))))
        breaks = tuple(map(Breakpoint, cs, intervals, ats, intervals[1:]))
        return cls(ring, intervals[0], intervals[-1], tuple(intervals), breaks)

    def _canonicalize(self) -> None:
        # fuse breakpoints that do not actually break anything; punctured
        # points (at_point None) always stay
        breaks = list(self.breaks)
        intervals = list(self.intervals)
        i = 0
        while i < len(breaks):
            b = breaks[i]
            if (
                b.at_point is not None
                and b.left == b.at_point == b.right == intervals[i] == intervals[i + 1]
            ):
                del breaks[i]
                del intervals[i + 1]
            else:
                i += 1
        self.breaks = tuple(breaks)
        self.intervals = tuple(intervals)

    #### queries

    def value_at(self, point: OrderingPoint) -> int:
        if self.ring.is_rational_base:
            if not isinstance(point, TheOrdering):
                raise AdmissibilityError(f"base Q admits no ordering {point}")
            return self.intervals[0]
        if isinstance(point, TheOrdering):
            raise AdmissibilityError("the ordering of Q does not order this ring")
        if isinstance(point, MinusInfinity):
            return self.at_minus_inf
        if isinstance(point, PlusInfinity):
            return self.at_plus_inf
        if isinstance(point, (CutLeft, CutRight)):
            c = point.center
            side = -1 if isinstance(point, CutLeft) else 1
        else:
            c = point.center
            side = 0
        for i, b in enumerate(self.breaks):
            cmp = compare_centers(c, b.center)
            if cmp == 0:
                if side < 0:
                    return b.left
                if side > 0:
                    return b.right
                if b.at_point is None:
                    raise AdmissibilityError(f"no point ordering at {point}")
                return b.at_point
            if cmp < 0:
                return self.intervals[i]
        return self.intervals[-1]

    def value_map(self) -> dict[int, None]:
        """Distinct values, in cell order (an ordered set)."""
        vals: dict[int, None] = {self.at_minus_inf: None}
        for i, b in enumerate(self.breaks):
            vals[self.intervals[i]] = None
            vals[b.left] = None
            if b.at_point is not None:
                vals[b.at_point] = None
            vals[b.right] = None
        vals[self.intervals[-1]] = None
        vals[self.at_plus_inf] = None
        return vals

    def cells(self) -> Iterator[tuple[str, object, int]]:
        """(kind, location, value) triples in line order.

        Kinds: rational-order, minus-inf, interval, left-cut, point,
        right-cut, plus-inf. Interval locations are (lo, hi) center pairs
        with None for an infinite end; point cells are skipped where the
        point ordering does not exist.
        """
        if self.ring.is_rational_base:
            yield ("rational-order", TheOrdering(), self.intervals[0])
            return
        yield ("minus-inf", MinusInfinity(), self.at_minus_inf)
        prev: Center | None = None
        for i, b in enumerate(self.breaks):
            yield ("interval", (prev, b.center), self.intervals[i])
            yield ("left-cut", CutLeft(b.center), b.left)
            if b.at_point is not None:
                yield ("point", point_at(b.center), b.at_point)
            yield ("right-cut", CutRight(b.center), b.right)
            prev = b.center
        yield ("interval", (prev, None), self.intervals[-1])
        yield ("plus-inf", PlusInfinity(), self.at_plus_inf)

    def map_values(self, mapper: Callable[[int], int]) -> "StepFunction":
        return StepFunction(
            self.ring,
            mapper(self.at_minus_inf),
            mapper(self.at_plus_inf),
            tuple(mapper(v) for v in self.intervals),
            tuple(
                Breakpoint(
                    b.center,
                    mapper(b.left),
                    None if b.at_point is None else mapper(b.at_point),
                    mapper(b.right),
                )
                for b in self.breaks
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.at_minus_inf == other.at_minus_inf
            and self.at_plus_inf == other.at_plus_inf
            and self.intervals == other.intervals
            and len(self.breaks) == len(other.breaks)
            and all(a == b for a, b in zip(self.breaks, other.breaks))
        )

    def __str__(self) -> str:
        if self.ring.is_rational_base:
            return f"const {self.intervals[0]}"
        parts = [f"[-inf:{self.at_minus_inf}]"]
        for i, b in enumerate(self.breaks):
            parts.append(str(self.intervals[i]))
            at = "*" if b.at_point is None else str(b.at_point)
            parts.append(f"[{b.center}:{b.left}|{at}|{b.right}]")
        parts.append(str(self.intervals[-1]))
        parts.append(f"[+inf:{self.at_plus_inf}]")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"StepFunction({self})"


def step_combine(
    funcs: Sequence[StepFunction], combine: Callable[[list[int]], int]
) -> StepFunction:
    """Pointwise combination of step functions over the same ring."""
    if not funcs:
        raise ValidationError("nothing to combine")
    ring = funcs[0].ring
    for f in funcs[1:]:
        if f.ring != ring:
            raise ValidationError("step functions live over different rings")
    centers = merge_centers([[b.center for b in f.breaks] for f in funcs])
    idx = [0] * len(funcs)
    breaks: list[Breakpoint] = []
    intervals: list[int] = [combine([f.intervals[0] for f in funcs])]
    for c in centers:
        lefts: list[int] = []
        ats: list[int | None] = []
        rights: list[int] = []
        nexts: list[int] = []
        for k, f in enumerate(funcs):
            j = idx[k]
            if j < len(f.breaks) and compare_centers(f.breaks[j].center, c) == 0:
                b = f.breaks[j]
                lefts.append(b.left)
                ats.append(b.at_point)
                rights.append(b.right)
                nexts.append(f.intervals[j + 1])
                idx[k] = j + 1
            else:
                v = f.intervals[j]
                lefts.append(v)
                ats.append(v)
                rights.append(v)
                nexts.append(v)
        if any(a is None for a in ats):
            # the point ordering is missing there for every function or none
            if not all(a is None for a in ats):
                raise InconsistencyError(
                    f"inconsistent punctures at breakpoint {c}"
                )
            at: int | None = None
        else:
            at = combine(ats)  # type: ignore[arg-type]
        breaks.append(Breakpoint(c, combine(lefts), at, combine(rights)))
        intervals.append(combine(nexts))
    return StepFunction(
        ring,
        combine([f.at_minus_inf for f in funcs]),
        combine([f.at_plus_inf for f in funcs]),
        tuple(intervals),
        tuple(breaks),
    )


def continuity_failures(f: StepFunction) -> "list[object]":
    """Locations where the function fails to be locally constant.

    A step function is locally constant exactly when every level set is
    Harrison-clopen, so an empty return certifies continuity. Entries are
    breakpoint centers; an infinite end that disagrees with its ray is
    reported as the string "-inf" or "+inf".
    """
    out: list[object] = []
    if f.at_minus_inf != f.intervals[0]:
        out.append("-inf")
    for i, b in enumerate(f.breaks):
        bad = b.left != f.intervals[i] or b.right != f.intervals[i + 1]
        if b.at_point is not None:
            bad = bad or b.at_point != b.left or b.at_point != b.right
        if bad:
            out.append(b.center)
    if f.at_plus_inf != f.intervals[-1]:
        out.append("+inf")
    return out


def is_harrison_clopen(f: StepFunction, value: int) -> bool:
    """Whether the level set {f = value} is clopen among the orderings.

    That is, whether its indicator function is locally constant.
    """
    return not continuity_failures(f.map_values(lambda t: int(t == value)))
