"""Integer-valued step functions on the orderings of the base ring.

A step function is stored as the values on the open intervals between its
breakpoints and one point value per breakpoint. The point value is None
exactly when the denominator support vanishes there, since that point then
carries no ordering. Roots of the denominator polynomial are always kept as
breakpoints so that interval cells never cover a missing point.

The functions here are functions of the signs of finitely many polynomials,
and at a cut c- or c+, or at -inf or +inf, each polynomial has its sign on
the adjacent open interval (Basu, Pollack, Roy, *Algorithms in Real
Algebraic Geometry*, ch. 2). So a cut value is the interval beside it,
intervals[i] at the left cut and intervals[i + 1] at the right cut of
breaks[i], and the end values are intervals[0] and intervals[-1]: a step
function can only jump at a point ordering, which `continuity_failures`
reports.

Over base Q, whose real spectrum is one point, the same representation has
no breakpoints and one interval, so the generic cell code serves Q
unchanged. Only sampling (`build`), evaluation, the cell listing and the
printed form treat Q apart, because Q has its own ordering and its own cell
kind.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import AdmissibilityError, InconsistencyError, ValidationError
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
    """A breakpoint of the line and the step function's value at it."""

    __slots__ = ("center", "at_point")

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, center: Center, at_point: int | None):
        self.center = _normalize_center(center)
        self.at_point = at_point

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Breakpoint):
            return NotImplemented
        return (
            self.at_point == other.at_point
            and compare_centers(self.center, other.center) == 0
        )

    def __repr__(self) -> str:
        return f"Breakpoint({self.center}, {self.at_point})"


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


def interval_samples(centers: Sequence[Center]) -> list[Fraction]:
    """One rational in each open interval cut out by sorted distinct centers.

    Below the first center, between neighbours (`rational_between`, which may
    refine the centers), and above the last; 0 when there are no centers.
    """
    if not centers:
        return [Fraction(0)]
    first = centers[0]
    out = [first.lo if isinstance(first, AlgebraicReal) else first - 1]
    out.extend(map(rational_between, centers, centers[1:]))
    last = centers[-1]
    out.append(last.hi if isinstance(last, AlgebraicReal) else last + 1)
    return out


class StepFunction:
    """Piecewise constant integer function on the orderings of a ring."""

    __slots__ = ("ring", "intervals", "breaks")

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self, ring: Ring, intervals: tuple[int, ...], breaks: tuple[Breakpoint, ...]
    ):
        if len(intervals) != len(breaks) + 1:
            raise ValidationError("interval cells must be one more than breakpoints")
        if ring.is_rational_base and breaks:
            raise ValidationError("a step function over Q takes a single value")
        self.ring = ring
        self.intervals = intervals
        self.breaks = breaks
        self._canonicalize()

    @property
    def constant(self) -> int | None:
        """The value over Q; None over a line."""
        return self.intervals[0] if self.ring.is_rational_base else None

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
        ch. 2), so the function takes its interval values there and only one
        rational per interval and each point are evaluated.
        """
        if ring.is_rational_base:
            return cls(ring, (evaluator(TheOrdering()),), ())
        s_roots: list[AlgebraicReal] = []
        if ring.s.degree > 0:
            s_roots = isolate_real_roots(ring.s)
        cs = merge_centers([list(centers), s_roots])
        ats = [evaluator(point_at(c)) if _sign_poly_at_center(ring.s, c) else None for c in cs]
        intervals = tuple(evaluator(RationalPoint(q)) for q in interval_samples(cs))
        return cls(ring, intervals, tuple(map(Breakpoint, cs, ats)))

    def _canonicalize(self) -> None:
        # fuse breakpoints that do not actually break anything; punctured
        # points (at_point None) always stay
        breaks = list(self.breaks)
        intervals = list(self.intervals)
        i = 0
        while i < len(breaks):
            b = breaks[i]
            if b.at_point is not None and intervals[i] == b.at_point == intervals[i + 1]:
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
        if point.center is None:
            return self.intervals[0 if point.side < 0 else -1]
        for i, b in enumerate(self.breaks):
            cmp = compare_centers(point.center, b.center)
            if cmp == 0:
                if point.side:
                    return self.intervals[i if point.side < 0 else i + 1]
                if b.at_point is None:
                    raise AdmissibilityError(f"no point ordering at {point}")
                return b.at_point
            if cmp < 0:
                return self.intervals[i]
        return self.intervals[-1]

    def value_map(self) -> dict[int, None]:
        """Distinct values, in cell order (an ordered set)."""
        vals: dict[int, None] = {self.intervals[0]: None}
        for b, right in zip(self.breaks, self.intervals[1:]):
            if b.at_point is not None:
                vals[b.at_point] = None
            vals[right] = None
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
        yield ("minus-inf", MinusInfinity(), self.intervals[0])
        prev: Center | None = None
        for b, left, right in zip(self.breaks, self.intervals, self.intervals[1:]):
            yield ("interval", (prev, b.center), left)
            yield ("left-cut", CutLeft(b.center), left)
            if b.at_point is not None:
                yield ("point", point_at(b.center), b.at_point)
            yield ("right-cut", CutRight(b.center), right)
            prev = b.center
        yield ("interval", (prev, None), self.intervals[-1])
        yield ("plus-inf", PlusInfinity(), self.intervals[-1])

    def map_values(self, mapper: Callable[[int], int]) -> "StepFunction":
        return StepFunction(
            self.ring,
            tuple(map(mapper, self.intervals)),
            tuple(
                Breakpoint(b.center, None if b.at_point is None else mapper(b.at_point))
                for b in self.breaks
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.intervals == other.intervals
            and len(self.breaks) == len(other.breaks)
            and all(a == b for a, b in zip(self.breaks, other.breaks))
        )

    def __str__(self) -> str:
        if self.ring.is_rational_base:
            return f"const {self.intervals[0]}"
        parts = [f"[-inf:{self.intervals[0]}]"]
        for b, left, right in zip(self.breaks, self.intervals, self.intervals[1:]):
            at = "*" if b.at_point is None else str(b.at_point)
            parts.append(str(left))
            parts.append(f"[{b.center}:{left}|{at}|{right}]")
        parts.append(str(self.intervals[-1]))
        parts.append(f"[+inf:{self.intervals[-1]}]")
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
        ats: list[int | None] = []
        for k, f in enumerate(funcs):
            j = idx[k]
            if j < len(f.breaks) and compare_centers(f.breaks[j].center, c) == 0:
                ats.append(f.breaks[j].at_point)
                idx[k] = j + 1
            else:
                ats.append(f.intervals[j])
        if any(a is None for a in ats):
            # the point ordering is missing there for every function or none
            if not all(a is None for a in ats):
                raise InconsistencyError(
                    f"inconsistent punctures at breakpoint {c}"
                )
            at: int | None = None
        else:
            at = combine(ats)  # type: ignore[arg-type]
        breaks.append(Breakpoint(c, at))
        intervals.append(combine([f.intervals[j] for f, j in zip(funcs, idx)]))
    return StepFunction(ring, tuple(intervals), tuple(breaks))


def continuity_failures(f: StepFunction) -> list[Center]:
    """Breakpoint centers where the function fails to be locally constant.

    A step function is locally constant exactly when every level set is
    Harrison-clopen, so an empty return certifies continuity. Cut and end
    values are those of the adjacent interval, so the function can only jump
    at a point ordering: where the point value differs from an interval
    beside it. Canonicalization fuses every other breakpoint with a point
    value, so these are the breakpoints that are not punctures.
    """
    return [b.center for b in f.breaks if b.at_point is not None]


def is_harrison_clopen(f: StepFunction, value: int) -> bool:
    """Whether the level set {f = value} is clopen among the orderings.

    That is, whether its indicator function is locally constant.
    """
    return not continuity_failures(f.map_values(lambda t: int(t == value)))
