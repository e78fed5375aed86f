"""Deterministic SVG renderings of step functions.

The drawing keeps the breakpoint structure visible: horizontal segments
carry the interval values, open circles at each breakpoint mark the two
intervals beside it (the values at its left and right cuts), and a filled
dot marks the value at the point itself.  A missing dot means the center
is not an ordering of the base ring.  The values at the two infinite
orderings, those of the outer intervals, are drawn as square markers at
the edges of the window.

All layout arithmetic is exact; floating point appears only when the
final coordinates are printed.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .realroots import AlgebraicReal
from .stepfun import StepFunction

_WIDTH = 640
_HEIGHT = 360
_ML, _MR, _MT, _MB = 52, 20, 20, 40

_AXIS = "#888888"
_LINE = "#1f5fa8"
_TEXT = "#222222"


def _fmt(v: Fraction) -> str:
    return f"{float(v):.2f}"


def _center_position(center: object) -> Fraction:
    if isinstance(center, AlgebraicReal):
        exact = center.as_rational()
        if exact is not None:
            return exact
        center.refine_below(Fraction(1, 1024))
        return (center.lo + center.hi) / 2
    return Fraction(center)


def _center_label(center: object) -> str:
    if isinstance(center, AlgebraicReal) and center.as_rational() is None:
        return f"~{float(_center_position(center)):.2f}"
    pos = _center_position(center)
    return str(pos)


class _Canvas:
    """Maps exact data coordinates to pixel strings."""

    def __init__(self, x0: Fraction, x1: Fraction, y0: int, y1: int):
        self.x0, self.x1 = x0, x1
        self.y0, self.y1 = Fraction(y0), Fraction(y1)
        self.parts: list[str] = []

    def px(self, x: Fraction) -> str:
        t = (x - self.x0) / (self.x1 - self.x0)
        return _fmt(_ML + t * (_WIDTH - _ML - _MR))

    def py(self, y: Fraction | int) -> str:
        t = (Fraction(y) - self.y0) / (self.y1 - self.y0)
        return _fmt(_HEIGHT - _MB - t * (_HEIGHT - _MT - _MB))

    def line(self, x0, y0, x1, y1, color=_LINE, width="2"):
        self.parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def circle(self, x, y, filled: bool):
        fill = _LINE if filled else "#ffffff"
        self.parts.append(
            f'<circle cx="{x}" cy="{y}" r="4" fill="{fill}" '
            f'stroke="{_LINE}" stroke-width="2"/>'
        )

    def square(self, x, y):
        fx, fy = float(x), float(y)
        self.parts.append(
            f'<rect x="{fx - 4:.2f}" y="{fy - 4:.2f}" width="8" height="8" '
            f'fill="{_LINE}"/>'
        )

    def text(self, x, y, s: str, anchor="middle"):
        self.parts.append(
            f'<text x="{x}" y="{y}" font-family="monospace" font-size="12" '
            f'fill="{_TEXT}" text-anchor="{anchor}">{s}</text>'
        )


def _windows(f: StepFunction) -> tuple[Fraction, Fraction, int, int]:
    centers = [_center_position(b.center) for b in f.breaks]
    if centers:
        span = centers[-1] - centers[0]
        pad = span / 4 if span else Fraction(1)
        x0, x1 = centers[0] - pad - 1, centers[-1] + pad + 1
    else:
        x0, x1 = Fraction(-2), Fraction(2)
    values = set(f.value_map())
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    return x0, x1, lo, hi


def render_step_svg(f: StepFunction) -> str:
    """Return a complete SVG document for one step function."""
    if f.constant is not None:
        x0, x1 = Fraction(-2), Fraction(2)
        lo, hi = f.constant - 1, f.constant + 1
        cv = _Canvas(x0, x1, lo, hi)
        _frame(cv, range(lo, hi + 1))
        y = cv.py(f.constant)
        cv.line(cv.px(x0), y, cv.px(x1), y)
        cv.text(cv.px(Fraction(0)), f"{float(y) - 10:.2f}", str(f.constant))
        return _document(cv)

    x0, x1, lo, hi = _windows(f)
    cv = _Canvas(x0, x1, lo, hi)
    _frame(cv, range(lo, hi + 1))

    centers = [_center_position(b.center) for b in f.breaks]
    edges = [x0] + centers + [x1]
    for i, value in enumerate(f.intervals):
        y = cv.py(value)
        cv.line(cv.px(edges[i]), y, cv.px(edges[i + 1]), y)
    for b, cx, left, right in zip(f.breaks, centers, f.intervals, f.intervals[1:]):
        px = cv.px(cx)
        cv.circle(px, cv.py(left), filled=False)
        cv.circle(px, cv.py(right), filled=False)
        if b.at_point is not None:
            cv.circle(px, cv.py(b.at_point), filled=True)
        cv.text(px, _fmt(Fraction(_HEIGHT - _MB + 16)), _center_label(b.center))
        cv.line(px, cv.py(Fraction(lo)), px, _fmt(Fraction(_HEIGHT - _MB + 4)),
                color=_AXIS, width="1")
    cv.square(cv.px(x0), cv.py(f.intervals[0]))
    cv.square(cv.px(x1), cv.py(f.intervals[-1]))
    cv.text(cv.px(x0), _fmt(Fraction(_HEIGHT - _MB + 16)), "-inf", anchor="start")
    cv.text(cv.px(x1), _fmt(Fraction(_HEIGHT - _MB + 16)), "+inf", anchor="end")
    return _document(cv)


def _frame(cv: _Canvas, ticks) -> None:
    left = _fmt(Fraction(_ML))
    bottom = _fmt(Fraction(_HEIGHT - _MB))
    cv.line(left, _fmt(Fraction(_MT)), left, bottom, color=_AXIS, width="1")
    cv.line(left, bottom, _fmt(Fraction(_WIDTH - _MR)), bottom, color=_AXIS, width="1")
    for v in ticks:
        y = cv.py(v)
        cv.line(_fmt(Fraction(_ML - 4)), y, left, y, color=_AXIS, width="1")
        cv.text(_fmt(Fraction(_ML - 8)), y, str(v), anchor="end")


def _document(cv: _Canvas) -> str:
    body = "\n".join(cv.parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )


def write_plot(f: StepFunction, path: str) -> None:
    Path(path).write_text(render_step_svg(f), encoding="utf-8")
