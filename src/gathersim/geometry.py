"""Planar primitives with an explicit tolerance model.

All angle operations use one fixed convention: angles grow in the clockwise
direction when the plane is drawn with the y axis pointing up.  Length
comparisons are relative to the scale of their inputs so predicates behave
the same for a configuration and any scaled copy of it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import DegenerateAngle, EmptyInput

TAU = 2.0 * math.pi


class Point(NamedTuple):
    x: float
    y: float


class Circle(NamedTuple):
    center: Point
    radius: float


@dataclass(frozen=True)
class Tolerance:
    """Slack used by coincidence, collinearity and angle-equality predicates.

    ``eps_len`` is relative to the scale of the points being compared (the
    configuration diameter at the configuration level); ``eps_angle`` is an
    absolute slack in radians.
    """

    eps_len: float = 1e-9
    eps_angle: float = 1e-9

    def __post_init__(self) -> None:
        if self.eps_len < 0 or self.eps_angle < 0:
            raise ValueError("tolerances must be nonnegative")


DEFAULT_TOLERANCE = Tolerance()


def dist(u: Point, v: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(u[0] - v[0], u[1] - v[1])


def _plain_sum(values: Iterable[float]) -> float:
    """The float sum of ``values`` added left to right, rounding each step.

    From Python 3.12 the builtin ``sum`` compensates float rounding, so its
    result, and every trace built on it, would depend on the interpreter.
    It is private so that the benchmark's tracer, which wraps every public
    function, leaves its time in its callers' self time, as it did the
    builtin's.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def ccw_angle_of(p: Point, c: Point) -> float:
    """Counterclockwise bearing of p as seen from c, in (-pi, pi]."""
    return math.atan2(p[1] - c[1], p[0] - c[0])


def angle_cw(u: Point, c: Point, v: Point, tol: Tolerance | None = None) -> float:
    """Clockwise angle from ray c->u to ray c->v, in [0, 2*pi).

    Raises DegenerateAngle when u or v coincides with c.
    """
    tol = tol or DEFAULT_TOLERANCE
    ru = dist(u, c)
    rv = dist(v, c)
    scale = max(ru, rv)
    if scale == 0.0 or min(ru, rv) <= tol.eps_len * scale:
        raise DegenerateAngle(f"ray endpoint coincides with center {c}")
    if u == v:
        return 0.0
    theta = (ccw_angle_of(u, c) - ccw_angle_of(v, c)) % TAU
    return theta if theta < TAU else 0.0


def wrap_near_zero(theta: float, eps: float) -> float:
    """Map angles within ``eps`` of a full turn to their small negative twin."""
    return theta - TAU if theta > TAU - eps else theta


def rotate_cw(p: Point, c: Point, theta: float) -> Point:
    """Rotate p clockwise by theta around c (rotating c yields c)."""
    dx = p[0] - c[0]
    dy = p[1] - c[1]
    ct = math.cos(theta)
    st = math.sin(theta)
    return Point(c[0] + dx * ct + dy * st, c[1] - dx * st + dy * ct)


def _point_line_offset(p: Point, u: Point, v: Point) -> float:
    """Distance from p to the line through u and v (|u,v| must be > 0)."""
    cross = (v[0] - u[0]) * (p[1] - u[1]) - (v[1] - u[1]) * (p[0] - u[0])
    return abs(cross) / dist(u, v)


def on_open_segment(p: Point, u: Point, v: Point, tol: Tolerance | None = None) -> bool:
    """True iff p lies strictly between u and v, within tolerance."""
    tol = tol or DEFAULT_TOLERANCE
    d_uv = dist(u, v)
    scale = max(d_uv, dist(p, u), dist(p, v))
    slack = tol.eps_len * scale
    if d_uv <= slack:
        return False
    if dist(p, u) <= slack or dist(p, v) <= slack:
        return False
    if _point_line_offset(p, u, v) > slack:
        return False
    t = ((p[0] - u[0]) * (v[0] - u[0]) + (p[1] - u[1]) * (v[1] - u[1])) / (d_uv * d_uv)
    return 0.0 < t < 1.0


def within_line(points: Iterable[Point], a: Point, b: Point, diameter: float, tol: Tolerance | None = None) -> bool:
    """True iff every point is within tolerance of the line through a and b.

    ``a`` and ``b`` are the farthest pair of the points and ``diameter`` is
    their distance; a zero diameter (one location) counts as collinear.
    """
    tol = tol or DEFAULT_TOLERANCE
    if diameter == 0.0:
        return True
    slack = tol.eps_len * diameter
    return all(_point_line_offset(p, a, b) <= slack for p in points)


# --- smallest enclosing circle -------------------------------------------------
#
# Incremental construction with a fixed-seed shuffle: the minimal circle is
# unique, the shuffle only protects the expected running time and keeps the
# result independent of input order.

_SEC_SHUFFLE_SEED = 0x5EC


def smallest_enclosing_circle(points: Iterable[Point]) -> Circle:
    """Minimal-radius circle containing every point."""
    pts = [Point(float(p[0]), float(p[1])) for p in set(points)]
    if not pts:
        raise EmptyInput("smallest enclosing circle of no points")
    random.Random(_SEC_SHUFFLE_SEED).shuffle(pts)
    c: Circle | None = None
    for i, p in enumerate(pts):
        if c is None or not _in_circle(c, p):
            c = _sec_one_point(pts[: i + 1], p)
    assert c is not None
    return c


def _sec_one_point(pts: list[Point], p: Point) -> Circle:
    c = Circle(p, 0.0)
    for i, q in enumerate(pts):
        if not _in_circle(c, q):
            if c.radius == 0.0:
                c = _circle_from_diameter(p, q)
            else:
                c = _sec_two_points(pts[: i + 1], p, q)
    return c


def _sec_two_points(pts: list[Point], p: Point, q: Point) -> Circle:
    circ = _circle_from_diameter(p, q)
    left: Circle | None = None
    right: Circle | None = None
    for r in pts:
        if _in_circle(circ, r):
            continue
        cross = _cross(p, q, r)
        c = _circumcircle(p, q, r)
        if c is None:
            continue
        if cross > 0.0 and (left is None or _cross(p, q, c.center) > _cross(p, q, left.center)):
            left = c
        elif cross < 0.0 and (right is None or _cross(p, q, c.center) < _cross(p, q, right.center)):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right  # type: ignore[return-value]
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def _circle_from_diameter(p: Point, q: Point) -> Circle:
    center = Point((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)
    return Circle(center, max(dist(center, p), dist(center, q)))


def _circumcircle(a: Point, b: Point, c: Point) -> Circle | None:
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    center = Point(x, y)
    return Circle(center, max(dist(center, a), dist(center, b), dist(center, c)))


_CONTAINMENT_SLACK = 1.0 + 1e-14


def _in_circle(c: Circle, p: Point) -> bool:
    return dist(c.center, p) <= c.radius * _CONTAINMENT_SLACK


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
