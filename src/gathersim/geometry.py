"""Planar primitives with an explicit tolerance model.

All angle operations use one fixed convention: angles grow in the clockwise
direction when the plane is drawn with the y axis pointing up.  Length
comparisons are relative to the scale of their inputs so predicates behave
the same for a configuration and any scaled copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import DegenerateAngle

TAU = 2.0 * math.pi


class Point(NamedTuple):
    x: float
    y: float


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


class _cached(cached_property):
    """A ``functools.cached_property`` whose first read stores ``func(obj)``
    in the instance ``__dict__``, where every later read finds it, and does
    nothing else; read on the class, it is the descriptor itself.

    The base class's first read takes an ``RLock`` on CPython 3.10 and 3.11
    (3.12 dropped it), and a simulator run builds thousands of short-lived
    configurations whose attributes are each read once.  Without the lock,
    two threads that first read one attribute at once would each compute
    it and store equal values, as on 3.12; nothing here shares an instance
    between threads.  It stays a ``cached_property`` with ``func``, so code
    that finds lazy attributes by that type, as the benchmark's tracer
    does, still finds every one.
    """

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


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


# --- cell tree -------------------------------------------------------------------
#
# Barnes & Hut, "A hierarchical O(N log N) force-calculation algorithm"
# (Nature 1986); the centroid bound on distance sums as in Bose, Maheshwari
# & Morin, "Fast approximations for sums of distances, clustering and the
# Fermat-Weber problem" (Comput. Geom. 2003).

# A cell whose radius is below this share of its centroid's distance from a
# center counts as one far cell in ``_cell_bounds``.
_OPENING_RATIO = 0.4
# Half the largest second derivative of the unit vector x/|x| along a unit
# step, times |x|^2: sqrt(4/3)/2 = 0.5773502691..., rounded up.
_CURVATURE = 0.57735027


def _cell_bounds(
    points: tuple[Point, ...], centers: Iterable[Point], leaf_size: int, slack: float
) -> list[tuple[float, float, float]]:
    """Lower bounds (pull, r_min, sum) for the points seen from each center.

    ``pull`` bounds the computed length of the sum of the unit vectors
    (x - cx, y - cy) / d toward the points whose computed distance
    d = ``hypot(x - cx, y - cy)`` exceeds ``slack``, added in index order
    as ``Rays`` rows add them; ``r_min`` bounds the smallest such d (it is
    inf when there is none); ``sum`` bounds the ``_plain_sum`` of every
    point's d in index order.  ``slack`` is the merge slack of the
    configuration the points come from, so points within it of the center
    are left out, as ``Rays.off`` leaves them out.

    The bounds come from a k-d tree over the points, with a count, a
    centroid and a radius per cell, built once for all the centers and
    then dropped.  A cell splits at the median of its wider coordinate
    until it holds at most ``leaf_size`` points.  Each cell is a tuple
    (gx, gy, radius, count, count * radius^2, reach, left, right, points):
    the centroid is the ``math.fsum`` of the coordinates over the count,
    and the radius is the largest computed ``hypot`` from that float
    centroid to a point of the cell, times 1 + 1e-15.  A computed
    ``hypot`` of two rounded differences is within a factor 1 +- 3u
    (u = 2^-53) of the distance, so every point lies in the closed disk of
    that radius around the float centroid.  A cell is far from every
    center beyond ``reach``, the larger of radius / ``_OPENING_RATIO`` and
    twice the slack.  Leaves keep their points; ``left`` and ``right`` are
    None there, ``points`` elsewhere.  The centroid of a cell errs by at
    most 2.01u times the largest coordinate magnitude per axis (one
    correctly rounded sum, one division), so by less than
    ``centroid_error``, 3.2u times it, in the plane.

    One walk down the tree per center, from the root.  A cell whose
    centroid g lies at a computed distance d beyond its reach is far, and
    is not opened; there rho < 0.4 d for its radius rho.  A leaf that is
    not far is measured exactly, with the doubles ``Rays`` computes, each
    point's d compared with the slack as ``Rays.off`` compares it.

    * Pull.  Write f(x) = x/|x| for x = p - c.  Along any unit step h,
      |f''(x)[h, h]| <= sqrt(4/3)/|x|^2 (the maximum over the split of
      h along and across x), so by Taylor's theorem with the remainder
      taken along the segment from g to p, which stays at least
      d - rho from c, f(p) = f(g) + Df(g)(p - g) + R with
      |R| <= ``_CURVATURE`` * rho^2 / (d - rho)^2.  Summed over the
      cell, the first-order terms add up to Df(g) times count times
      (true centroid - g), at most count * ``centroid_error`` / d, as
      |Df(g)| = 1/d.  Each point of a far cell also lies beyond the
      slack: d - rho > 0.6 d > 1.2 * slack, up to a relative 4u.  So
      with V the sum of count * (g - c) / d over far cells plus the
      exact unit vectors in leaves, |P_c| >= |V| - sum over far cells
      of (``_CURVATURE`` * count * rho^2 / (d - rho)^2 + count *
      ``centroid_error`` / d).  Rounding: every term of V has magnitude
      at most its count, so the computed V and the computed exact pull
      each lie within (n^2 + 6n)u of the true sums, and the two error
      sums, at most 0.4 n and n/10 (d > 2 * slack >= 16u times the
      largest coordinate), err by a relative (n + 8)u.  The margin
      (n + 8) n 1e-15 covers all of it.
    * r_min.  A point of a far cell lies at least d - rho from the
      center; (d - rho)(1 - 1e-15) is below its computed distance, as d
      errs by at most a relative 3u and d - rho > 0.6 d.  Leaves give
      the computed distances themselves.
    * Sum.  For any set of points, the sum of their distances from c is
      at least count * |c - centroid| (the triangle inequality on the
      sum of the vectors).  The float centroid lies within
      ``centroid_error`` of the true one, so a far cell adds at least
      count * (d (1 - 3u) - ``centroid_error``), and a leaf its exact
      distances.  The computed total of m <= n terms and the computed
      ``_plain_sum`` each err by at most a relative (n + 3)u, which the
      factor 1 - (n + 4) 1e-15 covers.
    """
    n = len(points)
    centroid_error = 3.6e-16 * max(max(abs(x), abs(y)) for x, y in points)
    root = _cell(list(points), leaf_size, 2.0 * slack)
    hypot = math.hypot
    out = []
    for cx, cy in centers:
        px = py = curve = spread = total = 0.0
        r_min = r_far = math.inf
        stack = [root]
        pop = stack.pop
        push = stack.append
        while stack:
            gx, gy, rad, count, moment, reach, left, right, cell_points = pop()
            dx = gx - cx
            dy = gy - cy
            d = hypot(dx, dy)
            if d > reach:
                w = count / d
                px += w * dx
                py += w * dy
                gap = d - rad
                curve += moment / (gap * gap)
                spread += w
                total += count * d
                if gap < r_far:
                    r_far = gap
            elif left is None:
                for x, y in cell_points:
                    dx = x - cx
                    dy = y - cy
                    d = hypot(dx, dy)
                    total += d
                    if d > slack:
                        px += dx / d
                        py += dy / d
                        if d < r_min:
                            r_min = d
            else:
                push(left)
                push(right)
        pull = hypot(px, py) - _CURVATURE * curve - centroid_error * spread - (n + 8) * n * 1e-15
        lower = total * (1.0 - (n + 4) * 1e-15) - n * centroid_error
        out.append((pull, min(r_min, r_far * (1.0 - 1e-15)), lower))
    return out


def _cell(points: list[Point], leaf_size: int, near: float) -> tuple:
    count = len(points)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    gx = math.fsum(xs) / count
    gy = math.fsum(ys) / count
    rad = max(map(math.hypot, [x - gx for x in xs], [y - gy for y in ys])) * (1.0 + 1e-15)
    reach = max(rad / _OPENING_RATIO, near)
    if count <= leaf_size:
        return (gx, gy, rad, count, count * rad * rad, reach, None, None, points)
    points.sort(key=itemgetter(0 if max(xs) - min(xs) >= max(ys) - min(ys) else 1))
    mid = count // 2
    left = _cell(points[:mid], leaf_size, near)
    return (gx, gy, rad, count, count * rad * rad, reach, left, _cell(points[mid:], leaf_size, near), None)
