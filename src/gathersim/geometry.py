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
        if not all(0.0 <= eps < math.inf for eps in (self.eps_len, self.eps_angle)):
            raise ValueError("tolerances must be finite and nonnegative")


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


def _point_line_offset(p: Point, u: Point, v: Point, d_uv: float) -> float:
    """Distance from p to the line through u and v, given d_uv = |u,v| > 0."""
    cross = (v[0] - u[0]) * (p[1] - u[1]) - (v[1] - u[1]) * (p[0] - u[0])
    return abs(cross) / d_uv


def on_open_segment(p: Point, u: Point, v: Point, tol: Tolerance | None = None) -> bool:
    """True iff p lies strictly between u and v, within tolerance."""
    tol = tol or DEFAULT_TOLERANCE
    d_uv = dist(u, v)
    d_pu = dist(p, u)
    d_pv = dist(p, v)
    slack = tol.eps_len * max(d_uv, d_pu, d_pv)
    if d_uv <= slack:
        return False
    if d_pu <= slack or d_pv <= slack:
        return False
    if _point_line_offset(p, u, v, d_uv) > slack:
        return False
    t = ((p[0] - u[0]) * (v[0] - u[0]) + (p[1] - u[1]) * (v[1] - u[1])) / (d_uv * d_uv)
    return 0.0 < t < 1.0


def within_line(points: Iterable[Point], a: Point, b: Point, diameter: float, tol: Tolerance | None = None) -> bool:
    """True iff every point is within tolerance of the line through a and b.

    ``a`` and ``b`` are the farthest pair of the points and ``diameter`` is
    their distance, the line's length each offset divides by; a zero
    diameter (one location) counts as collinear.
    """
    tol = tol or DEFAULT_TOLERANCE
    if diameter == 0.0:
        return True
    slack = tol.eps_len * diameter
    return all(_point_line_offset(p, a, b, diameter) <= slack for p in points)


# --- cell tree -------------------------------------------------------------------
#
# Barnes & Hut, "A hierarchical O(N log N) force-calculation algorithm"
# (Nature 1986); the centroid bound on distance sums as in Bose, Maheshwari
# & Morin, "Fast approximations for sums of distances, clustering and the
# Fermat-Weber problem" (Comput. Geom. 2003).

# A cell whose radius is below this share of its centroid's distance from a
# center counts as one far cell, which no walk of ``_CellBounds`` opens.
_OPENING_RATIO = 0.4


class _CellBounds:
    """Lower bounds on the distance sums from each of several centers to the
    points, each refined on demand until it passes a target.

    ``refine(k, target)`` bounds f(c) = sum of |c - p| over the points p
    from center k, the true sum, and also the ``_plain_sum`` of every
    point's computed d = ``hypot(x - cx, y - cy)`` in index order.  It
    refines the bound until it exceeds ``target`` or its walk is complete,
    and returns it; a later call resumes where the last one stopped.
    ``centroid`` is the root's float centroid and ``gaps`` each center's
    computed distance from it.

    The bounds come from a k-d tree over the points, with a count, a
    centroid and a reach per cell, shared by all the centers.  A cell
    splits at the median of its wider coordinate until it holds at most
    ``leaf_size`` points, and its two children are built when a walk first
    opens it, so cells no walk opens are never built.  Each cell is a list
    [gx, gy, count, reach, children, points, axis]: the centroid is the
    ``math.fsum`` of the coordinates over the count, the reach is the
    largest computed ``hypot`` from that centroid to a point of the cell,
    over ``_OPENING_RATIO``, and the children are None until built and ()
    at a leaf.  The centroid of a cell errs by at most 2.01u (u = 2^-53)
    times the largest coordinate magnitude per axis (one correctly rounded
    sum, one division), so by less than ``centroid_error``, 3.2u times it,
    in the plane.

    For any set of points, the sum of their distances from c is at least
    count * |c - centroid| (the triangle inequality on the sum of the
    vectors), so every cell adds at least count * (d - ``centroid_error``)
    up to rounding, d its centroid's computed distance from c.  A walk
    keeps a frontier of cells and points that partitions the points: the
    points of opened leaves, measured exactly with the doubles ``Rays``
    computes, and far cells, in ``done``; the other cells on a stack, each
    with the running total of the stack's terms up to it.  Both totals only
    ever add nonnegative terms, so the frontier's total is ``done`` plus
    the top running total, with no cancellation.  Opening a cell replaces
    its term by its children's, no smaller with exact centroids; a cell
    whose d is beyond its reach is far and final, as is a measured leaf.
    The nearer child is opened first, where the centroid bound loses the
    most.  A walk is complete once its stack is empty; its bound is then
    the Barnes-Hut one.

    Rounding: a computed d is within a relative 3u of the distance, and the
    two totals and their sum add at most n terms, so the computed frontier
    total errs by at most a relative (n + 5)u from the true sum of its
    terms, and from the computed ``_plain_sum``.  The bound, the total times
    1 - (n + 4) 1e-15 less n * ``centroid_error``, covers both.
    """

    def __init__(self, points: tuple[Point, ...], centers: Iterable[Point], leaf_size: int):
        n = len(points)
        centroid_error = 3.6e-16 * max(max(abs(x), abs(y)) for x, y in points)
        self._leaf_size = leaf_size
        root = _cell(list(points), leaf_size)
        self.centroid = Point(root[0], root[1])
        self.centers = list(centers)
        self._shrink = 1.0 - (n + 4) * 1e-15
        self._offset = n * centroid_error
        gx, gy = self.centroid
        hypot = math.hypot
        self.gaps = [hypot(cx - gx, cy - gy) for cx, cy in self.centers]
        self._done = [0.0] * len(self.centers)
        self._stacks = [[root] for _ in self.centers]
        self._totals = [[n * gap] for gap in self.gaps]

    def refine(self, k: int, target: float) -> float:
        """The bound on center k's distance sum, refined until it exceeds
        ``target`` or its walk is complete."""
        shrink = self._shrink
        offset = self._offset
        stack = self._stacks[k]
        totals = self._totals[k]
        done = self._done[k]
        # the frontier total above which the bound exceeds target
        raw = (target + offset) / shrink
        cx, cy = self.centers[k]
        hypot = math.hypot
        leaf_size = self._leaf_size
        pop = stack.pop
        push = stack.append
        pop_total = totals.pop
        push_total = totals.append
        while stack and done + totals[-1] <= raw:
            cell = pop()
            pop_total()
            kids = cell[4]
            if kids is None:
                kids = cell[4] = _split(cell, leaf_size)
            if not kids:
                for x, y in cell[5]:
                    done += hypot(x - cx, y - cy)
                continue
            left, right = kids
            below = totals[-1] if totals else 0.0
            near = hypot(left[0] - cx, left[1] - cy)
            far = hypot(right[0] - cx, right[1] - cy)
            if near > far:
                left, right, near, far = right, left, far, near
            if far > right[3]:
                done += right[2] * far
            else:
                below += right[2] * far
                push(right)
                push_total(below)
            if near > left[3]:
                done += left[2] * near
            else:
                push(left)
                push_total(below + left[2] * near)
        self._done[k] = done
        return (done + (totals[-1] if totals else 0.0)) * shrink - offset


def _cell(points: list[Point], leaf_size: int) -> list:
    count = len(points)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    gx = math.fsum(xs) / count
    gy = math.fsum(ys) / count
    reach = max(map(math.hypot, [x - gx for x in xs], [y - gy for y in ys])) / _OPENING_RATIO
    if count <= leaf_size:
        return [gx, gy, count, reach, (), points, 0]
    return [gx, gy, count, reach, None, points, 0 if max(xs) - min(xs) >= max(ys) - min(ys) else 1]


def _split(cell: list, leaf_size: int) -> tuple[list, list]:
    points = cell[5]
    points.sort(key=itemgetter(cell[6]))
    mid = len(points) // 2
    return _cell(points[:mid], leaf_size), _cell(points[mid:], leaf_size)
