"""Independent oracles and small utilities shared by the test modules."""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable

from gathersim import Configuration, Point
from gathersim.geometry import DEFAULT_TOLERANCE, TAU, Tolerance, _point_line_offset, dist, within_line
from gathersim.simulator import dumps_17g


# --- geometry predicates without a caller in the package ---------------------------


def on_half_line(p: Point, origin: Point, through: Point, tol: Tolerance | None = None) -> bool:
    """True iff p is on the half-line from origin through ``through``.

    The origin itself is excluded by definition.
    """
    tol = tol or DEFAULT_TOLERANCE
    d_ot = dist(origin, through)
    scale = max(d_ot, dist(p, origin))
    slack = tol.eps_len * scale
    if d_ot <= slack:
        return False
    if dist(p, origin) <= slack:
        return False
    if _point_line_offset(p, origin, through, d_ot) > slack:
        return False
    dot = (p[0] - origin[0]) * (through[0] - origin[0]) + (p[1] - origin[1]) * (through[1] - origin[1])
    return dot > 0.0


def _farthest_pair(pts: list[Point]) -> tuple[Point, Point, float]:
    best = (pts[0], pts[0], 0.0)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            d = dist(p, q)
            if d > best[2]:
                best = (p, q, d)
    return best


def farthest_pair(points: Iterable[Point]) -> tuple[Point, Point, float]:
    """The two mutually farthest points and their distance (the diameter)."""
    pts = list(points)
    if not pts:
        raise ValueError("farthest_pair of no points")
    return _farthest_pair(pts)


def collinear(points, tol: Tolerance | None = None) -> bool:
    """True iff all points lie within tolerance of one common line."""
    pts = list(points)
    if len(pts) <= 2:
        return True
    a, b, diameter = farthest_pair(pts)
    return within_line(pts, a, b, diameter, tol)


def hull_vertices(points, tol: Tolerance | None = None) -> list[Point]:
    """Extreme points (corners) of the convex hull.

    Points interior to hull edges are excluded; a collinear set yields its
    two endpoints, a single location yields itself.
    """
    tol = tol or DEFAULT_TOLERANCE
    pts = sorted(set(points))
    if not pts:
        raise ValueError("convex hull of no points")
    if len(pts) == 1:
        return [pts[0]]
    _, _, diameter = farthest_pair(pts)
    if diameter == 0.0:
        return [pts[0]]
    # Cross products scale as length squared.
    strict = tol.eps_len * diameter * diameter

    def half(chain_pts: list[Point]) -> list[Point]:
        chain: list[Point] = []
        for p in chain_pts:
            while len(chain) >= 2 and _orient(chain[-2], chain[-1], p) <= strict:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    return lower[:-1] + upper[:-1]


# --- grid-search geometric median --------------------------------------------------


def grid_weber(points: list[Point], stages: int = 6) -> Point:
    """Refined grid search for the point minimizing the distance sum."""

    def total(x: float, y: float) -> float:
        return sum(math.hypot(x - p.x, y - p.y) for p in points)

    cx = sum(p.x for p in points) / len(points)
    cy = sum(p.y for p in points) / len(points)
    half = max(
        max(abs(p.x - cx) for p in points), max(abs(p.y - cy) for p in points), 1e-6
    )
    best = (total(cx, cy), cx, cy)
    for _ in range(stages):
        _, bx, by = best
        for i in range(-16, 17):
            for j in range(-16, 17):
                x = bx + i * half / 16
                y = by + j * half / 16
                t = total(x, y)
                if t < best[0]:
                    best = (t, x, y)
        half *= 0.15
    return Point(best[1], best[2])


# --- convex hull extreme-point oracle ----------------------------------------------


def brute_extreme_points(points: list[Point]) -> set[Point]:
    """A point is extreme iff it is outside the hull of the other points."""
    pts = list(set(points))
    out = set()
    for p in pts:
        others = [q for q in pts if q != p]
        if not _in_convex_hull(p, others):
            out.add(p)
    return out


def _in_convex_hull(p: Point, others: list[Point]) -> bool:
    for a, b in itertools.combinations(others, 2):
        if _on_closed_segment(p, a, b):
            return True
    for a, b, c in itertools.combinations(others, 3):
        if _in_triangle(p, a, b, c):
            return True
    return False


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _on_closed_segment(p: Point, a: Point, b: Point) -> bool:
    if abs(_orient(a, b, p)) > 1e-12:
        return False
    return (
        min(a.x, b.x) - 1e-12 <= p.x <= max(a.x, b.x) + 1e-12
        and min(a.y, b.y) - 1e-12 <= p.y <= max(a.y, b.y) + 1e-12
    )


def _in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    d1 = _orient(p, a, b)
    d2 = _orient(p, b, c)
    d3 = _orient(p, c, a)
    has_neg = (d1 < -1e-12) or (d2 < -1e-12) or (d3 < -1e-12)
    has_pos = (d1 > 1e-12) or (d2 > 1e-12) or (d3 > 1e-12)
    return not (has_neg and has_pos)


# --- similarity transforms ----------------------------------------------------------


class Similarity:
    """Orientation-preserving similarity transform of the plane."""

    def __init__(self, theta: float, scale: float, tx: float, ty: float):
        self.theta = theta
        self.scale = scale
        self.tx = tx
        self.ty = ty

    @classmethod
    def random(cls, rng: random.Random) -> "Similarity":
        return cls(rng.uniform(0, TAU), rng.uniform(0.2, 5.0), rng.uniform(-10, 10), rng.uniform(-10, 10))

    def __call__(self, p: Point) -> Point:
        ct, st = math.cos(self.theta), math.sin(self.theta)
        return Point(
            self.scale * (p.x * ct - p.y * st) + self.tx,
            self.scale * (p.x * st + p.y * ct) + self.ty,
        )

    def apply_config(self, config: Configuration) -> Configuration:
        return Configuration([self(p) for p in config.points], config.tol)


def frame_point(frame, p: Point) -> Point:
    """One point's image in a ``simulator.LocalFrame``, one ``Point`` at a
    time: ``apply_config``'s arithmetic for a single robot."""
    ct = math.cos(frame.rotation)
    st = math.sin(frame.rotation)
    return Point(
        frame.scale * (p.x * ct - p.y * st) + frame.translation.x,
        frame.scale * (p.x * st + p.y * ct) + frame.translation.y,
    )


# --- segment intersection (for collision-freedom checks) ----------------------------


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Closed-segment intersection test."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and all(abs(d) > 1e-15 for d in (d1, d2, d3, d4)):
        return True
    for s, a, b in ((p1, q1, q2), (p2, q1, q2), (q1, p1, p2), (q2, p1, p2)):
        if _on_closed_segment(s, a, b):
            return True
    return False


def on_ray(center: Point, theta: float, radius: float) -> Point:
    """The point at ``radius`` from center along counterclockwise bearing theta."""
    return Point(center.x + radius * math.cos(theta), center.y + radius * math.sin(theta))


# --- quasi-regularity at one center and order ----------------------------------------


def deficits_at(config: Configuration, p: Point, m: int):
    """``symmetry._deficits_for`` at the occupied location p and order m, on
    the rays and slack ``detect_quasi_regular`` would use there: the robots
    that must leave p for the rays to repeat under rotation by 2*pi/m, or
    None when p holds too few."""
    from gathersim import symmetry
    from gathersim.errors import NotOccupied

    loc = config.find_location(p)
    if loc is None:
        raise NotOccupied(f"{p} is not an occupied location")
    center = loc.location
    rays = symmetry.Rays.of(config, center)
    if not rays.off:
        return symmetry.QRegularityResult(center, m, {})
    slack = symmetry._direction_slack(config, rays.r_min, symmetry._COORD_DRIFT)
    dirs = symmetry._ray_clusters(config, center, rays.off, slack)
    return symmetry._deficits_for(dirs, loc.multiplicity, m, slack, center)


# --- configuration mixes for partition-style tests ----------------------------------


def mixed_configuration(rng: random.Random, n: int) -> Configuration:
    """One configuration drawn from the generic/collinear/symmetric/multiplicity/
    quasi-regular/bivalent mix used by the partition tests."""
    from gathersim import generators

    roll = rng.random()
    if roll < 0.30:
        return Configuration([Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)])
    if roll < 0.50:
        return generators.collinear_configuration(rng, n)
    if roll < 0.65:
        return generators.multiplicity_configuration(rng, n)
    if roll < 0.80:
        return generators.symmetric_configuration(rng)
    if roll < 0.92 or n % 2:
        return generators.construct_quasi_regular(rng).config
    return generators.bivalent_configuration(rng, n)


# --- configuration files ------------------------------------------------------------


def save_configuration(config: Configuration, path: str) -> None:
    """Write the robots as ``{"points": [[x, y], ...]}``, the JSON form
    ``gathersim.cli.load_configuration`` reads, each float round-tripping."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_17g({"points": [[p.x, p.y] for p in config.points]}))
        fh.write("\n")
