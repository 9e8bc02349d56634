"""Robot configurations: multiset of positions, classification, safe points.

A configuration is classified into exactly one of six classes:

=====  ==========================================================
tag    meaning
=====  ==========================================================
B      bivalent: robots split equally over exactly two locations
M      a unique location of strictly maximal multiplicity exists
L1W    linear with a unique median (hence a unique Weber point)
L2W    linear with a non-degenerate median interval
QR     non-linear and quasi-regular around some center
A      non-linear, not quasi-regular, all views distinct
=====  ==========================================================

The tests are applied in that order; each later class excludes the earlier
ones by definition, so ordered testing yields a partition.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from . import geometry, symmetry
from .errors import ClassWithoutUniqueWeber, NotLinear
from .geometry import Point, Tolerance, _plain_sum, dist

TAG_BIVALENT = "B"
TAG_MULTIPLE = "M"
TAG_L1W = "L1W"
TAG_L2W = "L2W"
TAG_QREGULAR = "QR"
TAG_ASYMMETRIC = "A"

ALL_TAGS = (TAG_BIVALENT, TAG_MULTIPLE, TAG_L1W, TAG_L2W, TAG_QREGULAR, TAG_ASYMMETRIC)

# Relative float resolution below which coordinates count as one point.
_RESOLUTION = 8.0 * sys.float_info.epsilon
# Unit roundoff of a double, 2^-53.
_UNIT = sys.float_info.epsilon / 2.0


@dataclass
class LocationSummary:
    location: Point
    multiplicity: int
    indices: list[int]


@dataclass
class ConfigClass:
    """Class tag plus the per-class analysis detail the protocol consumes."""

    tag: str
    elected: Point | None = None          # M: max-multiplicity point; A: elected safe point
    weber: Point | None = None            # L1W: unique median; QR: center of quasi-regularity
    qreg: int | None = None               # QR: detected rotational order (>= 2)
    endpoints: tuple[Point, Point] | None = None  # L2W: extreme locations
    midpoint: Point | None = None         # L2W: midpoint of the endpoints


def weber_point(config: Configuration, cls: ConfigClass) -> Point:
    """The unique Weber point for classes that pin one down (L1W and QR)."""
    if cls.tag in (TAG_L1W, TAG_QREGULAR) and cls.weber is not None:
        return cls.weber
    raise ClassWithoutUniqueWeber(f"class {cls.tag} does not define a unique Weber point")


class Configuration:
    """Indexed multiset of robot positions with tolerance-aware multiplicities."""

    def __init__(self, points: Iterable[Point | Sequence[float]], tol: Tolerance | None = None):
        pts = tuple(Point(float(p[0]), float(p[1])) for p in points)
        if not pts:
            raise ValueError("a configuration needs at least one robot")
        for p in pts:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError(f"non-finite coordinate: {p}")
        self.points: tuple[Point, ...] = pts
        self.tol: Tolerance = tol or geometry.DEFAULT_TOLERANCE
        # every distance from a center, by center point, built on first use
        # by ``symmetry.Rays.of``
        self._rays: dict[Point, symmetry.Rays] = {}

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def _distinct(self) -> tuple[dict[Point, list[int]], list[Point]]:
        """The robot indices at each distinct point, and the distinct points
        in (x, y) order.

        Indices ascend, and points come in order of their first robot.  Keys
        compare with ``==``, so 0.0 and -0.0 share a key.  Distances from
        points that compare equal are equal bit for bit (``hypot`` ignores
        the sign of a zero difference), so every robot of one key has the
        same distance row.
        """
        stacks: dict[Point, list[int]] = {}
        for i, p in enumerate(self.points):
            stacks.setdefault(p, []).append(i)
        return stacks, sorted(stacks)

    @cached_property
    def _farthest(self) -> tuple[float, list[tuple[Point, Point]]]:
        """The diameter and the pairs of distinct points at it."""
        return _farthest_pairs(self._distinct[1])

    @cached_property
    def diameter(self) -> float:
        """The largest ``hypot(px - x, py - y)`` over all pairs of robots.

        Only pairs of ``_hull_candidates`` are measured; the result is the
        same double as the maximum over every pair (see there).
        """
        return self._farthest[0]

    @cached_property
    def farthest_pair(self) -> tuple[Point, Point]:
        """The robots at the diameter: the lexicographically first robot
        pair (i, j), i < j, at the maximum.

        Every robot at a point has that point's distances, so it is the
        first (lowest robot, partner's lowest robot) over the pairs of
        points at the diameter.  A single location gives robot 0 twice.
        """
        diameter, pairs = self._farthest
        if diameter == 0.0:
            return self.points[0], self.points[0]
        stacks = self._distinct[0]
        i, j = min(sorted((stacks[p][0], stacks[q][0])) for p, q in pairs)
        return self.points[i], self.points[j]

    @cached_property
    def merge_slack(self) -> float:
        """Absolute coincidence threshold used for multiplicity merging.

        ``eps_len`` times the diameter, but never below 8 float epsilons of
        the largest coordinate magnitude: points that far apart differ only
        in their last bits, and a robot's local frame rounds such a gap
        away, so the stack they form must not split when the diameter
        shrinks to that gap.
        """
        reach = max(map(abs, chain.from_iterable(self._distinct[1])))
        return max(self.tol.eps_len * self.diameter, _RESOLUTION * reach)

    @cached_property
    def locations(self) -> list[LocationSummary]:
        """Distinct occupied locations: robots within the merge slack of each
        other, directly or through a chain of robots, share one.

        Robots at one point always do, so the merge runs over the distinct
        points, swept in x order.  Two points within the slack have a float
        x difference of at most their computed distance, since ``hypot`` of
        two differences is never below either one.  So only earlier points
        within a window of twice the slack in x are tested, each with the
        exact ``hypot(...) <= slack`` test.  Locations are ordered by their
        lowest robot, with indices ascending, at the lowest robot's point.
        """
        slack = self.merge_slack
        window = 2.0 * slack
        hypot = math.hypot
        stacks, pts = self._distinct
        parent = {p: p for p in pts}

        def find(p: Point) -> Point:
            while parent[p] is not p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        for k, p in enumerate(pts):
            px, py = p
            for j in range(k - 1, -1, -1):
                q = pts[j]
                qx, qy = q
                if px - qx > window:
                    break
                if hypot(px - qx, py - qy) <= slack:
                    parent[find(q)] = find(p)
        groups: dict[Point, list[int]] = {}
        for p, idx in stacks.items():
            groups.setdefault(find(p), []).extend(idx)
        return [LocationSummary(self.points[idx[0]], len(idx), idx) for idx in map(sorted, groups.values())]

    @cached_property
    def location_of(self) -> list[LocationSummary]:
        """The entry of ``locations`` that holds each robot, in robot order."""
        out: list[LocationSummary] = [None] * self.n  # type: ignore[list-item]
        for loc in self.locations:
            for i in loc.indices:
                out[i] = loc
        return out

    @cached_property
    def is_linear(self) -> bool:
        """Whether every robot is within ``eps_len`` times the diameter of the
        line through the cached farthest pair (``geometry.within_line``)."""
        if self.n <= 2:
            return True
        a, b = self.farthest_pair
        return geometry.within_line(self.points, a, b, self.diameter, self.tol)

    @cached_property
    def linear_endpoints(self) -> tuple[Point, Point]:
        """Extreme occupied locations of a linear configuration, in (x, y) order.

        That is the lexicographically first location pair (i, j), i < j, in
        location order, at the largest distance between two locations.  One
        location gives its point twice.
        """
        if not self.is_linear:
            raise NotLinear("endpoints of a non-linear configuration")
        occupied = self.occupied_points()
        points = set(occupied)
        _, pairs = _farthest_pairs([p for p in self._distinct[1] if p in points])
        if not pairs:
            return occupied[0], occupied[0]
        a, b = pairs[0]
        if len(pairs) > 1:
            rank = {p: k for k, p in enumerate(occupied)}
            a, b = min(pairs, key=lambda pair: sorted((rank[pair[0]], rank[pair[1]])))
        return (a, b) if a <= b else (b, a)

    def find_location(self, p: Point) -> LocationSummary | None:
        """The occupied location coinciding with p within tolerance, if any."""
        for loc in self.locations:
            if dist(loc.location, p) <= self.merge_slack:
                return loc
        return None

    def multiplicity_at(self, p: Point) -> int:
        loc = self.find_location(p)
        return loc.multiplicity if loc else 0

    def occupied_points(self) -> list[Point]:
        return [loc.location for loc in self.locations]

    def __repr__(self) -> str:
        return f"Configuration({list(self.points)!r})"


def _farthest_pairs(pts: list[Point]) -> tuple[float, list[tuple[Point, Point]]]:
    """The largest ``hypot(px - x, py - y)`` between two of the distinct
    points ``pts``, given in (x, y) order, and every pair at it.

    Only pairs of ``_hull_candidates`` are measured, each in candidate
    order; they hold every pair at the maximum (see there).  No pair of a
    single point gives 0.0 and no pairs.
    """
    hypot = math.hypot
    hull = _hull_candidates(pts)
    best = 0.0
    pairs: list[tuple[Point, Point]] = []
    for k, p in enumerate(hull):
        px, py = p
        for q in hull[k + 1:]:
            d = hypot(px - q.x, py - q.y)
            if d >= best:
                if d > best:
                    best = d
                    pairs = []
                pairs.append((p, q))
    return best, pairs


def _hull_candidates(pts: list[Point]) -> list[Point]:
    """The distinct points that can end a farthest pair: the convex hull's
    corners and the points on or near its boundary, less those well inside
    a nearly straight stretch of it.

    Andrew's monotone chain over ``pts``, in (x, y) order, keeping a lower
    and an upper chain.  B is the bounding-box diagonal, so B >= D, the
    diameter, and B^2 <= 2*D^2; u = 2^-53.  A chain point a between its
    chain neighbours o and p is popped in two cases, both tested on the
    computed cross product of o->a and o->p:

    - Inward: a clearly inward turn, a cross product below -1e-7*B^2.
      Rounding moves a cross product by at most 8u*B^2, so a lies inside
      the segment o->p in exact arithmetic too, by a perpendicular distance
      over 0.99e-7*B^2 / D >= 0.99e-7*D.
    - Straight: a near-straight turn, |cross| <= 1e-7*B^2 (so generic turns
      skip the test), with a well inside o->p.  Write h = |cross|/|p-o| for
      a's distance from the line op, and f = o + t(p-o) for its foot, so
      t(1-t)|p-o|^2 = (a-o).(p-a) + h^2.  For every point q,
      |q-f|^2 = (1-t)|q-o|^2 + t|q-p|^2 - t(1-t)|p-o|^2.  So with M the
      larger of |q-o| and |q-p|, and 0 < t < 1 (as (a-o).(p-a) > 0 below),
      |q-a| <= sqrt(M^2 - t(1-t)|p-o|^2) + h, where the root is at most B,
      and squaring gives M^2 - |q-a|^2 >= (a-o).(p-a) - 2Bh.  The pop needs
      the computed (a-o).(p-a) above 2B(h + delta), delta = 12u*B.  Each
      coordinate difference is exact up to u and each product rounds once,
      so the computed cross and dot products err by under
      3u|a-o||p-o| + u|cross| and 3u|a-o||p-a| + u|(a-o).(p-a)|.  When
      the test passes, h < (a-o).(p-a)/2B <= |p-o|^2/8B <= B/8, so the
      computed h errs by under 3.5u*B, and with the rounding of B and of
      the test itself, the exact (a-o).(p-a) - 2Bh exceeds
      24u*B^2 - 10u*B^2.  So M^2 - |q-a|^2 > 12u*B^2.

    A computed ``hypot(px - x, py - y)`` is within a factor 1 +- 3u of the
    exact distance (the differences are exact up to u, and since Python
    3.10 ``hypot`` errs by under one ulp), so two distances to q differ in
    float, in the exact order, once their squares differ by more than
    12u*B^2 < 2.7e-15*D^2.  A point is left out only when both chains pop
    it.  If either pop was straight, the computed distance from q to o or
    to p is above that to a, for every q.  If both were inward, a lies
    above the lower hull and below the upper hull by vertical gaps
    g1, g2 > 0.99e-7*D (a vertical gap is at least the perpendicular one).
    Writing a as a convex combination of the two hull points at those
    gaps, and each of them of corners, for every point q some corner v has
    |v-q|^2 >= |a-q|^2 + g1*g2 > |a-q|^2 + 0.98e-14*D^2.  Either way every
    computed distance from a left-out point is strictly below one from some
    other point to the same q, so no farthest pair, as computed, ends at a
    left-out point.  A hull that drops corners bulging out by less than a
    tolerance would not serve here: such a corner can end the farthest
    pair.
    """
    if len(pts) <= 2:
        return pts
    ys = [p.y for p in pts]
    width = pts[-1].x - pts[0].x
    height = max(ys) - min(ys)
    box = width * width + height * height
    straight = 1e-7 * box
    inward = -straight
    b = math.sqrt(box)
    twice_b = 2.0 * b
    delta = 12.0 * _UNIT * b
    hypot = math.hypot

    def half(seq) -> list[Point]:
        out: list[Point] = []
        for p in seq:
            px, py = p
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                cross = (ax - ox) * (py - oy) - (ay - oy) * (px - ox)
                if cross >= inward:
                    if cross > straight:
                        break
                    h = abs(cross) / hypot(px - ox, py - oy)
                    if (ax - ox) * (px - ax) + (ay - oy) * (py - ay) <= twice_b * (h + delta):
                        break
                out.pop()
            out.append(p)
        return out

    return list(dict.fromkeys(half(pts) + half(reversed(pts))))


def median_interval(config: Configuration) -> tuple[Point, Point]:
    """The two extreme median positions of a linear configuration.

    Both returned points are robot positions; they coincide exactly when the
    median (and therefore the Weber point) is unique.
    """
    if not config.is_linear:
        raise NotLinear("median interval of a non-linear configuration")
    lo, hi = config.linear_endpoints
    if lo == hi:
        return (lo, hi)
    dx = hi.x - lo.x
    dy = hi.y - lo.y
    norm = math.hypot(dx, dy)
    dx /= norm
    dy /= norm
    ordered = sorted(
        range(config.n),
        key=lambda i: ((config.points[i].x - lo.x) * dx + (config.points[i].y - lo.y) * dy, i),
    )
    n = config.n
    lo_rank = (n + 1) // 2 - 1   # ceil(n/2), 0-based
    hi_rank = n // 2             # floor(n/2) + 1, 0-based
    return (config.points[ordered[lo_rank]], config.points[ordered[hi_rank]])


def safe_points(config: Configuration) -> list[Point]:
    """Occupied locations from which every half-line holds <= ceil(n/2)-1 robots."""
    return [loc.location for k, loc in enumerate(config.locations) if _is_safe(config, k)]


def _is_safe(config: Configuration, k: int) -> bool:
    """Whether the k-th occupied location is a safe point.

    The rays are ``symmetry._ray_clusters`` over ``Rays.of`` the location at
    ``eps_angle``: single-link chains of the sorted ``atan2 % TAU``
    directions of the robots beyond the merge slack, each gap tested with
    ``<= eps_angle``, and the first and last chains merged when the gap
    across direction zero passes the same test.
    """
    center = config.locations[k].location
    clusters = symmetry._ray_clusters(config, center, symmetry.Rays.of(config, center).off, config.tol.eps_angle)
    return max((count for _, count in clusters), default=0) <= (config.n + 1) // 2 - 1


def classify(config: Configuration) -> ConfigClass:
    """Assign the configuration its unique class tag plus analysis detail."""
    locs = config.locations
    n = config.n

    if len(locs) == 2 and locs[0].multiplicity == locs[1].multiplicity:
        return ConfigClass(TAG_BIVALENT)

    best = max(loc.multiplicity for loc in locs)
    top = [loc for loc in locs if loc.multiplicity == best]
    if len(top) == 1:
        return ConfigClass(TAG_MULTIPLE, elected=top[0].location)

    if config.is_linear:
        lo, hi = median_interval(config)
        if dist(lo, hi) <= config.merge_slack:
            return ConfigClass(TAG_L1W, weber=lo)
        u_lo, u_hi = config.linear_endpoints
        mid = Point((u_lo.x + u_hi.x) / 2.0, (u_lo.y + u_hi.y) / 2.0)
        return ConfigClass(TAG_L2W, endpoints=(u_lo, u_hi), midpoint=mid)

    qr = symmetry.detect_quasi_regular(config)
    if qr is not None:
        return ConfigClass(TAG_QREGULAR, weber=qr.center, qreg=qr.m)

    elected = _elect_safe_point(config)
    _assert_asymmetric(config)
    return ConfigClass(TAG_ASYMMETRIC, elected=elected)


def _elect_safe_point(config: Configuration) -> Point:
    """Maximize (multiplicity, 1/distance-sum, view) over the safe points.

    Distance sums are compared with tolerance so the winner is stable under
    the float noise of a robot's local coordinate frame; exact ties fall
    through to the total order on views.

    Safety is tested lazily, with the same result as filtering every
    location through ``safe_points`` first.  The winning multiplicity is the
    highest one held by a safe location, so multiplicities are visited in
    descending order.  Within one, the lowest sum over its safe locations is
    the sum of the first safe location in ascending-sum order, and the tied
    set is every safe location whose sum is within the merge slack of that
    one, so only locations up to that bound are tested.  The tied set keeps
    location order, so the view comparison breaks exact ties as before.
    """
    locs = config.locations
    for mult in sorted({loc.multiplicity for loc in locs}, reverse=True):
        group = [k for k, loc in enumerate(locs) if loc.multiplicity == mult]
        totals = {k: _plain_sum(symmetry.Rays.of(config, locs[k].location).dists) for k in group}
        order = sorted(group, key=totals.__getitem__)
        first = next((pos for pos, k in enumerate(order) if _is_safe(config, k)), None)
        if first is None:
            continue
        bound = totals[order[first]] + config.merge_slack
        tied = [order[first]]
        for k in order[first + 1:]:
            if totals[k] > bound:
                break
            if _is_safe(config, k):
                tied.append(k)
        if len(tied) == 1:
            return locs[tied[0]].location
        return max((locs[k].location for k in sorted(tied)), key=lambda p: symmetry.view(config, p).encoding)
    raise RuntimeError("non-linear configuration without a safe point")


def _assert_asymmetric(config: Configuration) -> None:
    """All views must be distinct when no quasi-regular structure exists.

    A cheap screen first: if every location has a distinct (multiplicity,
    distance multiset) signature, views are necessarily distinct.  Distances
    are rounded relative to the diameter, like every other slack, so the
    screen behaves the same at every scale.

    Full signatures are only built within groups of locations that share
    (multiplicity, rounded largest distance).  Dividing by the diameter and
    rounding are both monotone, so a signature's largest entry is its
    location's rounded largest distance: equal signatures always share a
    group, and the screen passes exactly when all signatures are distinct.
    """
    diameter = config.diameter
    rows = [symmetry.Rays.of(config, loc.location).dists for loc in config.locations]
    groups: dict[tuple[int, float], list[int]] = {}
    for k, loc in enumerate(config.locations):
        groups.setdefault((loc.multiplicity, round(max(rows[k]) / diameter, 9)), []).append(k)
    if all(
        len({tuple(sorted(round(d / diameter, 9) for d in rows[k])) for k in members}) == len(members)
        for members in groups.values()
        if len(members) > 1
    ):
        return
    report = symmetry.symmetricity(config)
    if report.sym != 1:
        raise RuntimeError(f"classified asymmetric but sym={report.sym}")


def is_gathered(config: Configuration, live: Sequence[bool], moving: Iterable[Point]) -> bool:
    """True iff the live robots share one location and are instructed to stay."""
    if len(live) != config.n:
        raise ValueError("live mask length must equal the robot count")
    live_pts = [p for p, alive in zip(config.points, live) if alive]
    if not live_pts:
        raise ValueError("at least one robot must be live")
    slack = config.merge_slack
    anchor = live_pts[0]
    if any(dist(p, anchor) > slack for p in live_pts[1:]):
        return False
    return all(dist(anchor, m) > slack for m in moving)
