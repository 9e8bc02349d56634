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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from . import geometry, symmetry
from .errors import ClassWithoutUniqueWeber, NotLinear
from .geometry import TAU, Point, Tolerance, _cached, _plain_sum, dist

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
# Robots per leaf of the cell tree.
_LEAF_SIZE = 8
# Robots above which classification builds the cell tree; at or below it
# one exact pass over every robot pair serves every location.
_TREE_FROM = 64
# Distinct points up to which the diameter measures every pair of them,
# without the hull.
_ALL_PAIRS_UP_TO = 20
# Hull candidates above which the diameter measures only near-opposite pairs.
_OPPOSITE_FROM = 32


@dataclass(slots=True)
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
    """Indexed multiset of robot positions with tolerance-aware multiplicities.

    The points are stored as ``Point``s of floats, whatever pairs of
    numbers they came as, and must be finite.  Every derived attribute (the
    distinct points, the diameter, the locations, linearity, the pair sums,
    ...) is a ``geometry._cached`` attribute, computed on first read and
    kept.  Every robot's local frame makes a fresh configuration, and most
    of those are decided after the locations and the linearity test, so
    this fixed cost is a large share of a run (see the README).
    """

    def __init__(self, points: Iterable[Point | Sequence[float]], tol: Tolerance | None = None):
        # ``tuple.__new__`` is what ``Point(x, y)`` runs, without its
        # Python-level ``__new__``
        new = tuple.__new__
        pts = tuple([new(Point, (float(p[0]), float(p[1]))) for p in points])
        if not pts:
            raise ValueError("a configuration needs at least one robot")
        if not all(map(math.isfinite, chain.from_iterable(pts))):
            bad = next(p for p in pts if not (math.isfinite(p.x) and math.isfinite(p.y)))
            raise ValueError(f"non-finite coordinate: {bad}")
        self.points: tuple[Point, ...] = pts
        self.n: int = len(pts)
        self.tol: Tolerance = tol or geometry.DEFAULT_TOLERANCE
        # every distance from a center, by center point, built on first use
        # by ``symmetry.Rays.of``
        self._rays: dict[Point, symmetry.Rays] = {}

    @_cached
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

    @_cached
    def _farthest(self) -> tuple[float, list[tuple[Point, Point]]]:
        """The diameter and the pairs of distinct points at it.

        Up to ``_ALL_PAIRS_UP_TO`` distinct points every pair of them is
        measured; above, only pairs of their ``_hull_candidates``, which
        hold every pair at the maximum (see there).  Either way the maximum
        is the same double and the pairs at it are the same set, in another
        order and orientation, which no reader depends on: ``hypot``
        ignores signs, and ``farthest_pair`` takes a minimum over them.

        That is the crossover measured on points uniform in a square and
        on random points on a circle (CPython 3.11, a shared 2-core x86-64
        host, best of 7 x 200 calls): every pair takes 5.3, 11.8 and 18.0
        us at 10, 16 and 20 points, the hull and its pairs 9.8, 15.6 and
        19.0 us (12.9, 22.9 and 31.9 us on the circle); at 24 points the
        hull wins on uniform input, 20.1 against 25.2 us.
        """
        pts = self._distinct[1]
        return _farthest_pairs(pts if len(pts) <= _ALL_PAIRS_UP_TO else _hull_candidates(pts))

    @_cached
    def _cells(self) -> geometry.CellTree | None:
        """The robots' ``geometry.CellTree`` above ``_TREE_FROM`` robots,
        else None.

        The tree's bounds spare exact work only when they prune most of
        the robots; at small n a walk measures most of them exactly anyway,
        and ``_pair_sums`` measures every location for less than the tree's
        build and walks cost.  The crossover, measured as whole
        ``classify`` calls on fresh configurations, pass against tree
        (CPython 3.11, a shared 2-core x86-64 host, best of 5): uniform
        class-A input in a square, 298 against 360 us at n = 20, 1011
        against 1200 at 64, 2758 against 2870 at 128 and 3904 against 3628
        at 160; a regular polygon (QR), 501 against 588 us at 40, 914
        against 923 at 64, 1252 against 1193 at 80 and 3846 against 2602
        at 160.  The pass alone takes 48, 438 and 2684 us at n = 20, 64 and
        160, the tree's build plus one walk per location 102, 592 and 2140.
        Up to 64 robots the pass is thus no slower on either input.
        """
        if self.n <= _TREE_FROM:
            return None
        return geometry.CellTree(self.points, _LEAF_SIZE, self.merge_slack)

    @_cached
    def _pair_sums(self) -> list[tuple[float, float, float]]:
        """(pull, r_min, sum) at each location's lowest robot c, in location
        order, exactly as they are taken from c's ``symmetry.Rays``: pull is
        ``hypot`` of the unit vectors (x - cx, y - cy) / d toward the robots
        whose d = ``hypot(x - cx, y - cy)`` exceeds the merge slack, added in
        index order from 0.0; r_min is their smallest d (0.0 when there is
        none); sum is the ``_plain_sum`` of every robot's d in index order.
        The same triple as ``geometry.CellTree.bounds``, with each bound
        exact.

        One pass over the robot pairs k < l with a lowest robot among them,
        each measured once as ``hypot(x_l - x_k, y_l - y_k)``.  That is the
        d of the pair from either end, as ``hypot`` ignores signs, and
        x_k - x_l is exactly -(x_l - x_k) up to the sign of a zero, so l's
        unit vector toward k is exactly the negated one of k toward l.  A
        sum that starts at 0.0 is never -0.0, so adding a zero of either
        sign leaves it unchanged, as does leaving out c's own d of 0.0.
        Robot l meets its partners k < l in ascending order, while the
        outer loop reaches them, then the rest in its own row: in index
        order, so every sum rounds as the row-by-row one does.  O(n^2)
        ``hypot`` calls, half those of one ``Rays`` per robot.
        """
        points = self.points
        n = len(points)
        slack = self.merge_slack
        hypot = math.hypot
        lows = [loc.indices[0] for loc in self.locations]
        is_low = [False] * n
        for i in lows:
            is_low[i] = True
        pulls_x = [0.0] * n
        pulls_y = [0.0] * n
        nearest = [math.inf] * n
        totals = [0.0] * n
        for k, (xk, yk) in enumerate(points):
            pull_x, pull_y, r_min, total = pulls_x[k], pulls_y[k], nearest[k], totals[k]
            for l in range(k + 1, n) if is_low[k] else lows[bisect_right(lows, k):]:
                x, y = points[l]
                dx = x - xk
                dy = y - yk
                d = hypot(dx, dy)
                total += d
                totals[l] += d
                if d > slack:
                    ux = dx / d
                    uy = dy / d
                    pull_x += ux
                    pull_y += uy
                    pulls_x[l] -= ux
                    pulls_y[l] -= uy
                    if d < r_min:
                        r_min = d
                    if d < nearest[l]:
                        nearest[l] = d
            pulls_x[k], pulls_y[k], nearest[k], totals[k] = pull_x, pull_y, r_min, total
        return [
            (hypot(pulls_x[i], pulls_y[i]), nearest[i] if nearest[i] < math.inf else 0.0, totals[i]) for i in lows
        ]

    @_cached
    def diameter(self) -> float:
        """The largest ``hypot(px - x, py - y)`` over all pairs of robots,
        from ``_farthest``."""
        return self._farthest[0]

    @_cached
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

    @_cached
    def resolution(self) -> float:
        """8 float epsilons of the largest coordinate magnitude: points that
        far apart differ only in their last bits."""
        return _RESOLUTION * max(map(abs, chain.from_iterable(self._distinct[1])))

    @_cached
    def merge_slack(self) -> float:
        """Absolute coincidence threshold used for multiplicity merging.

        ``eps_len`` times the diameter, but never below the ``resolution``:
        a robot's local frame rounds a gap that small away, so the stack
        such points form must not split when the diameter shrinks to it.
        """
        return max(self.tol.eps_len * self.diameter, self.resolution)

    @_cached
    def locations(self) -> list[LocationSummary]:
        """Distinct occupied locations: robots within the merge slack of each
        other, directly or through a chain of robots, share one.

        Robots at one point always do, so the merge runs over the distinct
        points, swept in x order.  Two points within the slack have a float
        x difference of at most their computed distance, since ``hypot`` of
        two differences is never below either one.  So only earlier points
        within a window of twice the slack in x are tested, each with the
        exact ``hypot(...) <= slack`` test, and linked by union-find.
        Locations are ordered by their lowest robot, with indices ascending,
        at the lowest robot's point.

        Float subtraction is monotone, so when every gap between the x of
        consecutive distinct points exceeds the window, the sweep tests no
        pair at all: each distinct point is its own location, in the order
        of its first robot, and is built straight from ``_distinct``
        without the union-find.  Points in general position rarely come
        that close in x: every configuration of the synchronous benchmark
        runs, and 99.8% of the sweep's, take this way.
        """
        slack = self.merge_slack
        window = 2.0 * slack
        stacks, pts = self._distinct
        points = self.points
        if all(q[0] - p[0] > window for p, q in zip(pts, pts[1:])):
            return [LocationSummary(points[idx[0]], len(idx), idx[:]) for idx in stacks.values()]
        hypot = math.hypot
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
        return [LocationSummary(points[idx[0]], len(idx), idx) for idx in map(sorted, groups.values())]

    @_cached
    def location_of(self) -> list[LocationSummary]:
        """The entry of ``locations`` that holds each robot, in robot order."""
        out: list[LocationSummary] = [None] * self.n  # type: ignore[list-item]
        for loc in self.locations:
            for i in loc.indices:
                out[i] = loc
        return out

    @_cached
    def is_linear(self) -> bool:
        """Whether every robot is within ``eps_len`` times the diameter of the
        line through the cached farthest pair (``geometry.within_line``)."""
        if self.n <= 2:
            return True
        a, b = self.farthest_pair
        return geometry.within_line(self.points, a, b, self.diameter, self.tol)

    @_cached
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
        _, pairs = _farthest_pairs(_hull_candidates([p for p in self._distinct[1] if p in points]))
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


def _farthest_pairs(hull: list[Point]) -> tuple[float, list[tuple[Point, Point]]]:
    """The largest ``hypot(px - x, py - y)`` between two distinct points, and
    every pair at it, given the points or their ``_hull_candidates``.

    Only pairs of candidates are measured, each in candidate order; they
    hold every pair at the maximum (see there).  No pair of a single point
    gives 0.0 and no pairs.  Above ``_OPPOSITE_FROM`` candidates only the
    near-opposite pairs of ``_opposite_pairs`` are measured, which hold
    every pair at the maximum too, so the result is the same.  That is the
    crossover measured on regular polygons and ellipses (CPython 3.11, a
    shared 2-core x86-64 host, best of 7 x 20 calls): the loop over every
    pair takes 27, 57 and 94 us at 16, 24 and 32 candidates, the windows
    47, 56 and 82 us; at 48 and 160 candidates the loop takes 146 and
    1590 us, the windows 85 and 272 us.
    """
    if len(hull) > _OPPOSITE_FROM:
        pairs_at = _opposite_pairs(hull)
        if pairs_at is not None:
            return pairs_at
    hypot = math.hypot
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


def _opposite_pairs(hull: list[Point]) -> tuple[float, list[tuple[Point, Point]]] | None:
    """``_farthest_pairs`` measuring, for each candidate, only the partners
    in an angular window around its opposite direction; None when the
    candidates' spread is too extreme for squared distances.

    From g, the candidates' float centroid, candidate i lies at computed
    distance r_i and direction theta_i; R and r_lo are the largest and
    smallest r_i, and beta the largest computed distance between two of the
    extreme-coordinate candidates, so the maximum is at least beta.  A pair
    at distance d, whose directions from g are an angle pi - psi apart, has
    d^2 = r_i^2 + r_j^2 + 2 r_i r_j cos(psi) (law of cosines).  So d >= b
    needs cos(psi) >= (b^2 - r_i^2 - r_j^2) / (2 r_i r_j), and with r_j in
    [r_lo, R] the right side is at least L / (2 r_i R) when L = b^2 - r_i^2
    - R^2 > 0, and at least L / (2 r_i r_lo) otherwise.  No partner j of i
    beyond acos of that bound from theta_i + pi reaches b.

    Rounding: computed distances are within a relative 3u of the exact ones
    (u = 2^-53; one rounding per difference and under an ulp in ``hypot``),
    and computed directions within 2e-15 of the exact directions from g.
    So a pair whose computed distance reaches beta has an exact one of at
    least b = beta * (1 - 1e-12); L is taken 1e-12 * (b^2 + r_i^2 + R^2)
    lower and the quotient a relative 1e-12 lower, each far more than the
    rounding of the exact values and of the arithmetic; the window is
    widened by ``symmetry._ANGLE_ROUNDING``.  A zero divisor, or a window
    of half a turn or more, opens the whole turn.  So every pair whose computed
    distance is the maximum is measured, and the pairs at it are returned
    in the loop's (k, l) order.
    """
    h = len(hull)
    hypot = math.hypot
    atan2 = math.atan2
    xs = [p.x for p in hull]
    ys = [p.y for p in hull]
    gx = _plain_sum(xs) / h
    gy = _plain_sum(ys) / h
    radii = [hypot(x - gx, y - gy) for x, y in hull]
    big = max(radii)
    if not 1e-140 < big < 1e140:
        return None
    low = min(radii)
    thetas = [atan2(y - gy, x - gx) for x, y in hull]
    ends = {xs.index(min(xs)), xs.index(max(xs)), ys.index(min(ys)), ys.index(max(ys))}
    beta = max(hypot(xs[k] - xs[l], ys[k] - ys[l]) for k in ends for l in ends)
    b2 = (beta * (1.0 - 1e-12)) ** 2
    big2 = big * big
    order = sorted(range(h), key=thetas.__getitem__)
    values = [thetas[k] for k in order]
    values += [v + TAU for v in values]
    labels = order * 2
    reach_pad = symmetry._ANGLE_ROUNDING
    best = 0.0
    at_best: list[tuple[int, int]] = []
    for i, r_i in enumerate(radii):
        r2 = r_i * r_i
        room = b2 - r2 - big2 - 1e-12 * (b2 + r2 + big2)
        divisor = 2.0 * r_i * (big if room > 0.0 else low)
        bound = room / divisor if divisor > 0.0 else -1.0
        bound -= 1e-12 * abs(bound)
        reach = math.acos(min(bound, 1.0)) + reach_pad if bound > -1.0 else math.pi
        if reach >= math.pi:
            partners = range(i + 1, h)
        else:
            target = thetas[i] + math.pi
            partners = labels[bisect_left(values, target - reach):bisect_right(values, target + reach)]
        px = xs[i]
        py = ys[i]
        for j in partners:
            if j > i:
                d = hypot(px - xs[j], py - ys[j])
                if d >= best:
                    if d > best:
                        best = d
                        at_best = []
                    at_best.append((i, j))
    return best, [(hull[k], hull[l]) for k, l in sorted(at_best)]


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

    Without a cell tree (up to ``_TREE_FROM`` robots) every location's sum
    comes from ``Configuration._pair_sums``, the ``_plain_sum`` of its
    ``Rays`` row bit for bit, so no location builds a ``Rays`` for its sum.
    With a cell tree, exact sums are taken only where they can matter.  The
    locations are visited in ascending order of their sum's lower bound
    (``geometry.CellTree.bounds``), and the visit stops at the first bound
    above b + merge slack, b the lowest exact sum of a safe location found
    so far.  Every location whose sum is at most s + merge slack, s the
    group's lowest safe sum, is visited: b >= s, so its bound, at most its
    sum, is at most b + merge slack (float addition is monotone).  The
    first safe location and the tied set thus lie among the visited ones,
    and the ascending-sum order, ties by location order, runs on their
    exact sums as it runs on every sum without the tree.  Each location's
    sum is its ``Rays`` row added left to right, so O(n) per visited
    location.
    """
    locs = config.locations
    slack = config.merge_slack
    cells = config._cells
    safe: dict[int, bool] = {}

    def is_safe(k: int) -> bool:
        if k not in safe:
            safe[k] = _is_safe(config, k)
        return safe[k]

    for mult in sorted({loc.multiplicity for loc in locs}, reverse=True):
        group = [k for k, loc in enumerate(locs) if loc.multiplicity == mult]
        if cells is None:
            totals = {k: config._pair_sums[k][2] for k in group}
        else:
            lower = {k: cells.bounds(locs[k].location)[2] for k in group}
            totals = {}
            best = math.inf
            for k in sorted(group, key=lower.__getitem__):
                if lower[k] > best + slack:
                    break
                total = totals[k] = _plain_sum(symmetry.Rays.of(config, locs[k].location).dists)
                if total < best and is_safe(k):
                    best = total
            totals = {k: totals[k] for k in sorted(totals)}
        order = sorted(totals, key=totals.__getitem__)
        first = next((pos for pos, k in enumerate(order) if is_safe(k)), None)
        if first is None:
            continue
        bound = totals[order[first]] + slack
        tied = [order[first]]
        for k in order[first + 1:]:
            if totals[k] > bound:
                break
            if is_safe(k):
                tied.append(k)
        if len(tied) == 1:
            return locs[tied[0]].location
        return max((locs[k].location for k in sorted(tied)), key=lambda p: symmetry.view(config, p).encoding)
    raise RuntimeError("non-linear configuration without a safe point")


def _assert_asymmetric(config: Configuration) -> None:
    """All views must be distinct when no quasi-regular structure exists.

    With chirality two views are equal only under a rotational symmetry
    about the centroid, which ``symmetry.symmetricity`` tests.
    """
    sym = symmetry.symmetricity(config)
    if sym != 1:
        raise RuntimeError(f"classified asymmetric but sym={sym}")


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
